"""sympencil: exact-arithmetic invariants of closed symplectic 4-manifold
lattices, Lefschetz-pencil numerology, Brill-Noether bookkeeping, and
certification of commuting-matrix models of points on a surface.

Everything is exact (int in the lattice core and eliminations, Fraction for
rational input; no floats). The CLI entry point is :mod:`sympencil.cli`.

The public names below resolve on first use (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in {
        "applications": ("CheckReport", "run_all"),
        "brill_noether": (
            "AbelJacobiFibres", "BNQuery", "abel_jacobi_fibre_dims",
            "eh_predicate", "rho",
        ),
        "catalog": (
            "STANDARD_BUILDERS", "elliptic_like", "lattice_from_dict",
            "lattice_to_dict", "spin_model",
        ),
        "exact": (
            "RationalMatrix", "binom", "rank_and_kernel",
        ),
        "gromov": (
            "CohomologyProfile", "duality_check", "gr_parity",
            "gromov_invariant", "riemann_roch_chi", "serre_dual",
            "vanishing_profile",
        ),
        "hilb": (
            "ADHMTriple", "CertificationReport", "RelADHMQuad",
            "certify_stratum", "differential_matrix", "is_stable",
            "verify_absolute_cokernel",
        ),
        "lattice": (
            "BlownUpLattice", "FourManifoldLattice", "HomologyClass",
            "blow_up", "is_even_form", "signature_of_symmetric", "twist",
        ),
        "pencil": (
            "PencilData", "SurfaceCountVerdict", "build_pencil",
            "count_decision", "fibre_degree", "residual_fibre_degree",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
