"""Cohomology-profile bookkeeping and the binomial surface-count formulas.

A profile records the three section dimensions (h0, h1, h2) a divisor class
carries; holomorphic data is user input, since topology alone does not
determine it, and the module's job is the consistency closure (Riemann-Roch,
Serre duality, vanishing) plus the obstruction-Euler-class count formulas.
Counts are signed integers from the stated binomial convention; duality is
asserted on magnitudes only, because the global sign is a choice of
orientation that the formulas do not pin down.
"""

from __future__ import annotations

from typing import Sequence

from .exact import _require_ints, binom
from .lattice import FourManifoldLattice, HomologyClass
from .record import Record


def riemann_roch_chi(x: FourManifoldLattice, d: Sequence[int]) -> int:
    """Euler characteristic chi(D) = chi_h + (D.D - D.K)/2."""
    chi_h = x.chi_h
    if not isinstance(chi_h, int):
        raise ValueError(
            f"chi_h = {chi_h} is not integral; Riemann-Roch needs even b1 data"
        )
    return chi_h + HomologyClass(x, d).virtual_dim()


class CohomologyProfile(Record):
    """Section dimensions (h0, h1, h2) of a divisor class, chi-validated."""

    __slots__ = ("h0", "h1", "h2", "divisor")

    h0: int
    h1: int
    h2: int
    divisor: HomologyClass

    def __post_init__(self):
        for name in ("h0", "h1", "h2"):
            v = getattr(self, name)
            _require_ints((v,), f"{name} must be an integer")
            if v < 0:
                raise ValueError(f"{name} must be nonnegative")
        expected = riemann_roch_chi(self.divisor.lattice, self.divisor.coords)
        if self.chi != expected:
            raise ValueError(
                f"profile chi = {self.chi} but Riemann-Roch gives {expected}; "
                "inconsistent section dimensions"
            )

    @property
    def chi(self) -> int:
        return self.h0 - self.h1 + self.h2

    @property
    def virtual_dim(self) -> int:
        """(D.D - K.D)/2 of the divisor, read as chi - chi_h: construction
        has checked chi against Riemann-Roch, and the record is immutable,
        so no pairing runs."""
        return self.chi - self.divisor.lattice.chi_h


def serre_dual(p: CohomologyProfile) -> CohomologyProfile:
    """The dual profile: (h0, h1, h2) -> (h2, h1, h0) on the class K - D.

    Construction re-validates chi, so an inconsistent input is rejected
    rather than propagated.
    """
    x = p.divisor.lattice
    dual_coords = tuple(k - d for k, d in zip(x.canonical, p.divisor.coords))
    return CohomologyProfile(p.h2, p.h1, p.h0, HomologyClass(x, dual_coords))


def vanishing_profile(
    x: FourManifoldLattice,
    d: Sequence[int],
    h0_d: int,
    h0_k_minus_d: int,
) -> CohomologyProfile:
    """Close a profile from the two section dimensions, using vanishing.

    With b1 = 0, a nonempty linear system forces h1 = 0; when h0 = 0 the
    middle dimension is instead pinned by chi. Implied negative h1 means the
    supplied dimensions were inconsistent.
    """
    _require_ints((h0_d, h0_k_minus_d), "section dimensions must be integers")
    if x.b1 != 0:
        raise ValueError("vanishing closure needs b1 = 0")
    if h0_d < 0 or h0_k_minus_d < 0:
        raise ValueError("section dimensions must be nonnegative")
    h2 = h0_k_minus_d
    if h0_d > 0:
        h1 = 0
    else:
        h1 = h2 - riemann_roch_chi(x, d)
        if h1 < 0:
            raise ValueError(
                f"h0 = 0 and h2 = {h2} would need h1 = {h1} < 0; "
                "inconsistent section dimensions"
            )
    return CohomologyProfile(h0_d, h1, h2, HomologyClass(x, tuple(d)))


def gromov_invariant(p: CohomologyProfile) -> int:
    """Signed surface count of the profile's class through r generic points,
    r the virtual dimension (a.a - K.a)/2 that Riemann-Roch certified at
    construction (``p.virtual_dim``), so no pairing runs; a negative r raises.

    Evaluates binom(-(h2 - r), (h0 - 1) - r) with the negative-upper-index
    convention. An empty linear system (h0 = 0), or a lower index below
    zero, gives 0.
    """
    r = p.virtual_dim
    if r < 0:
        raise ValueError(f"virtual dimension {r} is negative")
    if p.h0 == 0:
        return 0
    lower = (p.h0 - 1) - r
    if lower < 0:
        return 0
    return binom(-(p.h2 - r), lower)


def duality_check(p: CohomologyProfile, r: int) -> bool:
    """Whether |count(D)| = |count(K - D)| at virtual dimension r.

    The one check of a caller's r: it must be the profile's certified
    virtual dimension, which K - D shares. The only pairings are the two of
    the Riemann-Roch check that builds the dual profile on K - D.
    """
    vd = p.virtual_dim
    if r != vd:
        raise ValueError(f"r = {r} but the divisor class has virtual dimension {vd}")
    return abs(gromov_invariant(p)) == abs(gromov_invariant(serre_dual(p)))


def gr_parity(n: int) -> int:
    """Parity (0 or 1) of binom(2n - 2, n - 1). Odd only at n = 1."""
    _require_ints((n,), "n must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    return binom(2 * n - 2, n - 1) % 2
