"""Standard example lattices and JSON (de)serialization of manifold files.

Manifold files are JSON objects with fields ``label``, ``b1``, ``Q`` (array
of arrays), ``K``, ``omega``, ``minimal``. Integers parse bit-exactly;
rational entries are written as ``"p/q"`` strings. ``STANDARD_BUILDERS``
is the catalog: it builds a handful of standard examples (projective plane,
quadric, K3, elliptic surfaces, a triple connected sum) from the generator
functions below, which also give whole families of them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .exact import Rational
from .lattice import FourManifoldLattice

HYPERBOLIC = ((0, 1), (1, 0))

# Gram matrix of the E8 root lattice: chain 0..6 with node 7 attached to
# node 4, giving branch arms of lengths 4, 2, 1. Positive definite, even,
# determinant 1.
E8_GRAM = (
    (2, -1, 0, 0, 0, 0, 0, 0),
    (-1, 2, -1, 0, 0, 0, 0, 0),
    (0, -1, 2, -1, 0, 0, 0, 0),
    (0, 0, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, -1),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, 0),
    (0, 0, 0, 0, -1, 0, 0, 2),
)


def negated(gram):
    return tuple(tuple(-x for x in row) for row in gram)


def block_diag(*blocks):
    """Direct sum of square integer blocks."""
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        k = len(b)
        for i in range(k):
            for j in range(k):
                out[offset + i][offset + j] = b[i][j]
        offset += k
    return tuple(tuple(row) for row in out)


# The omega string pattern of data/manifold.schema.json. [0-9] is ASCII
# only, unlike int(), which also takes other digits, signs, spaces and "_".
_RATIONAL_STRING = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_rational(value: Union[int, str]) -> Fraction:
    """Bit-exact rational parsing: ints stay ints, and a string must match
    the manifold schema's omega pattern ``-?[0-9]+(/[0-9]+)?`` in full."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rational entries")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_STRING.fullmatch(value):
        num, _, den = value.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"zero denominator in rational entry {value!r}")
        return Fraction(int(num), int(den or 1))
    raise ValueError(f"not a rational entry: {value!r}")


def format_rational(q: Rational) -> Union[int, str]:
    """The JSON form of an exact rational, the inverse of
    :func:`parse_rational`: an int, or ``"p/q"`` for a non-integer."""
    q = Fraction(q)
    if q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}"


def manifold_fields(data: dict) -> dict:
    """Shape-check a manifold dict and return constructor keywords.

    Only the file format is validated here. The constructor checks the
    entry types of ``Q`` and ``K`` (``TypeError``) and then the lattice
    invariants (``ValueError``), so callers can tell a malformed file apart
    from a well-formed one describing an invalid lattice.
    """
    if not isinstance(data, dict):
        raise ValueError("manifold file must contain a JSON object")
    missing = {"label", "b1", "Q", "K", "omega", "minimal"} - set(data)
    if missing:
        raise ValueError(f"manifold file missing fields: {sorted(missing)}")
    if not isinstance(data["label"], str):
        raise ValueError("'label' must be a string")
    if not isinstance(data["minimal"], bool):
        raise ValueError("'minimal' must be a boolean")
    if not isinstance(data["b1"], int) or isinstance(data["b1"], bool):
        raise ValueError("'b1' must be an integer")
    form = data["Q"]
    canonical = data["K"]
    if not isinstance(form, list) or any(not isinstance(r, list) for r in form):
        raise ValueError("'Q' must be an array of arrays")
    if not isinstance(canonical, list) or not isinstance(data["omega"], list):
        raise ValueError("'K' and 'omega' must be arrays")
    omega = [parse_rational(x) for x in data["omega"]]
    return {
        "label": data["label"],
        "b1": data["b1"],
        "form": form,
        "canonical": canonical,
        "omega": omega,
        "minimal": data["minimal"],
    }


def lattice_from_dict(data: dict) -> FourManifoldLattice:
    """Parse a manifold dict; every error, a malformed file or an invalid
    lattice, is a ``ValueError``."""
    fields = manifold_fields(data)
    try:
        return FourManifoldLattice(**fields)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


def lattice_to_dict(x: FourManifoldLattice) -> dict:
    return {
        "label": x.label,
        "b1": x.b1,
        "Q": [list(row) for row in x.form],
        "K": list(x.canonical),
        "omega": [format_rational(q) for q in x.omega],
        "minimal": x.minimal,
    }


# -- generator families -----------------------------------------------------


def projective_plane() -> FourManifoldLattice:
    return FourManifoldLattice(
        label="cp2", b1=0, form=[[1]], canonical=[-3], omega=[1], minimal=True
    )


def quadric() -> FourManifoldLattice:
    return FourManifoldLattice(
        label="s2xs2",
        b1=0,
        form=HYPERBOLIC,
        canonical=[-2, -2],
        omega=[1, 1],
        minimal=True,
    )


def k3_surface() -> FourManifoldLattice:
    form = block_diag(HYPERBOLIC, HYPERBOLIC, HYPERBOLIC, negated(E8_GRAM), negated(E8_GRAM))
    n = len(form)
    omega = [0] * n
    omega[0] = omega[1] = 1
    return FourManifoldLattice(
        label="k3", b1=0, form=form, canonical=[0] * n, omega=omega, minimal=True
    )


def k3_triple_sum() -> FourManifoldLattice:
    """Connected sum of three K3 lattices, declared minimal.

    K = 0 fails K.K = 2e + 3sigma = -8 here, so the canonical vector is
    taken to be twice a square -2 vector in the first -E8 summand, which is
    characteristic in this even lattice and has the right square. The point
    of the entry is that validation passes while the minimality inequality
    fails.
    """
    one = (HYPERBOLIC, HYPERBOLIC, HYPERBOLIC, negated(E8_GRAM), negated(E8_GRAM))
    form = block_diag(*(one * 3))
    n = len(form)
    canonical = [0] * n
    canonical[6] = 2  # first basis vector of the first -E8 block
    omega = [0] * n
    omega[0] = omega[1] = 1
    return FourManifoldLattice(
        label="k3_sum3", b1=0, form=form, canonical=canonical, omega=omega, minimal=True
    )


def rational_elliptic() -> FourManifoldLattice:
    """The plane blown up nine times, fibred by cubics; b- = 9."""
    form = block_diag([[1]], *([[-1]] for _ in range(9)))
    canonical = [-3] + [1] * 9
    omega = [1] + [0] * 9
    return FourManifoldLattice(
        label="e1", b1=0, form=form, canonical=canonical, omega=omega, minimal=False
    )


def elliptic_like(n: int) -> FourManifoldLattice:
    """Odd-form model with chi_h = n, K.K = 0, K.omega = 3: the numerology
    of a relatively minimal elliptic surface without multiple fibres.

    Form diag(+1 x (2n-1), -1 x (10n-1)); K has n threes, then ones.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    pos, neg = 2 * n - 1, 10 * n - 1
    form = [[0] * (pos + neg) for _ in range(pos + neg)]
    for i in range(pos):
        form[i][i] = 1
    for i in range(pos, pos + neg):
        form[i][i] = -1
    canonical = [3] * n + [1] * (n - 1) + [1] * neg
    omega = [1] + [0] * (pos + neg - 1)
    return FourManifoldLattice(
        label=f"elliptic_like_{n}",
        b1=0,
        form=form,
        canonical=canonical,
        omega=omega,
        minimal=(n >= 2),
    )


def spin_model(n: int) -> FourManifoldLattice:
    """Even-form model with b+ = 4n - 1, K.K = 0, chi_h = 2n: the
    numerology of a spin elliptic surface with canonical class twice a
    primitive square-zero vector."""
    if n < 1:
        raise ValueError("n must be at least 1")
    blocks = [HYPERBOLIC] * (4 * n - 1) + [negated(E8_GRAM)] * (2 * n)
    form = block_diag(*blocks)
    size = len(form)
    canonical = [0] * size
    canonical[0] = 2  # twice the first isotropic basis vector
    omega = [0] * size
    omega[0] = omega[1] = 1
    return FourManifoldLattice(
        label=f"spin_model_{n}",
        b1=0,
        form=form,
        canonical=canonical,
        omega=omega,
        minimal=True,
    )


STANDARD_BUILDERS = {
    "cp2": projective_plane,
    "s2xs2": quadric,
    "k3": k3_surface,
    "k3_sum3": k3_triple_sum,
    "e1": rational_elliptic,
    "e3": lambda: _relabel(elliptic_like(3), "e3"),
    "e4": lambda: _relabel(spin_model(2), "e4"),
}


def _relabel(x: FourManifoldLattice, label: str) -> FourManifoldLattice:
    return FourManifoldLattice(
        label=label,
        b1=x.b1,
        form=x.form,
        canonical=x.canonical,
        omega=x.omega,
        minimal=x.minimal,
        _signature=(x.b_plus, x.b_minus),
    )
