"""Standard example lattices and JSON (de)serialization of manifold files.

Manifold files are JSON objects with fields ``label``, ``b1``, ``Q`` (array
of arrays), ``K``, ``omega``, ``minimal``. Integers parse bit-exactly;
rational entries are written as ``"p/q"`` strings. ``STANDARD_BUILDERS``
is the catalog: it builds a handful of standard examples (projective plane,
quadric, K3, elliptic surfaces, a triple connected sum) from two lattice
families, odd diagonal forms and even sums of hyperbolic planes and -E8
blocks, which ``elliptic_like`` and ``spin_model`` also draw on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .exact import Rational, _require_ints
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


def _shown(value) -> str:
    """``repr(value)`` cut to 40 characters, for an error message."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def parse_rational(value: Union[int, str]) -> Fraction:
    """Bit-exact rational parsing into a ``Fraction``: an int converts
    exactly, and a string must match the manifold schema's omega pattern
    ``-?[0-9]+(/[0-9]+)?`` in full, with no more digits per part than
    ``int()`` converts."""
    if isinstance(value, bool):
        raise ValueError("booleans are not rational entries")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL_STRING.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            num, den = int(num), int(den or 1)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise ValueError(f"not a rational entry: {_shown(value)}") from None
        if den == 0:
            raise ValueError(f"zero denominator in rational entry {_shown(value)}")
        return Fraction(num, den)
    raise ValueError(f"not a rational entry: {_shown(value)}")


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

_NEG_E8 = negated(E8_GRAM)
_K3_BLOCKS = [HYPERBOLIC] * 3 + [_NEG_E8] * 2


def _diagonal(label: str, pos: int, neg: int, canonical,
              minimal: bool) -> FourManifoldLattice:
    """The odd form diag(+1 x pos, -1 x neg) with omega = e0."""
    n = pos + neg
    form = [[0] * n for _ in range(n)]
    for i in range(n):
        form[i][i] = 1 if i < pos else -1
    return FourManifoldLattice(
        label=label, b1=0, form=form, canonical=canonical,
        omega=[1] + [0] * (n - 1), minimal=minimal,
    )


def _even(label: str, blocks, canonical: dict) -> FourManifoldLattice:
    """The even, minimal direct sum of ``blocks`` (hyperbolic planes and -E8
    blocks, a hyperbolic plane first) with omega = e0 + e1, and K given by
    its nonzero entries ``{index: value}``."""
    form = block_diag(*blocks)
    n = len(form)
    k = [0] * n
    for i, v in canonical.items():
        k[i] = v
    omega = [1, 1] + [0] * (n - 2)
    return FourManifoldLattice(
        label=label, b1=0, form=form, canonical=k, omega=omega, minimal=True
    )


def elliptic_like(n: int) -> FourManifoldLattice:
    """Odd-form model with chi_h = n, K.K = 0, K.omega = 3: the numerology
    of a relatively minimal elliptic surface without multiple fibres.

    Form diag(+1 x (2n-1), -1 x (10n-1)); K has n threes, then ones.
    """
    _require_ints((n,), "n must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    return _diagonal(f"elliptic_like_{n}", 2 * n - 1, 10 * n - 1,
                     [3] * n + [1] * (11 * n - 2), minimal=(n >= 2))


def spin_model(n: int) -> FourManifoldLattice:
    """Even-form model with b+ = 4n - 1, K.K = 0, chi_h = 2n: the
    numerology of a spin elliptic surface with canonical class twice a
    primitive square-zero vector."""
    _require_ints((n,), "n must be an integer")
    if n < 1:
        raise ValueError("n must be at least 1")
    # K is twice the first isotropic basis vector.
    return _even(f"spin_model_{n}",
                 [HYPERBOLIC] * (4 * n - 1) + [_NEG_E8] * (2 * n), {0: 2})


def _relabel(x: FourManifoldLattice, label: str) -> FourManifoldLattice:
    return FourManifoldLattice(label, x.b1, x.form, x.canonical, x.omega,
                               x.minimal)


# e1 is the plane blown up nine times, fibred by cubics. k3_sum3 is the
# connected sum of three K3 lattices, declared minimal: K = 0 would fail
# K.K = 2e + 3sigma = -8, so K is twice a -2 vector, the first basis vector
# of the first -E8 block, which is characteristic in this even form and has
# the right square. Validation passes while the minimality inequality fails.
STANDARD_BUILDERS = {
    "cp2": lambda: _diagonal("cp2", 1, 0, [-3], minimal=True),
    "s2xs2": lambda: _even("s2xs2", [HYPERBOLIC], {0: -2, 1: -2}),
    "k3": lambda: _even("k3", _K3_BLOCKS, {}),
    "k3_sum3": lambda: _even("k3_sum3", _K3_BLOCKS * 3, {6: 2}),
    "e1": lambda: _diagonal("e1", 1, 9, [-3] + [1] * 9, minimal=False),
    "e3": lambda: _relabel(elliptic_like(3), "e3"),
    "e4": lambda: _relabel(spin_model(2), "e4"),
}
