"""Shared fixtures and sample generators for the test suite."""

from fractions import Fraction
from functools import lru_cache

import pytest

from sympencil.catalog import elliptic_like, spin_model
from sympencil.exact import RationalMatrix, _require_ints
from sympencil.gromov import CohomologyProfile
from sympencil.lattice import FourManifoldLattice, HomologyClass
from sympencil.pencil import build_pencil, fibre_degree


@pytest.fixture
def pairings(monkeypatch):
    """The ``(x, y)`` arguments of every ``FourManifoldLattice.pairing``
    call made while the test runs, in order."""
    calls = []
    pairing = FourManifoldLattice.pairing

    def counted(self, x, y):
        calls.append((x, y))
        return pairing(self, x, y)

    monkeypatch.setattr(FourManifoldLattice, "pairing", counted)
    return calls


@lru_cache(maxsize=None)
def elliptic(n: int):
    return elliptic_like(n)


@lru_cache(maxsize=None)
def spin(n: int):
    return spin_model(n)


def char_poly(m: RationalMatrix) -> list[Fraction]:
    """Coefficients, constant first, of det(x I - M); always monic. The
    Faddeev-LeVerrier recurrence, apart from every elimination in the
    package: the Descartes oracle of the signature tests reads it."""
    r = m.nrows
    coeffs = [Fraction(0)] * (r + 1)
    coeffs[r] = Fraction(1)
    work = RationalMatrix.diagonal([1] * r)
    for k in range(1, r + 1):
        prod = m.matmul(work)
        c = Fraction(-sum(prod.rows[i][i] for i in range(r)), k)
        coeffs[r - k] = c
        if k < r:
            work = RationalMatrix(
                [[prod.rows[i][j] + (c if i == j else 0) for j in range(r)]
                 for i in range(r)]
            )
    return coeffs


def descartes_inertia(rows) -> tuple[int, int, int]:
    """``(pos, neg, zero)`` of a symmetric matrix, read off the exact
    characteristic polynomial.

    A symmetric matrix has only real eigenvalues, so Descartes' rule of
    signs counts the positive roots exactly, and applied to p(-x) the
    negative ones; the zero eigenvalues are the vanishing low coefficients.
    Independent of the elimination it checks.
    """
    coeffs = char_poly(RationalMatrix(rows))
    zero = next(i for i, c in enumerate(coeffs) if c)
    rest = coeffs[zero:]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    neg = sign_changes([-c if k % 2 else c for k, c in enumerate(rest)])
    return sign_changes(rest), neg, zero


def _truncated_product(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer series of one length, truncated to it."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j, y in enumerate(b[:len(a) - i]):
            out[i + j] += x * y
    return out


def series_geom_pow(exponent: int, cap: int) -> list[int]:
    """Coefficients of ``(1 + H)**exponent`` truncated to ``cap`` terms.

    Binary powering of ``1 + H``, or of its inverse ``1 - H + H^2 - ...``
    for a negative exponent, by truncated integer products; deliberately
    not through ``exact.binom`` or ``math.comb``, so the two routes stay
    independent and can cross-check each other: the binomial oracle of
    the count and duality tests.
    """
    _require_ints((exponent, cap), "exponent and cap must be integers")
    if cap < 1:
        raise ValueError("cap must be at least 1")
    base = ([-1 if k % 2 else 1 for k in range(cap)] if exponent < 0
            else [1, 1][:cap] + [0] * (cap - 2))
    result = [1] + [0] * (cap - 1)
    e = abs(exponent)
    while e:
        if e & 1:
            result = _truncated_product(result, base)
        e >>= 1
        if e:
            base = _truncated_product(base, base)
    return result


def ratio_convergence(x, a, k_range) -> list[tuple[int, Fraction]]:
    """Table of (k, (2g - 2)/r) for the pencils of the given degrees.

    Exact rationals; the ratio tends to 1 because the genus grows
    quadratically while the twist contribution of the class is linear.
    """
    out = []
    for k in k_range:
        p = build_pencil(x, k)
        r = fibre_degree(p, a)
        if r == 0:
            raise ValueError(f"fibre degree vanishes at k = {k}; ratio undefined")
        out.append((k, Fraction(2 * p.genus - 2, r)))
    return out


# Classes of virtual dimension r on the elliptic-like lattices, written as
# (a, b) with a sitting at the first +1 slot and b at the first -1 slot:
# the virtual dimension is (a^2 - b^2 - 3a + b)/2.
CLASS_FOR_R = {0: (3, 0), 1: (4, 2), 2: (4, 1)}


def class_of_virtual_dim(x, n: int, r: int) -> HomologyClass:
    a, b = CLASS_FOR_R[r]
    coords = [0] * x.b2
    coords[0] = a
    coords[2 * n - 1] = b
    d = HomologyClass(x, tuple(coords))
    assert d.virtual_dim() == r
    return d


def profile_pair_sample(rng):
    """One random vanishing-regime profile together with its virtual dim.

    The regime matching the duality statement: h1 = 0 and chi_h >= r + 2,
    so that both the profile and its dual make sense as linear systems cut
    down by r point conditions.
    """
    r = rng.choice((0, 1, 2))
    n = rng.randint(r + 2, 12)
    x = elliptic(n)
    d = class_of_virtual_dim(x, n, r)
    chi = n + r
    h0 = rng.randint(0, chi)
    return CohomologyProfile(h0, 0, chi - h0, d), r


def spin_half_canonical_profile(n: int) -> CohomologyProfile:
    """The self-dual (n, 0, n) profile of K/2 on the spin model."""
    x = spin(n)
    half_k = tuple(c // 2 for c in x.canonical)
    return CohomologyProfile(n, 0, n, HomologyClass(x, half_k))
