"""Exact arithmetic kernels: integer binomials, truncated power series, and
rational matrices with certified rank/kernel computation and their
characteristic polynomials.

Everything in this module is exact. Scalars are ``int`` or
``fractions.Fraction``; floats never enter. The rank routine runs a
fraction-free integer elimination and returns the kernel as primitive
integer vectors. Its result is certified from both sides, each from the
input matrix's own entries: every kernel vector is re-substituted into them
exactly, in integers (the upper bound), and an independent elimination of
them over a large prime field must reach the same rank (the lower bound).
It raises if either check fails.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]

# Mersenne primes used for the independent rank check. The second is only
# consulted if the first disagrees with the rational elimination or divides
# a denominator (a prime can be unlucky when it divides every maximal minor,
# so one retry is allowed before declaring the pipeline inconsistent).
_CHECK_PRIMES = (2**61 - 1, 2**31 - 1)


def binom(n: int, k: int) -> int:
    """Binomial coefficient ``C(n, k)`` for arbitrary integer ``n``.

    For ``n >= 0`` this is the usual count. For ``n < 0`` the reflection
    ``C(n, k) = (-1)**k * C(k - n - 1, k)`` applies, so that ``C(e, k)`` is
    the ``H**k`` coefficient of ``(1 + H)**e`` for every integer ``e``.
    A negative lower index gives 0.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k)
    sign = -1 if k % 2 else 1
    return sign * math.comb(k - n - 1, k)


class TruncatedSeries:
    """Formal power series in one variable, truncated below degree ``cap``.

    ``cap`` is the number of retained coefficients, i.e. degrees
    ``0 .. cap - 1``. Coefficients are stored as ``Fraction``.
    """

    __slots__ = ("cap", "coeffs")

    def __init__(self, coeffs: Iterable[Rational], cap: int):
        if cap < 1:
            raise ValueError("cap must be at least 1")
        cs = [Fraction(c) for c in coeffs][:cap]
        cs.extend([Fraction(0)] * (cap - len(cs)))
        self.cap = cap
        self.coeffs = cs

    @classmethod
    def one(cls, cap: int) -> "TruncatedSeries":
        return cls([1], cap)

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k < self.cap:
            raise IndexError(f"degree {k} outside truncation 0..{self.cap - 1}")
        return self.coeffs[k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cap == other.cap and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"TruncatedSeries({[str(c) for c in self.coeffs]}, cap={self.cap})"

    def _common_cap(self, other: "TruncatedSeries") -> int:
        if self.cap != other.cap:
            raise ValueError(f"truncation caps differ: {self.cap} vs {other.cap}")
        return self.cap

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        cap = self._common_cap(other)
        return TruncatedSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], cap
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        cap = self._common_cap(other)
        out = [Fraction(0)] * cap
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(cap - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return TruncatedSeries(out, cap)

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, defined when the constant term is nonzero."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no inverse")
        inv = [Fraction(0)] * self.cap
        inv[0] = Fraction(1) / c0
        for n in range(1, self.cap):
            acc = Fraction(0)
            for j in range(1, n + 1):
                if self.coeffs[j]:
                    acc += self.coeffs[j] * inv[n - j]
            inv[n] = -acc / c0
        return TruncatedSeries(inv, self.cap)

    def pow(self, exponent: int) -> "TruncatedSeries":
        """Integer power; negative exponents go through :meth:`inverse`."""
        if exponent < 0:
            return self.pow(-exponent).inverse()
        result = TruncatedSeries.one(self.cap)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


def series_geom_pow(exponent: int, cap: int) -> list[int]:
    """Coefficients of ``(1 + H)**exponent`` truncated to ``cap`` terms.

    Computed by truncated multiplication and exact series inversion,
    deliberately not through :func:`binom`, so the two routes stay
    independent and can cross-check each other.
    """
    series = TruncatedSeries([1, 1], cap).pow(exponent)
    out = []
    for c in series.coeffs:
        if c.denominator != 1:
            raise ArithmeticError("integer series produced a non-integer coefficient")
        out.append(c.numerator)
    return out


class RationalMatrix:
    """Dense matrix over the rationals, stored as tuples of ``Fraction`` rows.

    An entry whose type is exactly ``Fraction`` is kept as the same object;
    anything else (an ``int``, a ``bool``, a ``Fraction`` subclass) is
    converted with ``Fraction(x)``. ``Fraction`` is immutable, so sharing
    entries between matrices is safe, and products of matrices copy none.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        rs = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                   for row in rows)
        if not rs:
            raise ValueError("matrix needs at least one row")
        width = len(rs[0])
        if width == 0:
            raise ValueError("matrix needs at least one column")
        if any(len(r) != width for r in rs):
            raise ValueError("rows have unequal lengths")
        self.rows = rs

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def apply(self, vector: Sequence[Rational]) -> tuple[Fraction, ...]:
        """Matrix-vector product ``M v``."""
        if len(vector) != self.ncols:
            raise ValueError(f"vector length {len(vector)} != ncols {self.ncols}")
        vec = [x if type(x) is Fraction else Fraction(x) for x in vector]
        out = []
        for row in self.rows:
            acc = Fraction(0)
            for a, x in zip(row, vec):
                if a and x:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def matmul(self, other: "RationalMatrix") -> "RationalMatrix":
        """Matrix product ``self @ other``."""
        if self.ncols != other.nrows:
            raise ValueError(
                f"inner dimensions differ: {self.ncols} vs {other.nrows}"
            )
        cols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = Fraction(0)
                for a, b in zip(row, col):
                    if a and b:
                        acc += a * b
                out_row.append(acc)
            out.append(out_row)
        return RationalMatrix(out)

    @classmethod
    def identity(cls, n: int) -> "RationalMatrix":
        if n < 1:
            raise ValueError("identity needs positive size")
        one, zero = Fraction(1), Fraction(0)
        return cls(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


def char_poly(m: RationalMatrix) -> list[Fraction]:
    """Coefficients, constant first, of det(x I - M); always monic."""
    r = m.nrows
    coeffs = [Fraction(0)] * (r + 1)
    coeffs[r] = Fraction(1)
    work = RationalMatrix.identity(r)
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


def _cleared_integer_rows(m: RationalMatrix) -> list[list[int]]:
    """Scale each row to integers (by the lcm of denominators, then the gcd).

    Row scaling by nonzero rationals changes neither the rank nor the kernel.
    """
    rows = []
    for row in m.rows:
        denlcm = 1
        for x in row:
            d = x.denominator
            denlcm = denlcm * d // math.gcd(denlcm, d)
        ints = [(x * denlcm).numerator for x in row]
        g = 0
        for v in ints:
            g = math.gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        rows.append(ints)
    return rows


def _integer_echelon(
    rows: list[list[int]], ncols: int
) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free row echelon form of integer rows.

    Returns ``(rank, pivot_columns, echelon_rows)``. Cross-multiplication
    keeps everything integral; each updated row is divided by its gcd, which
    is what keeps entry growth under control.
    """
    work = [r[:] for r in rows if any(r)]
    pivots: list[int] = []
    ech: list[list[int]] = []
    col = 0
    while work and col < ncols:
        best = -1
        for i, r in enumerate(work):
            if r[col] and (best < 0 or abs(r[col]) < abs(work[best][col])):
                best = i
        if best < 0:
            col += 1
            continue
        pivot_row = work.pop(best)
        p = pivot_row[col]
        nxt = []
        for r in work:
            f = r[col]
            if f:
                r = [p * a - f * b for a, b in zip(r, pivot_row)]
                g = 0
                for v in r:
                    g = math.gcd(g, v)
                if g > 1:
                    r = [v // g for v in r]
                if any(r):
                    nxt.append(r)
            else:
                nxt.append(r)
        work = nxt
        ech.append(pivot_row)
        pivots.append(col)
        col += 1
    return len(pivots), pivots, ech


def _rows_mod_prime(
    entries: list[list[tuple[int, Fraction]]], ncols: int, p: int
) -> Optional[list[list[int]]]:
    """Dense rows of a matrix's own nonzero entries reduced mod p, or None
    when p divides a denominator.

    Reads nothing that the integer elimination produced, so a fault in
    clearing the rows to integers cannot reach the GF(p) rank.
    """
    inverses = {1: 1}
    rows = []
    for row in entries:
        rr = [0] * ncols
        for c, x in row:
            d = x.denominator
            inv = inverses.get(d)
            if inv is None:
                if d % p == 0:
                    return None
                inv = inverses[d] = pow(d, -1, p)
            rr[c] = x.numerator * inv % p
        rows.append(rr)
    return rows


def _rank_mod_prime(rows: list[list[int]], ncols: int, p: int) -> int:
    """Rank over GF(p), by ordinary Gaussian elimination, of integer rows
    already reduced mod p."""
    work = [r for r in rows if any(r)]
    rank = 0
    col = 0
    while work and col < ncols:
        pivot_idx = -1
        for i, r in enumerate(work):
            if r[col]:
                pivot_idx = i
                break
        if pivot_idx < 0:
            col += 1
            continue
        pr = work.pop(pivot_idx)
        inv = pow(pr[col], p - 2, p)
        pr = [(v * inv) % p for v in pr]
        nxt = []
        for r in work:
            f = r[col]
            if f:
                r = [(a - f * b) % p for a, b in zip(r, pr)]
                if any(r):
                    nxt.append(r)
            else:
                nxt.append(r)
        work = nxt
        rank += 1
        col += 1
    return rank


def _back_substituted(
    fc: int, bottom_up: list[tuple[int, int, list[tuple[int, int]]]], ncols: int
) -> tuple[int, ...]:
    """Primitive integer kernel vector of an echelon, with free column fc.

    bottom_up lists the echelon rows last first, each as its pivot column,
    its pivot and its ``(column, entry)`` nonzeros right of the pivot.
    A row is supported on columns from its pivot on, so solving bottom-up
    only ever consumes entries that are already fixed. Where the pivot does
    not divide, the partial vector is scaled by the smallest positive factor
    that makes it divide instead. The result is positive at fc and
    primitive: the new entry is coprime to that factor, so a gcd of 1
    survives each step.
    """
    x = [0] * ncols
    x[fc] = 1
    for pc, p, tail in bottom_up:
        acc = 0
        for c, a in tail:
            if x[c]:
                acc += a * x[c]
        if not acc:
            continue
        q, rem = divmod(acc, p)
        if rem:
            s = abs(p) // math.gcd(acc, p)
            x = [v * s for v in x]
            q = acc * s // p
        x[pc] = -q
    return tuple(x)


def _annihilates(
    entries: list[list[tuple[int, Fraction]]], basis: list[tuple[int, ...]]
) -> bool:
    """Whether every vector of basis is mapped to zero exactly by the
    matrix with these nonzero entries.

    Works from the matrix's own entries, each row scaled by the lcm of its
    denominators, so it shares nothing with the elimination it checks.
    """
    for row in entries:
        denlcm = 1
        for _, x in row:
            d = x.denominator
            denlcm = denlcm * d // math.gcd(denlcm, d)
        scaled = [(c, x.numerator * (denlcm // x.denominator))
                  for c, x in row]
        for v in basis:
            if sum(a * v[c] for c, a in scaled):
                return False
    return True


def rank_and_kernel(
    m: RationalMatrix,
) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and a kernel basis of ``m`` over the rationals.

    The rank comes from fraction-free integer elimination. Each kernel
    basis vector is a primitive integer tuple, read off the echelon by
    integer back-substitution, one per non-pivot column (where it is
    positive).

    Both bounds are then certified from ``m``'s own entries. Every vector
    is re-substituted exactly into them, which gives the upper bound, and a
    ``RuntimeError`` if any vector fails. Then an independent elimination
    of the entries reduced mod 2**61 - 1 must report the same rank, which
    gives the lower bound. On disagreement, or when the prime divides a
    denominator, a second prime is tried, and if that also fails a
    ``RuntimeError`` is raised (the finite-field rank can only undercount,
    so persistent disagreement means a real inconsistency).
    """
    ncols = m.ncols
    rank, pivots, ech = _integer_echelon(_cleared_integer_rows(m), ncols)
    bottom_up = [(pc, row[pc], [(c, row[c]) for c in range(pc + 1, ncols)
                                if row[c]])
                 for pc, row in zip(reversed(pivots), reversed(ech))]
    pivset = set(pivots)
    basis = [_back_substituted(fc, bottom_up, ncols)
             for fc in range(ncols) if fc not in pivset]
    # Both bounds read m's own nonzero entries, not the cleared rows.
    entries = [[(c, x) for c, x in enumerate(row) if x] for row in m.rows]
    if not _annihilates(entries, basis):
        raise RuntimeError("kernel vector failed exact re-substitution")
    for p in _CHECK_PRIMES:
        rows = _rows_mod_prime(entries, ncols, p)
        if rows is not None and _rank_mod_prime(rows, ncols, p) == rank:
            break
    else:
        raise RuntimeError(
            "rank mismatch between rational and finite-field elimination"
        )
    return rank, basis
