"""Exact arithmetic kernels: integer binomials, whose independent
integer-series oracle lives in ``tests/conftest.py``, and rational
matrices with certified rank/kernel computation.

Everything in this module is exact. Scalars are ``int`` or
``fractions.Fraction``; floats never enter. The package's two input rules
live here, and every module calls them: the entry rule ``_fraction`` (an
exact ``Fraction`` kept, an ``int`` or ``bool`` converted, anything else a
``TypeError``) and the exact-``int`` rule ``_require_ints`` (a ``bool``,
float, string or ``Fraction`` is a ``TypeError``, never truncated). Next
to them, the normal form ``_lowest`` holds a rational in lowest terms, as
an ``int`` whenever it is integral, after the entry rule.

One clearing rule (``_primitive``) and one fraction-free reducer
(``_insert``) build every integer echelon, the rank routine's and
``hilb.is_stable``'s, and ``_echelon_kernel`` reads the kernel off it as
primitive integer vectors. One verifier (``_certify``) checks a claimed
rank and basis from the input matrix's own rows, scaled to integers row by
row and kept as their ``(column, int)`` nonzeros, using none of that code:
the vectors must be independent over a large prime field and annihilated
exactly (the upper bound, through a column index of their nonzeros), and
the rows must reach the same rank over that field (the lower bound); both
ranks come from the sparse ``_rank_mod_prime``, apart from ``_insert``.
It raises if any check fails.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Sequence, Union

Rational = Union[int, Fraction]

# Mersenne primes for the verifier's GF(p) ranks, of the basis and of the
# rows. The second is consulted only if the first falls short: a prime can
# be unlucky and divide every maximal minor of the integer vectors or rows.
_CHECK_PRIMES = (2**61 - 1, 2**31 - 1)

# Exactly ``int``: ``bool`` is a subclass of it, and is not an integer here.
_INT = frozenset((int,))


def _fraction(x: Rational) -> Fraction:
    """The entry rule: an exact ``Fraction`` is returned as the same object,
    an ``int``, a ``bool`` or a ``Fraction`` subclass becomes a plain
    ``Fraction``, and any other entry (a float, a string) raises
    ``TypeError``. ``Fraction`` is immutable, so sharing is safe."""
    if type(x) is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"exact entries are int or Fraction, not {type(x).__name__}")


def _lowest(x: Rational) -> Rational:
    """The normal form of an exact rational, in lowest terms: an exact
    ``int`` is returned as it is, and any other entry goes through the
    entry rule :func:`_fraction`, so a float or string raises
    ``TypeError``, and comes back as an ``int`` when its denominator is 1.
    Integral data thus computes on plain ints."""
    if type(x) is int:
        return x
    q = _fraction(x)
    return q.numerator if q.denominator == 1 else q


def _require_ints(values: Iterable[object], message: str) -> None:
    """The exact-``int`` rule: raise ``TypeError(message)`` unless the type
    of every value is exactly ``int``."""
    if not _INT.issuperset(map(type, values)):
        raise TypeError(message)


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


class RationalMatrix:
    """Dense matrix over the rationals, stored as tuples of ``Fraction`` rows.

    Entries follow :func:`_fraction`, so an exact ``Fraction`` is kept as
    the same object and products of matrices copy no entry.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Rational]]):
        rs = tuple(tuple(map(_fraction, row)) for row in rows)
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
        vec = list(map(_fraction, vector))
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
    def diagonal(cls, entries: Sequence[Rational]) -> "RationalMatrix":
        """The square matrix with ``entries`` on its diagonal."""
        zero = Fraction(0)
        return cls([[x if i == j else zero for j in range(len(entries))]
                    for i, x in enumerate(entries)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)


def _primitive(values: Sequence[Rational]) -> list[int]:
    """The primitive integer vector on the ray of a rational vector (zero
    stays zero): each entry becomes ``numerator * (lcm // denominator)``,
    with no ``Fraction`` product, and the result is divided by its gcd."""
    denlcm = math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (denlcm // x.denominator) for x in values]
    g = math.gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def _insert(row: list[int], echelon: list[tuple[int, list[int]]]
            ) -> Optional[list[int]]:
    """Reduce row against the echelon, divide it by its gcd and insert it;
    return it, or None (echelon unchanged) when it reduces to zero.

    The echelon lists ``(pivot column, row)`` by increasing pivot, each row
    zero left of its pivot. Clearing a pivot column in that order touches
    only later columns, so the result is zero at every pivot column and its
    first nonzero column is a new pivot. The gcd division keeps entry
    growth under control.
    """
    for pc, e in echelon:
        f = row[pc]
        if f:
            p = e[pc]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            row = [p * a - f * b for a, b in zip(row, e)]
    g = math.gcd(*row)
    if not g:
        return None
    if g > 1:
        row = [a // g for a in row]
    insort(echelon, (next(c for c, a in enumerate(row) if a), row))
    return row


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


def _echelon_kernel(echelon: list[tuple[int, list[int]]], ncols: int
                    ) -> list[tuple[int, ...]]:
    """The primitive integer kernel vector of each non-pivot column of an
    echelon, as :func:`_insert` keeps it, by :func:`_back_substituted`."""
    bottom_up = [(pc, row[pc], [(c, row[c]) for c in range(pc + 1, ncols)
                                if row[c]])
                 for pc, row in reversed(echelon)]
    pivots = {pc for pc, _ in echelon}
    return [_back_substituted(fc, bottom_up, ncols)
            for fc in range(ncols) if fc not in pivots]


def _rank_mod_prime(rows: Iterable[Sequence[tuple[int, int]]], p: int) -> int:
    """Rank over GF(p) of integer rows given by their ``(column, entry)``
    nonzeros, by sparse elimination.

    The pivot rows are keyed by leading column and scaled to lead with 1.
    Each row is reduced mod p, then, while its leading column has a pivot
    row, that row's multiple is subtracted. What is left, if anything,
    becomes the pivot row of its leading column. Rows hold only their
    nonzeros, so the work is the nonzeros read plus the fill-in.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        work = {c: r for c, a in row if (r := a % p)}
        while work:
            lead = min(work)
            f = work[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(f, -1, p)
                pivots[lead] = {c: a * inv % p for c, a in work.items()}
                break
            for c, a in pivot.items():
                r = (work.get(c, 0) - f * a) % p
                if r:
                    work[c] = r
                else:
                    del work[c]
    return len(pivots)


def _certify(m: RationalMatrix, rank: int,
             basis: Sequence[Sequence[int]]) -> None:
    """Check that ``m`` has rank ``rank`` and that the integer vectors
    ``basis`` span its kernel; raise ``RuntimeError`` otherwise.

    Trusts nothing from the elimination that made the claim and accepts
    any basis of the kernel. The vectors, and the rows of ``m`` read once,
    each scaled to integers by the lcm of its denominators (which changes
    neither rank nor kernel), are kept as ``(column, entry)`` nonzeros. Then:

    - independence: there are ``ncols - rank`` vectors of length ``ncols``,
      and their rank over GF(p) is their number;
    - annihilation: every vector maps to zero exactly on the integer rows,
      through a column index of the vectors' nonzeros; with independence,
      this bounds the rank from above;
    - lower bound: the rank of the integer rows over GF(p) is ``rank``.

    Each GF(p) rank, from the sparse elimination :func:`_rank_mod_prime`
    and apart from :func:`_insert`, must hold for one of ``_CHECK_PRIMES``.
    It never exceeds the rational rank: an integer relation among vectors
    or rows, divided by its gcd, stays a nontrivial relation mod p.
    """
    ncols = m.ncols
    k = len(basis)
    if k != ncols - rank:
        raise RuntimeError(f"{k} kernel vectors for nullity {ncols - rank}")
    vectors = [[(c, v[c]) for c in compress(range(ncols), v)] for v in basis]
    if any(len(v) != ncols for v in basis) or all(
            _rank_mod_prime(vectors, p) != k for p in _CHECK_PRIMES):
        raise RuntimeError("kernel vectors are not independent")
    rows = []
    for row in m.rows:
        nonzero = [(c, x) for c, x in enumerate(row) if x]
        denlcm = 1
        for _, x in nonzero:
            d = x.denominator
            denlcm = denlcm * d // math.gcd(denlcm, d)
        rows.append([(c, x.numerator * (denlcm // x.denominator))
                     for c, x in nonzero])
    index: dict[int, list[tuple[int, int]]] = {}
    for i, v in enumerate(vectors):
        for c, x in v:
            index.setdefault(c, []).append((i, x))
    for row in rows:
        acc: dict[int, int] = {}
        for c, a in row:
            for i, x in index.get(c, ()):
                acc[i] = acc.get(i, 0) + a * x
        if any(acc.values()):
            raise RuntimeError("kernel vector failed exact re-substitution")
    for p in _CHECK_PRIMES:
        if _rank_mod_prime(rows, p) == rank:
            return
    raise RuntimeError(
        "rank mismatch between rational and finite-field elimination"
    )


def rank_and_kernel(
    m: RationalMatrix,
) -> tuple[int, list[tuple[int, ...]]]:
    """Exact rank and a kernel basis of ``m`` over the rationals.

    The rank comes from fraction-free integer elimination. Each kernel
    basis vector is a primitive integer tuple, read off the echelon by
    integer back-substitution, one per non-pivot column (where it is
    positive).

    The rank and the basis are then certified by :func:`_certify`, from
    ``m``'s own rows and none of the elimination, or ``RuntimeError`` is
    raised.
    """
    echelon: list[tuple[int, list[int]]] = []
    for row in m.rows:
        _insert(_primitive(row), echelon)
    basis = _echelon_kernel(echelon, m.ncols)
    _certify(m, len(echelon), basis)
    return len(echelon), basis
