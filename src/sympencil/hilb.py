"""Exact certification of commuting-matrix charts for length-r subschemes.

Clusters of r points on the affine plane are encoded by pairs of commuting
r x r matrices with a cyclic vector; clusters on a fibre of the map
(z, w) -> zw are encoded by pairs satisfying B1 B2 = lambda I = B2 B1 with
the same cyclicity condition.  The smoothness of the relative moduli space
reduces to a single finite claim: the differential of the defining
equations, the linear map

    (C1, C2, mu) -> (C1 B2 + B1 C2 - mu I, B2 C1 + C2 B1 - mu I),

has kernel of dimension exactly r^2 + 1 at every point, on every stratum
of the lambda = 0 fibre as well as off it.  This module samples each
stratum deterministically, assembles that differential as an exact
rational matrix, and certifies the kernel dimension by integer
elimination with a finite-field cross-check.  The cyclicity of v is
decided by growing its span under B1 and B2 in one integer echelon, and
that verdict too is certified, by a single rank call on the vectors the
echelon accepted and those it reduced to zero.
"""

from __future__ import annotations

import os
import random
from bisect import insort
from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Union

# rank_and_kernel is looked up on its module at each call, so a wrapper set
# there later (such as the benchmark's tracer) is seen from this module too.
from . import exact
from .exact import RationalMatrix, char_poly
from .record import Record
from .strata import MAX_R, MAX_SAMPLES, STRATA

Rational = Union[int, Fraction]
Vector = tuple[Fraction, ...]

# Sampler draws live in [-9, 9]: small enough that exact elimination on
# the assembled differentials stays cheap, generic enough to exercise
# each stratum.
_NONZERO_POOL = tuple(x for x in range(-9, 10) if x != 0)


def _as_vector(v: Sequence[Rational]) -> Vector:
    """v as a tuple of ``Fraction``, by the entry rule of ``RationalMatrix``."""
    return tuple(x if type(x) is Fraction else Fraction(x) for x in v)


def _check_model_shapes(b1: RationalMatrix, b2: RationalMatrix, v: Sequence,
                        r: int) -> None:
    if r < 1:
        raise ValueError("matrix size r must be positive")
    for name, m in (("B1", b1), ("B2", b2)):
        if m.nrows != r or m.ncols != r:
            raise ValueError(f"{name} is {m.nrows}x{m.ncols}, expected {r}x{r}")
    if len(v) != r:
        raise ValueError(f"cyclic vector has length {len(v)}, expected {r}")


def _diagonal(entries: Sequence[Rational]) -> RationalMatrix:
    n = len(entries)
    zero = Fraction(0)
    return RationalMatrix(
        [[Fraction(entries[i]) if i == j else zero for j in range(n)]
         for i in range(n)]
    )


def _is_scalar_matrix(m: RationalMatrix, scalar: Fraction) -> bool:
    for i, row in enumerate(m.rows):
        for j, entry in enumerate(row):
            if entry != (scalar if i == j else 0):
                return False
    return True


def _reduced(row: list[int], echelon: list[tuple[int, list[int]]]
             ) -> Optional[list[int]]:
    """row reduced against the echelon rows and divided by its gcd, or None
    when it reduces to zero.

    The echelon lists ``(pivot column, row)`` by increasing pivot, each row
    zero left of its pivot. Clearing a pivot column in that order touches
    only later columns, so every pivot column of the result is zero.
    """
    for pc, e in echelon:
        f = row[pc]
        if f:
            p = e[pc]
            g = gcd(p, f)
            p, f = p // g, f // g
            row = [p * a - f * b for a, b in zip(row, e)]
    g = gcd(*row)
    if not g:
        return None
    return row if g == 1 else [a // g for a in row]


def is_stable(b1: RationalMatrix, b2: RationalMatrix,
              v: Sequence[Rational]) -> bool:
    """Whether the smallest subspace containing v and preserved by both
    matrices is the whole space.

    The span grows in one integer echelon. Each queued vector is cleared by
    the lcm of its denominators, reduced against the echelon and
    gcd-normalised. A vector that survives is accepted, its primitive row
    joins the echelon and its nonzero images are queued; one that reduces
    to zero is spent. Growth stops when r vectors are accepted or the queue
    runs empty.

    The verdict is then certified by a single ``exact.rank_and_kernel``
    call on the accepted vectors together with the spent ones, which must
    have rank exactly the number accepted, or ``RuntimeError`` is raised.
    With r accepted, that rank proves stability. With fewer, every nonzero
    image of an accepted vector was accepted or spent, and the rank proves
    their span invariant: a proper subspace containing v.
    """
    r = b1.nrows
    _check_model_shapes(b1, b2, v, r)
    echelon: list[tuple[int, list[int]]] = []
    accepted: list[Vector] = []
    spent: list[Vector] = []
    queue = deque([_as_vector(v)])
    while queue and len(accepted) < r:
        w = queue.popleft()
        denlcm = lcm(*(x.denominator for x in w))
        row = _reduced([x.numerator * (denlcm // x.denominator) for x in w],
                       echelon)
        if row is None:
            spent.append(w)
            continue
        pivot = next(c for c, a in enumerate(row) if a)
        insort(echelon, (pivot, row))
        accepted.append(w)
        for image in (b1.apply(w), b2.apply(w)):
            if any(image):
                queue.append(image)
    rank, _ = exact.rank_and_kernel(RationalMatrix(accepted + spent))
    if rank != len(accepted):
        raise RuntimeError(
            f"certified rank {rank} of the span of v disagrees with the "
            f"{len(accepted)} vectors its integer echelon accepted"
        )
    return rank == r


class ADHMTriple(Record):
    """Commuting pair with cyclic vector: a length-r cluster on the plane."""

    __slots__ = ("b1", "b2", "v", "r")

    b1: RationalMatrix
    b2: RationalMatrix
    v: Vector
    r: int

    def __post_init__(self):
        object.__setattr__(self, "v", _as_vector(self.v))
        _check_model_shapes(self.b1, self.b2, self.v, self.r)
        if self.b1.matmul(self.b2) != self.b2.matmul(self.b1):
            raise ValueError("B1 and B2 do not commute")
        if not is_stable(self.b1, self.b2, self.v):
            raise ValueError("cyclic vector generates a proper invariant subspace")


class RelADHMQuad(Record):
    """Matrix point of the relative model: B1 B2 = lambda I = B2 B1 with
    a cyclic vector."""

    __slots__ = ("b1", "b2", "lam", "v", "r")

    b1: RationalMatrix
    b2: RationalMatrix
    lam: Fraction
    v: Vector
    r: int

    def __post_init__(self):
        object.__setattr__(self, "lam", Fraction(self.lam))
        object.__setattr__(self, "v", _as_vector(self.v))
        _check_model_shapes(self.b1, self.b2, self.v, self.r)
        if not _is_scalar_matrix(self.b1.matmul(self.b2), self.lam):
            raise ValueError("B1 B2 is not lambda times the identity")
        if not _is_scalar_matrix(self.b2.matmul(self.b1), self.lam):
            raise ValueError("B2 B1 is not lambda times the identity")
        if not is_stable(self.b1, self.b2, self.v):
            raise ValueError("cyclic vector generates a proper invariant subspace")


def sample_smooth_stratum(r: int, lam: Rational, seed: int) -> RelADHMQuad:
    """Generic point over lambda != 0: B1 a distinct-diagonal matrix,
    B2 = lambda * B1^{-1}, all-ones cyclic vector."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("smooth-stratum samples need lambda != 0")
    if r < 1:
        raise ValueError("matrix size r must be positive")
    if r > len(_NONZERO_POOL):
        raise ValueError(f"sampler supports r up to {len(_NONZERO_POOL)}")
    rng = random.Random(seed)
    zs = rng.sample(_NONZERO_POOL, r)
    b1 = _diagonal(zs)
    b2 = _diagonal([lam / z for z in zs])
    v = tuple(Fraction(1) for _ in range(r))
    return RelADHMQuad(b1, b2, lam, v, r)


def sample_singular_stratum(r: int, n: int, m: int, seed: int) -> RelADHMQuad:
    """Point of the lambda = 0 fibre in cyclic normal form.

    Basis: v, B1 v, ..., B1^n v, B2 v, ..., B2^m v with r = n + m + 1.
    B1 shifts along its chain and folds B1^{n+1} v back with coefficients
    (0, h_1, ..., h_n); B2 does the same on its chain with coefficients
    (0, H_1, ..., H_m).  The vanishing constant terms make both products
    zero, for any draw of the remaining coefficients.  n = 0 or m = 0
    degenerates to one matrix vanishing identically.
    """
    if n < 0 or m < 0:
        raise ValueError("chain lengths must be nonnegative")
    if n + m + 1 != r:
        raise ValueError(f"chain lengths ({n}, {m}) do not split r = {r}")
    rng = random.Random(seed)
    hs = [rng.randint(-9, 9) for _ in range(n)]
    caps = [rng.randint(-9, 9) for _ in range(m)]
    zero = Fraction(0)
    b1_rows = [[zero] * r for _ in range(r)]
    for i in range(1, n + 1):
        b1_rows[i][i - 1] = Fraction(1)
        b1_rows[i][n] = Fraction(hs[i - 1])
    b2_rows = [[zero] * r for _ in range(r)]
    if m > 0:
        b2_rows[n + 1][0] = Fraction(1)
        for j in range(1, m):
            b2_rows[n + j + 1][n + j] = Fraction(1)
        for j in range(1, m + 1):
            b2_rows[n + j][n + m] = Fraction(caps[j - 1])
    v = tuple(Fraction(1 if i == 0 else 0) for i in range(r))
    return RelADHMQuad(RationalMatrix(b1_rows), RationalMatrix(b2_rows),
                       Fraction(0), v, r)


def sample_b1zero_stratum(r: int, seed: int) -> RelADHMQuad:
    """Point with B1 identically zero and B2 an invertible cyclic
    operator (companion matrix with nonzero constant coefficient)."""
    if r < 1:
        raise ValueError("matrix size r must be positive")
    rng = random.Random(seed)
    const = rng.choice(_NONZERO_POOL)
    higher = [rng.randint(-9, 9) for _ in range(r - 1)]
    coeffs = [const] + higher
    zero = Fraction(0)
    b2_rows = [[zero] * r for _ in range(r)]
    for j in range(r - 1):
        b2_rows[j + 1][j] = Fraction(1)
    for i in range(r):
        b2_rows[i][r - 1] = Fraction(coeffs[i])
    b1 = RationalMatrix([[zero] * r for _ in range(r)])
    v = tuple(Fraction(1 if i == 0 else 0) for i in range(r))
    return RelADHMQuad(b1, RationalMatrix(b2_rows), Fraction(0), v, r)


def differential_matrix(q: RelADHMQuad) -> RationalMatrix:
    """Matrix of (C1, C2, mu) -> (C1 B2 + B1 C2 - mu I, B2 C1 + C2 B1 - mu I)
    in the entry basis: 2 r^2 rows, 2 r^2 + 1 columns.

    Columns order the entries of C1 row-major, then C2 row-major, then mu.
    """
    r = q.r
    rr = r * r
    b1 = q.b1.rows
    b2 = q.b2.rows
    rows = [[Fraction(0)] * (2 * rr + 1) for _ in range(2 * rr)]
    for i in range(r):
        for j in range(r):
            first = rows[i * r + j]
            second = rows[rr + i * r + j]
            for k in range(r):
                first[i * r + k] += b2[k][j]
                first[rr + k * r + j] += b1[i][k]
                second[k * r + j] += b2[i][k]
                second[rr + i * r + k] += b1[k][j]
            if i == j:
                first[2 * rr] = Fraction(-1)
                second[2 * rr] = Fraction(-1)
    return RationalMatrix(rows)


def kernel_dimension(q: RelADHMQuad) -> int:
    """Exact kernel dimension of the differential at q."""
    _, kernel = exact.rank_and_kernel(differential_matrix(q))
    return len(kernel)


def absolute_commutator_differential(t: ADHMTriple) -> RationalMatrix:
    """Matrix of (C1, C2) -> [C1, B2] + [B1, C2]: r^2 rows, 2 r^2 columns."""
    r = t.r
    rr = r * r
    b1 = t.b1.rows
    b2 = t.b2.rows
    rows = [[Fraction(0)] * (2 * rr) for _ in range(rr)]
    for i in range(r):
        for j in range(r):
            row = rows[i * r + j]
            for k in range(r):
                row[i * r + k] += b2[k][j]
                row[k * r + j] -= b2[i][k]
                row[rr + k * r + j] += b1[i][k]
                row[rr + i * r + k] -= b1[k][j]
    return RationalMatrix(rows)


def verify_absolute_cokernel(t: ADHMTriple) -> bool:
    """Certify the commutator map's constant corank r: its differential
    at t has rank r^2 - r."""
    rank, _ = exact.rank_and_kernel(absolute_commutator_differential(t))
    return rank == t.r * t.r - t.r


def sample_commuting_diagonal(r: int, seed: int) -> ADHMTriple:
    """Commuting stable pair: B1 with distinct diagonal entries, B2 an
    arbitrary diagonal, all-ones cyclic vector."""
    if r < 1:
        raise ValueError("matrix size r must be positive")
    if r > len(_NONZERO_POOL):
        raise ValueError(f"sampler supports r up to {len(_NONZERO_POOL)}")
    rng = random.Random(seed)
    b1 = _diagonal(rng.sample(_NONZERO_POOL, r))
    b2 = _diagonal([rng.randint(-9, 9) for _ in range(r)])
    v = tuple(Fraction(1) for _ in range(r))
    return ADHMTriple(b1, b2, v, r)


def _eval_poly(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: list[Fraction], z: Fraction) -> list[Fraction]:
    """Divide by (x - z); the remainder must vanish."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * n
    acc = coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = coeffs[k] + z * acc
    if acc != 0:
        raise ValueError("deflation by a non-root")
    return out


def _positive_divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _one_rational_root(coeffs: list[Fraction]) -> Optional[Fraction]:
    """A rational root of the monic polynomial, or None."""
    denom_lcm = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom_lcm) for c in coeffs]
    const, lead = ints[0], ints[-1]
    for p in _positive_divisors(const):
        for q in _positive_divisors(lead):
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if _eval_poly(coeffs, cand) == 0:
                    return cand
    return None


def support_points(q: RelADHMQuad) -> tuple[tuple[Fraction, Fraction], ...]:
    """The r point locations (z_i, w_i) cut out by a lambda != 0 quad,
    as a sorted multiset of eigenvalue pairs with z_i * w_i = lambda.

    Requires B1 diagonalizable over the rationals (the samplers
    guarantee it); anything else is rejected as unsupported.
    """
    if q.lam == 0:
        raise ValueError("support points are defined for lambda != 0 only")
    coeffs = char_poly(q.b1)
    multiplicities: dict[Fraction, int] = {}
    remaining = list(coeffs)
    while len(remaining) > 1:
        z = _one_rational_root(remaining)
        if z is None:
            raise ValueError(
                "unsupported: B1 has eigenvalues outside the rationals"
            )
        multiplicities[z] = multiplicities.get(z, 0) + 1
        remaining = _deflate(remaining, z)
    for z, mult in multiplicities.items():
        shifted = RationalMatrix(
            [[q.b1.rows[i][j] - (z if i == j else 0) for j in range(q.r)]
             for i in range(q.r)]
        )
        rank, _ = exact.rank_and_kernel(shifted)
        if q.r - rank != mult:
            raise ValueError(
                "unsupported: B1 is not diagonalizable over the rationals"
            )
    pairs = []
    for z, mult in multiplicities.items():
        pairs.extend([(z, q.lam / z)] * mult)
    return tuple(sorted(pairs))


class CertificationReport(Record):
    """Outcome of a sample-and-certify sweep over one stratum."""

    __slots__ = ("stratum", "r", "samples", "failures", "kernel_dims_observed",
                 "expected_kernel_dim", "passed")

    stratum: str
    r: int
    samples: int
    failures: int
    kernel_dims_observed: tuple[int, ...]
    expected_kernel_dim: int
    passed: bool


def _sample_for(stratum: str, r: int, seed: int, index: int) -> RelADHMQuad:
    s = seed + index
    if stratum == "smooth":
        lam = Fraction(random.Random(f"lam:{s}").choice(_NONZERO_POOL))
        return sample_smooth_stratum(r, lam, s)
    if stratum == "singular":
        n = index % r
        return sample_singular_stratum(r, n, r - 1 - n, s)
    if stratum == "b1zero":
        return sample_b1zero_stratum(r, s)
    raise ValueError(f"unknown stratum {stratum!r}; choose from {STRATA}")


def _certify_one(args: tuple[str, int, int, int]) -> tuple[int, int]:
    stratum, r, seed, index = args
    q = _sample_for(stratum, r, seed, index)
    return index, kernel_dimension(q)


def certify_stratum(stratum: str, r: int, samples: int, seed: int = 1729,
                    workers: int = 1) -> CertificationReport:
    """Sample the stratum `samples` times (seeds seed, seed+1, ...) and
    certify the kernel dimension at each point.

    Samples are independent, so any worker count yields the same report;
    results merge by sample index.  At most ``min(workers, cpu count,
    samples)`` worker processes run, and none when that is 1.  The
    singular stratum cycles through all chain splits (n, m) as the index
    advances.  ``r`` may be at most ``MAX_R`` and ``samples`` at most
    ``MAX_SAMPLES``; both are checked before anything is sampled.
    """
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}; choose from {STRATA}")
    if not 1 <= r <= MAX_R:
        raise ValueError(f"matrix size r must be between 1 and {MAX_R}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}")
    if workers < 1:
        raise ValueError("worker count must be positive")
    jobs = ((stratum, r, seed, i) for i in range(samples))
    workers = min(workers, os.cpu_count() or 1, samples)
    if workers > 1:
        # Imported here so that importing the package, and so every CLI
        # start, does not load the process-pool modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_certify_one, jobs))
    else:
        results = [_certify_one(job) for job in jobs]
    results.sort()
    dims = [dim for _, dim in results]
    expected = r * r + 1
    failures = sum(1 for dim in dims if dim != expected)
    return CertificationReport(
        stratum=stratum,
        r=r,
        samples=samples,
        failures=failures,
        kernel_dims_observed=tuple(sorted(set(dims))),
        expected_kernel_dim=expected,
        passed=failures == 0,
    )
