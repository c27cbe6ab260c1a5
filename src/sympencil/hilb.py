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
that same echelon's kernel certifies the verdict, through ``exact``'s
verifier, on the vectors it accepted and those it reduced to zero.
"""

from __future__ import annotations

import os
import random
from collections import deque
from fractions import Fraction
from typing import Sequence

# rank_and_kernel is looked up on its module at each call, so a wrapper set
# there later (such as the benchmark's tracer) is seen from this module too.
from . import exact
from .exact import Rational, RationalMatrix
from .record import Record
from .strata import MAX_R, MAX_SAMPLES, STRATA

Vector = tuple[Fraction, ...]

# Sampler draws live in [-9, 9]: small enough that exact elimination on
# the assembled differentials stays cheap, generic enough to exercise
# each stratum.
_NONZERO_POOL = tuple(x for x in range(-9, 10) if x != 0)


def _signed_bytes(s: int) -> bytes:
    """Two's-complement bytes of s: a seed with its sign and no digit limit."""
    return s.to_bytes((s.bit_length() + 8) // 8, "big", signed=True)


def _rng(seed: int) -> random.Random:
    """Negative seeds go in as bytes: ``random.Random(n)`` seeds by abs(n)."""
    return random.Random(seed if seed >= 0 else _signed_bytes(seed))


def _check_model_shapes(b1: RationalMatrix, b2: RationalMatrix, v: Sequence,
                        r: int) -> None:
    if r < 1:
        raise ValueError("matrix size r must be positive")
    for name, m in (("B1", b1), ("B2", b2)):
        if m.nrows != r or m.ncols != r:
            raise ValueError(f"{name} is {m.nrows}x{m.ncols}, expected {r}x{r}")
    if len(v) != r:
        raise ValueError(f"cyclic vector has length {len(v)}, expected {r}")


def is_stable(b1: RationalMatrix, b2: RationalMatrix,
              v: Sequence[Rational]) -> bool:
    """Whether the smallest subspace containing v and preserved by both
    matrices is the whole space.

    The span grows in one integer echelon, by ``exact``'s clearing rule and
    reducer. A queued vector that survives is accepted, its primitive row
    joins the echelon and its nonzero images are queued; one that reduces
    to zero is spent. Growth stops when r vectors are accepted or the queue
    runs empty.

    That echelon is the one certified: ``exact._certify`` checks its kernel
    on the accepted and spent vectors, claiming as rank the number
    accepted, which the verdict uses, or raises ``RuntimeError``. With r
    accepted, that rank proves stability. With fewer, every nonzero image
    of an accepted vector was accepted or spent, and the rank proves their
    span invariant: a proper subspace containing v.
    """
    r = b1.nrows
    _check_model_shapes(b1, b2, v, r)
    echelon: list[tuple[int, list[int]]] = []
    accepted: list[Vector] = []
    spent: list[Vector] = []
    queue = deque([tuple(map(exact._fraction, v))])
    while queue and len(accepted) < r:
        w = queue.popleft()
        if exact._insert(exact._primitive(w), echelon) is None:
            spent.append(w)
            continue
        accepted.append(w)
        for image in (b1.apply(w), b2.apply(w)):
            if any(image):
                queue.append(image)
    exact._certify(RationalMatrix(accepted + spent), len(accepted),
                   exact._echelon_kernel(echelon, r))
    return len(accepted) == r


class ADHMTriple(Record):
    """Commuting pair with cyclic vector: a length-r cluster on the plane."""

    __slots__ = ("b1", "b2", "v", "r")

    b1: RationalMatrix
    b2: RationalMatrix
    v: Vector
    r: int

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(map(exact._fraction, self.v)))
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
        object.__setattr__(self, "lam", exact._fraction(self.lam))
        object.__setattr__(self, "v", tuple(map(exact._fraction, self.v)))
        _check_model_shapes(self.b1, self.b2, self.v, self.r)
        scalar = RationalMatrix.diagonal([self.lam] * self.r)
        if self.b1.matmul(self.b2) != scalar:
            raise ValueError("B1 B2 is not lambda times the identity")
        if self.b2.matmul(self.b1) != scalar:
            raise ValueError("B2 B1 is not lambda times the identity")
        if not is_stable(self.b1, self.b2, self.v):
            raise ValueError("cyclic vector generates a proper invariant subspace")


def sample_smooth_stratum(r: int, lam: Rational, seed: int) -> RelADHMQuad:
    """Generic point over lambda != 0: B1 a distinct-diagonal matrix,
    B2 = lambda * B1^{-1}, all-ones cyclic vector."""
    exact._require_ints((r, seed), "r and seed must be integers")
    lam = exact._fraction(lam)
    if lam == 0:
        raise ValueError("smooth-stratum samples need lambda != 0")
    if r < 1:
        raise ValueError("matrix size r must be positive")
    if r > len(_NONZERO_POOL):
        raise ValueError(f"sampler supports r up to {len(_NONZERO_POOL)}")
    zs = _rng(seed).sample(_NONZERO_POOL, r)
    b1 = RationalMatrix.diagonal(zs)
    b2 = RationalMatrix.diagonal([lam / z for z in zs])
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
    exact._require_ints((r, n, m, seed), "r, n, m and seed must be integers")
    if n < 0 or m < 0:
        raise ValueError("chain lengths must be nonnegative")
    if n + m + 1 != r:
        raise ValueError(f"chain lengths ({n}, {m}) do not split r = {r}")
    rng = _rng(seed)
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
    exact._require_ints((r, seed), "r and seed must be integers")
    if r < 1:
        raise ValueError("matrix size r must be positive")
    rng = _rng(seed)
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


def _product_rows(b1: Sequence[Vector], b2: Sequence[Vector]
                  ) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Rows of (C1, C2) -> C1 B2 + B1 C2 and of (C1, C2) -> B2 C1 + C2 B1,
    for the rows b1 and b2 of r x r matrices, in the entry basis: r^2 rows
    each, 2 r^2 columns.

    Row i r + j is the (i, j) entry of the image; columns order the entries
    of C1 row-major, then C2 row-major.
    """
    r = len(b1)
    rr = r * r
    zero = Fraction(0)
    first = [[zero] * (2 * rr) for _ in range(rr)]
    second = [[zero] * (2 * rr) for _ in range(rr)]
    for i in range(r):
        for j in range(r):
            f = first[i * r + j]
            s = second[i * r + j]
            for k in range(r):
                f[i * r + k] += b2[k][j]
                f[rr + k * r + j] += b1[i][k]
                s[k * r + j] += b2[i][k]
                s[rr + i * r + k] += b1[k][j]
    return first, second


def differential_matrix(q: RelADHMQuad) -> RationalMatrix:
    """Matrix of (C1, C2, mu) -> (C1 B2 + B1 C2 - mu I, B2 C1 + C2 B1 - mu I)
    in the entry basis: 2 r^2 rows, 2 r^2 + 1 columns.

    Columns order the entries of C1 row-major, then C2 row-major, then mu.
    """
    first, second = _product_rows(q.b1.rows, q.b2.rows)
    diagonal = range(0, q.r * q.r, q.r + 1)
    minus_one, zero = Fraction(-1), Fraction(0)
    for rows in (first, second):
        for n, row in enumerate(rows):
            row.append(minus_one if n in diagonal else zero)
    return RationalMatrix(first + second)


def kernel_dimension(q: RelADHMQuad) -> int:
    """Exact kernel dimension of the differential at q."""
    _, kernel = exact.rank_and_kernel(differential_matrix(q))
    return len(kernel)


def absolute_commutator_differential(t: ADHMTriple) -> RationalMatrix:
    """Matrix of (C1, C2) -> [C1, B2] + [B1, C2]: r^2 rows, 2 r^2 columns,
    the difference of the two maps of :func:`_product_rows`."""
    first, second = _product_rows(t.b1.rows, t.b2.rows)
    return RationalMatrix([[a - b if b else a for a, b in zip(f, s)]
                           for f, s in zip(first, second)])


def verify_absolute_cokernel(t: ADHMTriple) -> bool:
    """Certify the commutator map's constant corank r: its differential
    at t has rank r^2 - r."""
    rank, _ = exact.rank_and_kernel(absolute_commutator_differential(t))
    return rank == t.r * t.r - t.r


def sample_commuting_diagonal(r: int, seed: int) -> ADHMTriple:
    """Commuting stable pair: B1 with distinct diagonal entries, B2 an
    arbitrary diagonal, all-ones cyclic vector."""
    exact._require_ints((r, seed), "r and seed must be integers")
    if r < 1:
        raise ValueError("matrix size r must be positive")
    if r > len(_NONZERO_POOL):
        raise ValueError(f"sampler supports r up to {len(_NONZERO_POOL)}")
    rng = _rng(seed)
    b1 = RationalMatrix.diagonal(rng.sample(_NONZERO_POOL, r))
    b2 = RationalMatrix.diagonal([rng.randint(-9, 9) for _ in range(r)])
    v = tuple(Fraction(1) for _ in range(r))
    return ADHMTriple(b1, b2, v, r)


class CertificationReport(Record):
    """Outcome of a sample-and-certify sweep over one stratum.
    ``failing_samples`` holds ``(index, seed, kernel_dim)`` for each sample
    whose kernel dimension is not the expected one, in index order; a run
    of one sample from that seed redraws it, on every stratum."""

    __slots__ = ("stratum", "r", "samples", "failures", "kernel_dims_observed",
                 "expected_kernel_dim", "passed", "failing_samples")

    stratum: str
    r: int
    samples: int
    failures: int
    kernel_dims_observed: tuple[int, ...]
    expected_kernel_dim: int
    passed: bool
    failing_samples: tuple[tuple[int, int, int], ...]


def _sample_for(stratum: str, r: int, s: int) -> RelADHMQuad:
    if stratum == "smooth":
        key = b"lam:" + _signed_bytes(s)
        lam = Fraction(random.Random(key).choice(_NONZERO_POOL))
        return sample_smooth_stratum(r, lam, s)
    if stratum == "singular":
        n = s % r
        return sample_singular_stratum(r, n, r - 1 - n, s)
    if stratum == "b1zero":
        return sample_b1zero_stratum(r, s)
    raise ValueError(f"unknown stratum {stratum!r}; choose from {STRATA}")


def _certify_one(args: tuple[str, int, int]) -> int:
    return kernel_dimension(_sample_for(*args))


def certify_stratum(stratum: str, r: int, samples: int, seed: int = 1729,
                    workers: int = 1) -> CertificationReport:
    """Sample the stratum `samples` times (seeds seed, seed+1, ...) and
    certify the kernel dimension at each point.

    Each sample is drawn from its seed alone, so any worker count yields
    the same report and sample i is the one sample of a run from seed + i.
    The singular chain split (n, m) cycles as the seed advances, so any r
    consecutive seeds cover every split.  At most ``min(workers, usable
    CPUs, samples)`` worker processes run, and none when that is 1; the
    usable CPUs are the process's affinity set where the platform reports
    one, and the host's CPU count otherwise.
    ``r`` may be at most ``MAX_R`` and ``samples`` at most ``MAX_SAMPLES``;
    both are checked before anything is sampled, and all four integer
    arguments must be exactly ``int`` (``TypeError``).
    """
    if stratum not in STRATA:
        raise ValueError(f"unknown stratum {stratum!r}; choose from {STRATA}")
    exact._require_ints((r, samples, seed, workers),
                        "r, samples, seed and workers must be integers")
    if not 1 <= r <= MAX_R:
        raise ValueError(f"matrix size r must be between 1 and {MAX_R}")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"samples must be between 1 and {MAX_SAMPLES}")
    if workers < 1:
        raise ValueError("worker count must be positive")
    jobs = ((stratum, r, seed + i) for i in range(samples))
    # The CPUs this process may run on, which taskset or a container's
    # cpuset can make fewer than the host's.
    usable = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
    workers = min(workers, usable, samples)
    if workers > 1:
        # Imported here so that importing the package, and so every CLI
        # start, does not load the process-pool modules.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            dims = list(pool.map(_certify_one, jobs))
    else:
        dims = [_certify_one(job) for job in jobs]
    expected = r * r + 1
    failing = tuple((i, seed + i, dim) for i, dim in enumerate(dims)
                    if dim != expected)
    return CertificationReport(
        stratum=stratum,
        r=r,
        samples=samples,
        failures=len(failing),
        kernel_dims_observed=tuple(sorted(set(dims))),
        expected_kernel_dim=expected,
        passed=not failing,
        failing_samples=failing,
    )
