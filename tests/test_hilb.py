"""Commuting-matrix models: stability, stratum samplers, and exact
certification of the differential's kernel dimension."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympencil import exact, hilb
from sympencil.exact import RationalMatrix, rank_and_kernel
from sympencil.hilb import (
    ADHMTriple,
    CertificationReport,
    RelADHMQuad,
    absolute_commutator_differential,
    certify_stratum,
    differential_matrix,
    is_stable,
    kernel_dimension,
    sample_b1zero_stratum,
    sample_commuting_diagonal,
    sample_singular_stratum,
    sample_smooth_stratum,
    support_points,
    verify_absolute_cokernel,
)
from sympencil.strata import MAX_R, MAX_SAMPLES


def diag(*entries):
    n = len(entries)
    return RationalMatrix(
        [[Fraction(entries[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    )


def zeros(n):
    return RationalMatrix([[Fraction(0)] * n for _ in range(n)])


class TestIsStable:
    def test_rank_one_nonzero_vector(self):
        assert is_stable(diag(3), diag(5), (1,))

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_zero_vector_never_stable(self, r):
        assert not is_stable(zeros(r), zeros(r), (0,) * r)

    def test_two_coordinate_example(self):
        b1 = diag(1, 2)
        b2 = diag(2, 1)  # lambda = 2 over z = (1, 2)
        assert is_stable(b1, b2, (1, 1))
        assert not is_stable(b1, b2, (1, 0))

    def test_nilpotent_chain_reaches_everything(self):
        # B1 shifts e0 -> e1 -> e2; v = e0 is cyclic even with B2 = 0.
        b1 = RationalMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert is_stable(b1, zeros(3), (1, 0, 0))
        assert not is_stable(b1, zeros(3), (0, 1, 0))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            is_stable(diag(1, 2), diag(1), (1, 1))
        with pytest.raises(ValueError):
            is_stable(diag(1, 2), diag(3, 4), (1,))

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_coordinate_subspace_enumeration(self, r, seed):
        # For distinct diagonal pairs the invariant subspaces are exactly
        # the coordinate ones, so stability means: no proper coordinate
        # subspace contains v.
        import random

        rng = random.Random(seed)
        b1 = diag(*rng.sample(range(1, 10), r))
        b2 = diag(*[rng.randint(-4, 4) for _ in range(r)])
        v = tuple(rng.choice([0, 0, 1, 2, -1]) for _ in range(r))
        in_proper_coordinate_subspace = any(
            all(v[i] == 0 for i in range(r) if i not in kept)
            for size in range(r)
            for kept in itertools.combinations(range(r), size)
        )
        assert is_stable(b1, b2, v) == (not in_proper_coordinate_subspace)


def _words_below(b1, b2, v, r):
    """Every w(B1, B2) v over the words w of length less than r."""
    level = [tuple(Fraction(x) for x in v)]
    out = list(level)
    for _ in range(r - 1):
        level = [m.apply(w) for w in level for m in (b1, b2)]
        out.extend(level)
    return out


def _elementary(r, i, j, c):
    """I + c E_ij, whose inverse is I - c E_ij."""
    return RationalMatrix([[int(a == b) + (c if (a, b) == (i, j) else 0)
                            for b in range(r)] for a in range(r)])


_ENTRY = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _dense_triples(draw):
    """A dense rational (B1, B2, v), half the time made unstable: block
    upper-triangular with v in the leading invariant block, conjugated by
    a random unimodular matrix."""
    r = draw(st.integers(1, 5))
    square = st.lists(st.lists(_ENTRY, min_size=r, max_size=r),
                      min_size=r, max_size=r)
    b1, b2 = draw(square), draw(square)
    v = draw(st.lists(_ENTRY, min_size=r, max_size=r))
    if r > 1 and draw(st.booleans()):
        k = draw(st.integers(1, r - 1))
        for b in (b1, b2):
            for i in range(k, r):
                b[i][:k] = [0] * k
        v[k:] = [0] * (r - k)
        u = RationalMatrix.identity(r)
        u_inv = u
        for _ in range(draw(st.integers(0, 2 * r))):
            i, j = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            if i == j:
                continue
            c = draw(st.integers(-3, 3))
            u = _elementary(r, i, j, c).matmul(u)
            u_inv = u_inv.matmul(_elementary(r, i, j, -c))
        b1, b2 = (u.matmul(RationalMatrix(b)).matmul(u_inv) for b in (b1, b2))
        return b1, b2, u.apply(v), r, True
    return RationalMatrix(b1), RationalMatrix(b2), tuple(v), r, False


class TestIsStableDense:
    @settings(max_examples=150, deadline=None)
    @given(_dense_triples())
    def test_agrees_with_word_span(self, case):
        b1, b2, v, r, unstable = case
        rank, _ = rank_and_kernel(RationalMatrix(_words_below(b1, b2, v, r)))
        assert rank < r or not unstable
        reduce = hilb._reduced

        def checked(row, echelon):
            # A surviving row is primitive and zero at every pivot column.
            out = reduce(row, echelon)
            if out is not None:
                assert math.gcd(*out) == 1
                assert not any(out[pc] for pc, _ in echelon)
            return out

        with mock.patch.object(hilb, "_reduced", checked):
            assert is_stable(b1, b2, v) == (rank == r)

    def test_one_certifying_rank_call(self, monkeypatch):
        calls = []
        original = exact.rank_and_kernel

        def counted(m):
            calls.append(m.nrows)
            return original(m)

        monkeypatch.setattr(exact, "rank_and_kernel", counted)
        b1 = RationalMatrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
        assert is_stable(b1, zeros(3), (1, 0, 0))
        assert len(calls) == 1
        assert not is_stable(diag(1, 2, 3), diag(4, 5, 6), (1, 1, 0))
        assert len(calls) == 2

    def test_rank_fault_raises(self, monkeypatch):
        original = exact.rank_and_kernel

        def undercounting(m):
            rank, kernel = original(m)
            return rank - 1, kernel

        monkeypatch.setattr(exact, "rank_and_kernel", undercounting)
        with pytest.raises(RuntimeError, match="certified rank"):
            is_stable(diag(1, 2), diag(2, 1), (1, 1))


class TestModelValidation:
    def test_commuting_triple_accepted(self):
        t = ADHMTriple(diag(1, 2), diag(3, 4), (1, 1), 2)
        assert t.r == 2

    def test_noncommuting_rejected(self):
        b1 = RationalMatrix([[0, 1], [0, 0]])
        b2 = RationalMatrix([[0, 0], [1, 0]])
        with pytest.raises(ValueError, match="commute"):
            ADHMTriple(b1, b2, (1, 1), 2)

    def test_unstable_triple_rejected(self):
        with pytest.raises(ValueError, match="invariant subspace"):
            ADHMTriple(diag(1, 2), diag(3, 4), (1, 0), 2)

    def test_quad_wrong_product_rejected(self):
        with pytest.raises(ValueError, match="lambda times"):
            RelADHMQuad(diag(1, 2), diag(3, 4), Fraction(2), (1, 1), 2)

    def test_quad_good_product_accepted(self):
        q = RelADHMQuad(diag(1, 2), diag(2, 1), Fraction(2), (1, 1), 2)
        assert q.lam == 2


class TestSamplers:
    def test_smooth_rank_one(self):
        q = sample_smooth_stratum(1, Fraction(5, 3), seed=11)
        z = q.b1.rows[0][0]
        assert q.b2.rows[0][0] == Fraction(5, 3) / z

    def test_smooth_seed_reproducibility(self):
        a = sample_smooth_stratum(4, 2, seed=9)
        b = sample_smooth_stratum(4, 2, seed=9)
        assert a == b
        c = sample_smooth_stratum(4, 2, seed=10)
        assert a != c

    def test_smooth_rejects_zero_lambda(self):
        with pytest.raises(ValueError):
            sample_smooth_stratum(3, 0, seed=1)

    def test_smooth_diagonal_entries_distinct(self):
        q = sample_smooth_stratum(5, 3, seed=77)
        zs = [q.b1.rows[i][i] for i in range(5)]
        assert len(set(zs)) == 5
        assert all(z != 0 for z in zs)

    def test_singular_rank_one_is_zero_pair(self):
        q = sample_singular_stratum(1, 0, 0, seed=4)
        assert q.b1 == zeros(1)
        assert q.b2 == zeros(1)
        assert q.v == (Fraction(1),)

    def test_singular_products_vanish(self):
        q = sample_singular_stratum(3, 1, 1, seed=2)
        assert q.b1.matmul(q.b2) == zeros(3)
        assert q.b2.matmul(q.b1) == zeros(3)

    def test_singular_degenerate_chains(self):
        q = sample_singular_stratum(4, 0, 3, seed=8)
        assert q.b1 == zeros(4)
        assert q.b2 != zeros(4)
        q = sample_singular_stratum(4, 3, 0, seed=8)
        assert q.b2 == zeros(4)
        assert q.b1 != zeros(4)

    def test_singular_bad_split_rejected(self):
        with pytest.raises(ValueError):
            sample_singular_stratum(3, 2, 2, seed=1)
        with pytest.raises(ValueError):
            sample_singular_stratum(3, -1, 3, seed=1)

    def test_singular_seed_reproducibility(self):
        assert sample_singular_stratum(5, 2, 2, 31) == sample_singular_stratum(5, 2, 2, 31)

    def test_b1zero_shape(self):
        q = sample_b1zero_stratum(4, seed=3)
        assert q.b1 == zeros(4)
        assert q.lam == 0
        rank, _ = rank_and_kernel(q.b2)
        assert rank == 4

    def test_b1zero_seed_reproducibility(self):
        assert sample_b1zero_stratum(3, 21) == sample_b1zero_stratum(3, 21)


class TestDifferential:
    def test_rank_one_shape_and_kernel(self):
        q = sample_smooth_stratum(1, 7, seed=1)
        mat = differential_matrix(q)
        assert (mat.nrows, mat.ncols) == (2, 3)
        assert kernel_dimension(q) == 2

    def test_rank_two_smooth_kernel_dim(self):
        q = sample_smooth_stratum(2, 3, seed=5)
        assert kernel_dimension(q) == 5

    @pytest.mark.parametrize("seed", range(6))
    def test_matrix_matches_direct_map(self, seed):
        # Evaluate the defining map directly on a random domain vector and
        # compare against the assembled matrix.
        import random

        rng = random.Random(seed)
        q = sample_singular_stratum(3, 1, 1, seed=seed)
        r = q.r
        c1 = RationalMatrix([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
        c2 = RationalMatrix([[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)])
        mu = Fraction(rng.randint(-3, 3))
        first = c1.matmul(q.b2).rows
        second = q.b2.matmul(c1).rows
        extra1 = q.b1.matmul(c2).rows
        extra2 = c2.matmul(q.b1).rows
        expected = []
        for i in range(r):
            for j in range(r):
                expected.append(first[i][j] + extra1[i][j] - (mu if i == j else 0))
        for i in range(r):
            for j in range(r):
                expected.append(second[i][j] + extra2[i][j] - (mu if i == j else 0))
        vec = [x for row in c1.rows for x in row]
        vec += [x for row in c2.rows for x in row]
        vec.append(mu)
        assert list(differential_matrix(q).apply(vec)) == expected

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_smooth_stratum_kernel_certified(self, r):
        for seed in range(4):
            lam = Fraction(seed + 1)
            assert kernel_dimension(sample_smooth_stratum(r, lam, seed)) == r * r + 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_singular_stratum_kernel_certified_all_splits(self, r):
        for n in range(r):
            q = sample_singular_stratum(r, n, r - 1 - n, seed=n + 1)
            assert kernel_dimension(q) == r * r + 1

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_b1zero_stratum_kernel_certified(self, r):
        for seed in range(4):
            assert kernel_dimension(sample_b1zero_stratum(r, seed)) == r * r + 1


class TestAbsoluteCokernel:
    def test_rank_one_commutator_map_vanishes(self):
        t = ADHMTriple(diag(2), diag(3), (1,), 1)
        mat = absolute_commutator_differential(t)
        rank, _ = rank_and_kernel(mat)
        assert rank == 0
        assert verify_absolute_cokernel(t)

    def test_rank_two_diagonal(self):
        t = ADHMTriple(diag(1, 2), diag(5, -3), (1, 1), 2)
        assert verify_absolute_cokernel(t)

    def test_rank_four_sampled_diagonal(self):
        assert verify_absolute_cokernel(sample_commuting_diagonal(4, seed=123))

    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sampled_triples(self, r, seed):
        assert verify_absolute_cokernel(sample_commuting_diagonal(r, seed))

    def test_cyclic_companion_pair(self):
        # B1 = B2 = a companion matrix: commuting, cyclic, not diagonal.
        b = RationalMatrix([[0, 0, 2], [1, 0, 1], [0, 1, 0]])
        t = ADHMTriple(b, b, (1, 0, 0), 3)
        assert verify_absolute_cokernel(t)


class TestSupportPoints:
    def test_two_point_example(self):
        q = RelADHMQuad(diag(1, 2), diag(2, 1), Fraction(2), (1, 1), 2)
        assert support_points(q) == (
            (Fraction(1), Fraction(2)),
            (Fraction(2), Fraction(1)),
        )

    def test_rank_one(self):
        q = sample_smooth_stratum(1, Fraction(7, 2), seed=6)
        ((z, w),) = support_points(q)
        assert z == q.b1.rows[0][0]
        assert w == Fraction(7, 2) / z

    @pytest.mark.parametrize("seed", range(8))
    def test_pairs_multiply_to_lambda(self, seed):
        q = sample_smooth_stratum(4, Fraction(3, 2), seed=seed)
        pts = support_points(q)
        assert len(pts) == 4
        assert all(z * w == Fraction(3, 2) for z, w in pts)

    def test_zero_lambda_rejected(self):
        q = sample_singular_stratum(2, 1, 0, seed=1)
        with pytest.raises(ValueError, match="lambda"):
            support_points(q)

    def test_irrational_eigenvalues_unsupported(self):
        b1 = RationalMatrix([[0, -1], [1, 0]])
        b2 = RationalMatrix([[0, 1], [-1, 0]])
        q = RelADHMQuad(b1, b2, Fraction(1), (1, 0), 2)
        with pytest.raises(ValueError, match="unsupported"):
            support_points(q)

    def test_jordan_block_unsupported(self):
        b1 = RationalMatrix([[1, 1], [0, 1]])
        b2 = RationalMatrix([[1, -1], [0, 1]])
        q = RelADHMQuad(b1, b2, Fraction(1), (0, 1), 2)
        with pytest.raises(ValueError, match="diagonalizable"):
            support_points(q)

    def test_scaled_diagonal_multiset(self):
        q = RelADHMQuad(
            diag(Fraction(1, 2), 4),
            diag(6, Fraction(3, 4)),
            Fraction(3),
            (1, 1),
            2,
        )
        assert support_points(q) == (
            (Fraction(1, 2), Fraction(6)),
            (Fraction(4), Fraction(3, 4)),
        )


class TestCertifyStratum:
    def test_report_fields(self):
        rep = certify_stratum("smooth", 2, 6, seed=5)
        assert rep == CertificationReport(
            stratum="smooth",
            r=2,
            samples=6,
            failures=0,
            kernel_dims_observed=(5,),
            expected_kernel_dim=5,
            passed=True,
        )

    def test_singular_covers_every_split(self):
        rep = certify_stratum("singular", 4, 8, seed=2)
        assert rep.passed
        assert rep.kernel_dims_observed == (17,)

    def test_b1zero_stratum(self):
        rep = certify_stratum("b1zero", 3, 5, seed=0)
        assert rep.passed

    def test_deterministic(self):
        assert certify_stratum("smooth", 3, 5, seed=7) == certify_stratum(
            "smooth", 3, 5, seed=7
        )

    def test_worker_count_invariance(self):
        serial = certify_stratum("singular", 3, 6, seed=11, workers=1)
        parallel = certify_stratum("singular", 3, 6, seed=11, workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("workers, cpus, samples, pool", [
        (1, 8, 5, None),
        (64, 4, 10, 4),
        (64, 4, 3, 3),
        (3, 8, 10, 3),
        (64, None, 10, None),
        (64, 8, 1, None),
    ])
    def test_pool_size_capped(self, monkeypatch, workers, cpus, samples, pool):
        """At most min(workers, cpu count, samples) processes, and no pool
        at all when that is 1; checked with a stand-in that starts none."""
        import concurrent.futures

        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        rep = certify_stratum("b1zero", 1, samples, seed=3, workers=workers)
        assert rep == certify_stratum("b1zero", 1, samples, seed=3)
        assert started == ([] if pool is None else [pool])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            certify_stratum("mystery", 2, 5)
        with pytest.raises(ValueError):
            certify_stratum("smooth", 2, 0)
        with pytest.raises(ValueError):
            certify_stratum("smooth", 2, 5, workers=0)

    @pytest.mark.parametrize("stratum, r, samples", [
        ("singular", MAX_R + 1, 2),
        ("b1zero", MAX_R + 1, 2),
        ("smooth", 0, 2),
        ("singular", 0, 2),
        ("b1zero", 2, MAX_SAMPLES + 1),
        ("singular", 2, 10**12),
    ])
    def test_caps_checked_before_sampling(self, monkeypatch, stratum, r, samples):
        def no_sampling(job):
            raise AssertionError(f"sampled {job}")

        monkeypatch.setattr(hilb, "_certify_one", no_sampling)
        with pytest.raises(ValueError, match="must be between 1 and"):
            certify_stratum(stratum, r, samples)
