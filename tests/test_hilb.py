"""Commuting-matrix models: stability, stratum samplers, and exact
certification of the differential's kernel dimension."""

import itertools
import math
import random
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
    verify_absolute_cokernel,
)
from sympencil.strata import MAX_R, MAX_SAMPLES, STRATA


def diag(*entries):
    return RationalMatrix([[x if i == j else 0 for j in range(len(entries))]
                           for i, x in enumerate(entries)])


def zeros(n):
    return RationalMatrix([[Fraction(0)] * n for _ in range(n)])


# Every stratum at r = 1..5. The first six ids keep the seeds 0..5 they
# have always had; the seed also picks the singular chain split.
_DIRECT_MAP_CASES = [
    pytest.param(seed, stratum, r, id=str(seed))
    for seed, (r, stratum) in enumerate(
        itertools.product(range(1, 6), ("singular", "smooth", "b1zero")))
]


def _random_domain_vector(seed, r):
    """Rational (C1, C2, mu) drawn from seed, and (C1, C2) flattened
    row-major in the differential's column order."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

    c1, c2 = (RationalMatrix([[entry() for _ in range(r)] for _ in range(r)])
              for _ in range(2))
    vec = [x for c in (c1, c2) for row in c.rows for x in row]
    return c1, c2, entry(), vec


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
        u = diag(*[1] * r)
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
        insert = exact._insert

        def checked(row, echelon):
            # A surviving row is primitive and zero at every pivot column
            # of the echelon as it stood before the call.
            pivots = [pc for pc, _ in echelon]
            out = insert(row, echelon)
            if out is not None:
                assert math.gcd(*out) == 1
                assert not any(out[pc] for pc in pivots)
            return out

        with mock.patch.object(exact, "_insert", checked):
            assert is_stable(b1, b2, v) == (rank == r)

    def test_one_insert_per_queued_vector(self, monkeypatch):
        # The echelon that decides the verdict is the one certified: each
        # queued vector is reduced once, every one of them reaches the
        # verifier, and no second elimination runs.
        inserts, certified, rank_calls = [], [], []
        insert, certify = exact._insert, exact._certify

        def counted_insert(row, echelon):
            inserts.append(row)
            return insert(row, echelon)

        def counted_certify(m, *args):
            certified.append(m.nrows)
            return certify(m, *args)

        monkeypatch.setattr(exact, "_insert", counted_insert)
        monkeypatch.setattr(exact, "_certify", counted_certify)
        monkeypatch.setattr(exact, "rank_and_kernel",
                            lambda m: rank_calls.append(m))
        b1 = RationalMatrix([[1, 2, 0], [0, 1, 3], [4, 0, 1]])
        assert is_stable(b1, zeros(3), (1, 0, 0))
        assert not is_stable(diag(1, 2, 3), diag(4, 5, 6), (1, 1, 0))
        # Three vectors accepted; then two accepted and three spent.
        assert certified == [3, 5]
        assert len(inserts) == sum(certified)
        assert rank_calls == []

    @staticmethod
    def _fault_at(monkeypatch, call, reported):
        """Patch the reducer so that its call-th call (from 1) reduces the
        row without inserting it and reports it accepted (its reduced row)
        or spent (None)."""
        insert = exact._insert
        calls = itertools.count(1)

        def faulty(row, echelon):
            if next(calls) != call:
                return insert(row, echelon)
            out = insert(row, list(echelon))
            return out if reported == "accepted" else None

        monkeypatch.setattr(exact, "_insert", faulty)

    def test_accepted_vector_never_inserted_raises(self, monkeypatch):
        # v = (1, 1, 0) spans an invariant plane with B1 v = (1, 2, 0), so
        # the triple is unstable; with v missing from the echelon, B1^2 v
        # looks new and three vectors are accepted. The echelon has rank
        # two, so the claimed rank three leaves one kernel vector too many.
        args = (diag(1, 2, 3), zeros(3), (1, 1, 0))
        self._fault_at(monkeypatch, 1, "accepted")
        with pytest.raises(RuntimeError, match="nullity 0"):
            is_stable(*args)
        # Without the certificate the verdict would be wrong.
        monkeypatch.undo()
        self._fault_at(monkeypatch, 1, "accepted")
        monkeypatch.setattr(exact, "_certify", lambda *a: None)
        assert is_stable(*args)

    def test_independent_vector_spent_raises(self, monkeypatch):
        # The triple is stable, but B1 v is spent, so its images are never
        # queued and only v is accepted; the kernel of the echelon does not
        # annihilate the spent vector.
        args = (diag(1, 2, 3), zeros(3), (1, 1, 1))
        self._fault_at(monkeypatch, 2, "spent")
        with pytest.raises(RuntimeError, match="re-substitution"):
            is_stable(*args)
        # Without the certificate the verdict would be wrong.
        monkeypatch.undo()
        self._fault_at(monkeypatch, 2, "spent")
        monkeypatch.setattr(exact, "_certify", lambda *a: None)
        assert not is_stable(*args)


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

    @pytest.mark.parametrize("sample", [
        lambda s: sample_smooth_stratum(6, 2, s),
        lambda s: sample_singular_stratum(6, 2, 3, s),
        lambda s: sample_b1zero_stratum(6, s),
        lambda s: sample_commuting_diagonal(6, s),
    ], ids=["smooth", "singular", "b1zero", "commuting_diagonal"])
    def test_negative_seed_draws_its_own_point(self, sample):
        # random.Random seeds an int by its absolute value; seed -s must not
        # repeat seed s, or `hilb --seed -3 --samples 7` certifies sample 0
        # and sample 6 at one point.
        for s in range(1, 6):
            assert sample(-s) != sample(s)


class TestDifferential:
    def test_rank_one_shape_and_kernel(self):
        q = sample_smooth_stratum(1, 7, seed=1)
        mat = differential_matrix(q)
        assert (mat.nrows, mat.ncols) == (2, 3)
        assert kernel_dimension(q) == 2

    def test_rank_two_smooth_kernel_dim(self):
        q = sample_smooth_stratum(2, 3, seed=5)
        assert kernel_dimension(q) == 5

    @pytest.mark.parametrize("seed, stratum, r", _DIRECT_MAP_CASES)
    def test_matrix_matches_direct_map(self, seed, stratum, r):
        # Evaluate the defining map directly on a random domain vector and
        # compare against the assembled matrix.
        q = hilb._sample_for(stratum, r, 1729 + seed)
        c1, c2, mu, vec = _random_domain_vector(seed, r)
        expected = []
        for lhs, rhs in ((c1.matmul(q.b2), q.b1.matmul(c2)),
                         (q.b2.matmul(c1), c2.matmul(q.b1))):
            expected += [lhs.rows[i][j] + rhs.rows[i][j] - (mu if i == j else 0)
                         for i in range(r) for j in range(r)]
        assert list(differential_matrix(q).apply(vec + [mu])) == expected

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

    @pytest.mark.parametrize("seed, stratum, r", _DIRECT_MAP_CASES)
    def test_matrix_matches_direct_map(self, seed, stratum, r):
        # Each stratum's pair commutes (B1 B2 = lambda I = B2 B1), so it is
        # a point of the absolute model too; evaluate [C1, B2] + [B1, C2]
        # directly and compare against the assembled matrix.
        q = hilb._sample_for(stratum, r, 1729 + seed)
        t = ADHMTriple(q.b1, q.b2, q.v, r)
        c1, c2, _, vec = _random_domain_vector(seed, r)
        a, b, c, d = (m.rows for m in (c1.matmul(t.b2), t.b2.matmul(c1),
                                       t.b1.matmul(c2), c2.matmul(t.b1)))
        expected = [a[i][j] - b[i][j] + c[i][j] - d[i][j]
                    for i in range(r) for j in range(r)]
        assert list(absolute_commutator_differential(t).apply(vec)) == expected

    def test_cyclic_companion_pair(self):
        # B1 = B2 = a companion matrix: commuting, cyclic, not diagonal.
        b = RationalMatrix([[0, 0, 2], [1, 0, 1], [0, 1, 0]])
        t = ADHMTriple(b, b, (1, 0, 0), 3)
        assert verify_absolute_cokernel(t)


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
            failing_samples=(),
        )

    def test_failure_names_its_samples(self, monkeypatch):
        """A sample whose kernel dimension is off is named by its index,
        its seed and the dimension observed."""
        real = hilb.kernel_dimension
        calls = []

        def off_at_index_two(q):
            calls.append(q)
            return q.r * q.r if len(calls) == 3 else real(q)

        monkeypatch.setattr(hilb, "kernel_dimension", off_at_index_two)
        rep = certify_stratum("singular", 2, 5, seed=40, workers=1)
        assert (rep.failures, rep.passed) == (1, False)
        assert rep.kernel_dims_observed == (4, 5)
        assert rep.failing_samples == ((2, 42, 4),)

    def test_singular_covers_every_split(self):
        rep = certify_stratum("singular", 4, 8, seed=2)
        assert rep.passed
        assert rep.kernel_dims_observed == (17,)

    @pytest.mark.parametrize("seed", [-3, 0, 10**30])
    def test_consecutive_seeds_cover_every_split(self, monkeypatch, seed):
        """Any r consecutive seeds draw all r chain splits, negative seeds
        included."""
        splits = []
        sample = hilb.sample_singular_stratum

        def recorded(r, n, m, s):
            splits.append(n)
            return sample(r, n, m, s)

        monkeypatch.setattr(hilb, "sample_singular_stratum", recorded)
        certify_stratum("singular", 4, 4, seed=seed)
        assert sorted(splits) == [0, 1, 2, 3]

    @pytest.mark.parametrize("stratum", STRATA)
    @pytest.mark.parametrize("r", [1, 2, 3, 5])
    def test_sample_reruns_from_its_seed(self, monkeypatch, stratum, r):
        """Sample i of a run from seed S is the one sample of a run from
        S + i, so each entry of ``failing_samples`` can be rerun alone."""
        real = hilb.kernel_dimension
        points = []

        def recorded(q):
            points.append(q)
            return real(q)

        monkeypatch.setattr(hilb, "kernel_dimension", recorded)
        seed, samples = -2, r + 2
        certify_stratum(stratum, r, samples, seed=seed)
        run = points[:]
        assert len(run) == samples
        for i in range(samples):
            points.clear()
            certify_stratum(stratum, r, 1, seed=seed + i)
            assert points == [run[i]]

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

    @staticmethod
    def _pools_started(monkeypatch, affinity, host):
        """The ``max_workers`` of each pool started, through a stand-in
        that starts no process, with the CPUs the process may use set to
        ``affinity`` (no affinity call when None) on a host of ``host``."""
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
        monkeypatch.setattr("os.cpu_count", lambda: host)
        if affinity is None:
            monkeypatch.delattr("os.sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(affinity),
                                raising=False)
        return started

    @pytest.mark.parametrize("workers, cpus, samples, pool", [
        (1, 8, 5, None),
        (64, 4, 10, 4),
        (64, 4, 3, 3),
        (3, 8, 10, 3),
        (64, None, 10, None),
        (64, 8, 1, None),
    ])
    def test_pool_size_capped(self, monkeypatch, workers, cpus, samples, pool):
        """At most min(workers, usable CPUs, samples) processes, and no
        pool at all when that is 1. ``cpus`` None is a platform with no
        affinity call whose CPU count is unknown."""
        affinity = None if cpus is None else range(cpus)
        started = self._pools_started(monkeypatch, affinity, cpus)
        rep = certify_stratum("b1zero", 1, samples, seed=3, workers=workers)
        assert rep == certify_stratum("b1zero", 1, samples, seed=3)
        assert started == ([] if pool is None else [pool])

    @pytest.mark.parametrize("affinity, host, pool", [
        ({0}, 2, None),
        ({1, 3}, 8, 2),
        (None, 3, 3),
    ], ids=["one-of-two", "two-of-eight", "no-affinity-call"])
    def test_pool_capped_at_usable_cpus(self, monkeypatch, affinity, host, pool):
        """The cap is the CPUs the process may run on, not the host's: on
        one usable CPU of two (``taskset -c 0``), four workers start no
        pool. Without an affinity call the host's count caps it."""
        started = self._pools_started(monkeypatch, affinity, host)
        rep = certify_stratum("b1zero", 1, 6, seed=3, workers=4)
        assert rep == certify_stratum("b1zero", 1, 6, seed=3)
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
