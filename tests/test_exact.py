import itertools
import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import char_poly, series_geom_pow
from sympencil import exact, hilb
from sympencil.exact import RationalMatrix, _rank_mod_prime, binom, rank_and_kernel
from sympencil.lattice import FourManifoldLattice
from sympencil.strata import STRATA


class TestBinom:
    def test_frozen_values(self):
        assert binom(5, 2) == 10
        assert binom(-2, 3) == -4
        assert binom(-3, 2) == 6
        assert binom(0, 0) == 1
        assert binom(3, 5) == 0

    def test_negative_lower_index_is_zero(self):
        assert binom(4, -1) == 0
        assert binom(-4, -2) == 0

    def test_minus_one_row_alternates(self):
        assert [binom(-1, k) for k in range(6)] == [1, -1, 1, -1, 1, -1]

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_matches_comb_for_nonnegative(self, n, k):
        assert binom(n, k) == math.comb(n, k)

    @given(st.integers(-30, 30), st.integers(0, 15))
    def test_pascal_identity(self, n, k):
        # Holds for every integer upper argument, since it is a polynomial
        # identity in n.
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    @given(st.integers(1, 25), st.integers(0, 25))
    def test_negative_reflection(self, n, k):
        assert binom(-n, k) == (-1) ** k * binom(n + k - 1, k)


class TestTruncatedSeries:
    def test_frozen_geometric_inverse(self):
        assert series_geom_pow(-1, 4) == [1, -1, 1, -1]

    def test_frozen_cube(self):
        assert series_geom_pow(3, 3) == [1, 3, 3]

    def test_exponent_zero(self):
        assert series_geom_pow(0, 5) == [1, 0, 0, 0, 0]

    def test_cap_one(self):
        assert series_geom_pow(-7, 1) == [1]

    @given(st.integers(-8, 8), st.integers(0, 11), st.integers(1, 12))
    def test_coefficients_agree_with_binom(self, e, k, cap):
        # The independent series route and the closed-form binomial must
        # agree on every coefficient.
        if k >= cap:
            return
        assert series_geom_pow(e, cap)[k] == binom(e, k)

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 10))
    def test_power_homomorphism(self, a, b, cap):
        # (1 + H)**a * (1 + H)**b == (1 + H)**(a + b), truncated to cap terms;
        # the product of the two coefficient lists is written out here.
        x, y = series_geom_pow(a, cap), series_geom_pow(b, cap)
        product = [sum(x[i] * y[k - i] for i in range(k + 1))
                   for k in range(cap)]
        assert product == series_geom_pow(a + b, cap)

    def test_independent_of_binom_comb_and_fraction(self, monkeypatch):
        cases = [(e, 9) for e in (-7, -2, -1, 0, 1, 2, 6)] + [(-3, 1), (5, 2)]
        expected = [[binom(e, k) for k in range(cap)] for e, cap in cases]

        def refuse(*args):
            raise AssertionError("the series oracle must not call this")

        monkeypatch.setattr(exact, "binom", refuse)
        monkeypatch.setattr(math, "comb", refuse)
        monkeypatch.setattr(exact, "Fraction", refuse)
        monkeypatch.setattr(conftest, "Fraction", refuse)
        got = [series_geom_pow(e, cap) for e, cap in cases]
        assert got == expected
        assert all(type(c) is int for row in got for c in row)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_raises(self, cap):
        with pytest.raises(ValueError):
            series_geom_pow(3, cap)


def _random_matrix_strategy():
    entry = st.one_of(
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )
    return st.integers(1, 5).flatmap(
        lambda ncols: st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=5
        )
    )


@st.composite
def _rational_matrices(draw, max_rows=8, max_cols=9):
    """Rational matrices up to max_rows x max_cols; about half the rows are
    rational combinations of earlier rows, so kernels are often large."""
    ncols = draw(st.integers(1, max_cols))
    entry = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.fractions(min_value=-9, max_value=9, max_denominator=6),
    )
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        if rows and draw(st.booleans()):
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            s = draw(st.fractions(min_value=-4, max_value=4, max_denominator=5))
            rows.append([x + s * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows


def _rank_over_q(vectors):
    """Rank by plain Fraction elimination, a route of its own."""
    work = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in work[rank:] if r[col]), None)
        if pivot is None:
            continue
        work.remove(pivot)
        work.insert(rank, pivot)
        for r in work[rank + 1:]:
            f = r[col] / pivot[col]
            if f:
                r[:] = [a - f * b for a, b in zip(r, pivot)]
        rank += 1
    return rank


def _nonzeros(rows):
    """Each integer row as its ``(column, entry)`` nonzeros."""
    return [[(c, a) for c, a in enumerate(row) if a] for row in rows]


def _dense_rank_mod_prime(rows, ncols, p):
    """Rank over GF(p), by ordinary Gaussian elimination on dense rows
    already reduced mod p: the oracle for the sparse elimination."""
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


@st.composite
def _integer_rows(draw):
    """A prime and a small set of integer rows, wide or tall, with zero
    rows, duplicate rows, sums of rows, and entries that are nonzero over
    the integers but zero mod the prime."""
    p = draw(st.sampled_from([3, 5, 7, 2**61 - 1]))
    ncols = draw(st.integers(1, 9))
    entry = st.one_of(
        st.just(0),
        st.integers(-9, 9),
        st.integers(-3, 3).map(lambda k: k * p),
        st.integers(-(2**70), 2**70),
    )
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["zero", "duplicate", "sum", "drawn"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "duplicate" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        elif kind == "sum" and rows:
            a = draw(st.sampled_from(rows))
            b = draw(st.sampled_from(rows))
            s = draw(st.integers(-3, 3))
            rows.append([x + s * y for x, y in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return p, ncols, rows


class TestRankModPrime:
    """The verifier's sparse GF(p) elimination agrees with dense Gaussian
    elimination on the same rows."""

    @given(_integer_rows())
    @settings(max_examples=300)
    @example((3, 4, [[3, 6, -9, 0], [0, 0, 0, 0], [1, 2, 3, 4], [1, 2, 3, 4]]))
    @example((5, 2, [[1, 2], [2, 4], [3, 1], [0, 5], [10, 0], [4, 3]]))
    @example((7, 9, [[0, 0, 0, 0, 0, 0, 0, 0, 1], [0, 7, 0, 0, 0, 0, 0, 0, 2]]))
    @example((2**61 - 1, 3, [[2**61 - 1, 2**62 - 2, 1], [1, 1, 1]]))
    @example((3, 1, []))
    @example((7, 3, [[7, 0, -14], [0, 49, 0]]))
    def test_matches_dense_oracle(self, case):
        p, ncols, rows = case
        dense = [[a % p for a in row] for row in rows]
        assert (_rank_mod_prime(_nonzeros(rows), p)
                == _dense_rank_mod_prime(dense, ncols, p))


class TestRankAndKernel:
    def test_identity(self):
        m = RationalMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        rank, kernel = rank_and_kernel(m)
        assert rank == 3
        assert kernel == []

    def test_rank_one(self):
        rank, kernel = rank_and_kernel(RationalMatrix([[1, 2], [2, 4]]))
        assert rank == 1
        assert len(kernel) == 1
        (v,) = kernel
        assert v[0] + 2 * v[1] == 0 and any(v)

    def test_rational_entries(self):
        m = RationalMatrix(
            [
                [Fraction(1, 2), Fraction(1, 3)],
                [Fraction(1, 4), Fraction(1, 6)],
            ]
        )
        rank, kernel = rank_and_kernel(m)
        assert rank == 1
        assert len(kernel) == 1

    def test_zero_matrix(self):
        rank, kernel = rank_and_kernel(RationalMatrix([[0, 0, 0]]))
        assert rank == 0
        assert len(kernel) == 3

    def test_wide_full_row_rank(self):
        rank, kernel = rank_and_kernel(
            RationalMatrix([[1, 0, 2, -1], [0, 3, 1, 1]])
        )
        assert rank == 2
        assert len(kernel) == 2

    def test_finite_field_agrees_directly(self):
        rows = [[6, 10, 4], [3, 5, 2], [1, 1, 1]]
        rank, _ = rank_and_kernel(RationalMatrix(rows))
        assert _rank_mod_prime(_nonzeros(rows), 2**61 - 1) == rank == 2

    @given(_rational_matrices())
    @settings(max_examples=100)
    def test_rank_nullity_and_exact_kernel(self, rows):
        # The kernel is ncols - rank independent primitive integer vectors,
        # each mapped to zero by apply, which shares no code with the route.
        m = RationalMatrix(rows)
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == m.ncols
        assert rank <= min(m.nrows, m.ncols)
        for v in kernel:
            assert len(v) == m.ncols
            assert all(type(c) is int for c in v)
            assert math.gcd(*v) == 1
            assert all(c == 0 for c in m.apply(v))
        assert _rank_over_q(kernel) == len(kernel)
        assert _rank_over_q(m.rows) == rank

    @given(_random_matrix_strategy(), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_rank_invariant_under_row_shuffle(self, rows, rng):
        m = RationalMatrix(rows)
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert rank_and_kernel(m)[0] == rank_and_kernel(RationalMatrix(shuffled))[0]

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3]])


# Full row rank with a one-dimensional kernel; the fractions make the
# denominator clearing do real work.
_WIDE = RationalMatrix(
    [
        [1, Fraction(1, 2), 0, 2],
        [0, Fraction(2, 3), 3, -1],
        [2, 0, Fraction(1, 5), 1],
    ]
)


def _fault_at(monkeypatch, name, index, fault):
    """Patch ``exact.<name>`` so that the result of its call number
    ``index`` (from 0) goes through ``fault`` before it is returned."""
    original = getattr(exact, name)
    calls = itertools.count()

    def faulty(*args):
        out = original(*args)
        return fault(out) if next(calls) == index else out

    monkeypatch.setattr(exact, name, faulty)


class TestKernelVerifierChecksTheInput:
    """A fault in denominator clearing or in the echelon must not slip past
    the exact kernel check or the GF(p) rank, because both read the input
    matrix itself."""

    def test_unpatched_matrix_passes(self):
        rank, kernel = rank_and_kernel(_WIDE)
        assert rank == 3 and len(kernel) == 1

    @pytest.mark.parametrize("row", range(3))
    @pytest.mark.parametrize("fault", ["zero", "perturb"])
    def test_faulty_clearing_is_caught(self, monkeypatch, row, fault):
        def faulty(ints):
            return [0] * len(ints) if fault == "zero" else [*ints[:3], ints[3] + 1]

        _fault_at(monkeypatch, "_primitive", row, faulty)
        with pytest.raises(RuntimeError, match="re-substitution"):
            rank_and_kernel(_WIDE)

    def test_clearing_fault_that_raises_the_rank_is_caught(self, monkeypatch):
        # Rank 2 leaves an empty kernel, so the exact check has nothing to
        # test; the GF(p) rank, read from the input itself, stays 1.
        _fault_at(monkeypatch, "_primitive", 1,
                  lambda ints: [ints[0], ints[1] + 1])
        with pytest.raises(RuntimeError, match="rank mismatch"):
            rank_and_kernel(RationalMatrix([[1, 2], [2, 4]]))

    def test_denominator_divisible_by_check_prime(self):
        # The first check prime divides a denominator. Row scaling clears
        # it before reducing mod p, so the first prime confirms the rank.
        p = 2**61 - 1
        rank, kernel = rank_and_kernel(RationalMatrix([[Fraction(1, p), 1], [1, p]]))
        assert (rank, kernel) == (1, [(-p, 1)])

    @pytest.mark.parametrize("row", range(3))
    def test_faulty_echelon_is_caught(self, monkeypatch, row):
        def faulty(inserted):
            inserted[3] += 1  # the row as the echelon keeps it; 3 is free
            return inserted

        _fault_at(monkeypatch, "_insert", row, faulty)
        with pytest.raises(RuntimeError, match="re-substitution"):
            rank_and_kernel(_WIDE)


# Rank 2, with a kernel basis written out by hand: the vector of each free
# column 2, 3 and 4 of the echelon.
_CLAIM_MATRIX = RationalMatrix(
    [[1, 0, 2, 0, 3], [0, 1, -1, 0, 4], [2, 1, 3, 0, 10]]
)
_CLAIM_BASIS = [(-2, 1, 1, 0, 0), (0, 0, 0, 1, 0), (-3, -4, 0, 0, 1)]
_CLAIM_SUM = tuple(map(sum, zip(*_CLAIM_BASIS[:2])))
_PRODUCER = ("_primitive", "_insert", "_back_substituted", "_echelon_kernel")


def _refuse_producer(patch):
    """Patch every function of the producer to raise."""
    def forbidden(*args):
        raise AssertionError("the verifier called the producer")

    for name in _PRODUCER:
        patch.setattr(exact, name, forbidden)


class TestCertify:
    """``_certify`` checks a claimed rank and kernel from the matrix alone,
    so every test here runs with the producer patched to raise."""

    @pytest.fixture(autouse=True)
    def _no_producer(self, monkeypatch):
        _refuse_producer(monkeypatch)

    def test_true_claim_passes(self):
        exact._certify(_CLAIM_MATRIX, 2, _CLAIM_BASIS)

    def test_sheared_basis_passes(self):
        # The third vector replaced by the sum of the first and the third:
        # still a basis of the kernel, though no list of free columns fits
        # it (each vector nonzero at its own and zero at the others').
        b0, b1, b2 = _CLAIM_BASIS
        exact._certify(_CLAIM_MATRIX, 2,
                       [b0, b1, tuple(a + b for a, b in zip(b0, b2))])

    @pytest.mark.parametrize("basis, message", [
        ([_CLAIM_BASIS[0]] * 3, "not independent"),
        # the third vector replaced by the sum of the first two, and that
        # sum in place of both of them
        (_CLAIM_BASIS[:2] + [_CLAIM_SUM], "not independent"),
        ([_CLAIM_SUM, _CLAIM_SUM, _CLAIM_BASIS[2]], "not independent"),
        (_CLAIM_BASIS[:2], "2 kernel vectors for nullity 3"),
        # a trailing zero too many: independent and annihilated as sparse
        # vectors, so only the length check refutes it
        ([v + (0,) for v in _CLAIM_BASIS], "not independent"),
    ], ids=["duplicate", "sum", "duplicated_sum", "too_few", "too_long"])
    def test_dependent_missing_or_malformed_vectors_raise(self, basis, message):
        with pytest.raises(RuntimeError, match=message):
            exact._certify(_CLAIM_MATRIX, 2, basis)

    def test_unlucky_first_prime_is_retried(self):
        # p = 2**61 - 1 divides the one basis vector and a row, so both
        # ranks fall short mod p; the second prime confirms them.
        p = 2**61 - 1
        exact._certify(RationalMatrix([[p, 0, 0], [0, 1, 0]]), 2, [(0, 0, p)])

    @pytest.mark.parametrize("position, bad", [
        (0, (-1, 1, 1, 0, 0)),
        (1, (1, 0, 0, 1, 0)),
        (2, (-3, -3, 0, 0, 1)),
    ], ids=["first", "middle", "last"])
    def test_vector_outside_the_kernel_raises(self, position, bad):
        basis = list(_CLAIM_BASIS)
        basis[position] = bad
        with pytest.raises(RuntimeError, match="re-substitution"):
            exact._certify(_CLAIM_MATRIX, 2, basis)

    def test_only_the_last_row_detects_the_bad_vector(self):
        # The first two rows annihilate the bad vector; the last row's only
        # nonzero, at its last column, does not.
        m = RationalMatrix([[1, 0, 2, 0, 3], [0, 1, -1, 0, 4], [0, 0, 0, 0, 1]])
        exact._certify(m, 3, [(-2, 1, 1, 0, 0), (0, 0, 0, 1, 0)])
        with pytest.raises(RuntimeError, match="re-substitution"):
            exact._certify(m, 3, [(-5, -3, 1, 0, 1), (0, 0, 0, 1, 0)])

    def test_overclaimed_rank_raises(self):
        # Rank 3 with the two vectors left: each is independent and
        # annihilated, so only the GF(p) rank can refute the claim.
        with pytest.raises(RuntimeError, match="rank mismatch"):
            exact._certify(_CLAIM_MATRIX, 3, _CLAIM_BASIS[1:])


def _rref_claim(m):
    """The true claim for ``m``: its rank and the integer kernel vector of
    each free column, by reduced row echelon form in ``Fraction``
    arithmetic, a route of its own."""
    ncols = m.ncols
    work = [list(row) for row in m.rows]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        i = next((i for i in range(top, len(work)) if work[i][col]), None)
        if i is None:
            continue
        work[top], work[i] = work[i], work[top]
        lead = work[top][col]
        pivot = work[top] = [x / lead for x in work[top]]
        for r in work:
            if r is not pivot and r[col]:
                f = r[col]
                r[:] = [a - f * b for a, b in zip(r, pivot)]
        pivots.append(col)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(work, pivots):
            v[pc] = -row[fc]
        denlcm = math.lcm(*(x.denominator for x in v))
        basis.append(tuple(int(x * denlcm) for x in v))
    return len(pivots), basis


def _claim_holds(m, rank, basis):
    """Whether a claim is true, decided in ``Fraction`` arithmetic: ``rank``
    is the rank of ``m``, and ``basis`` is ``ncols - rank`` vectors of
    length ``ncols``, independent by their ``Fraction`` rank and each
    mapped to zero by ``m``."""
    ncols = m.ncols
    k = len(basis)
    return (rank == _rank_over_q(m.rows) and k == ncols - rank
            and all(len(v) == ncols for v in basis)
            and _rank_over_q(basis) == k
            and not any(x for v in basis for x in m.apply(v)))


_ATTACKS = ("none", "perturb", "duplicate", "sum", "drop", "drop_and_raise",
            "shear", "scale", "rank_up", "rank_down")


@st.composite
def _claims(draw):
    """A small rational matrix and a claim about it: the true claim, or one
    attacked by a perturbed, duplicated or dropped vector, a vector replaced
    by the sum of two others, or a rank off by one, which falsify it, or by
    a shear (v_j += c v_i) or a scaled vector, which keep it true."""
    m = RationalMatrix(draw(_rational_matrices(max_rows=5, max_cols=6)))
    rank, basis = _rref_claim(m)
    k = len(basis)
    attack = draw(st.sampled_from(_ATTACKS))
    factor = st.sampled_from([-3, -2, -1, 2, 3])
    if attack == "perturb" and k:
        i = draw(st.integers(0, k - 1))
        c = draw(st.integers(0, m.ncols - 1))
        v = list(basis[i])
        v[c] += draw(st.sampled_from([-2, -1, 1, 2]))
        basis[i] = tuple(v)
    elif attack == "duplicate" and k > 1:
        i, j = draw(st.permutations(range(k)))[:2]
        basis[j] = basis[i]
    elif attack == "sum" and k > 2:
        i, j, l = draw(st.permutations(range(k)))[:3]
        basis[j] = tuple(a + b for a, b in zip(basis[i], basis[l]))
    elif attack in ("drop", "drop_and_raise") and k:
        del basis[draw(st.integers(0, k - 1))]
        rank += attack == "drop_and_raise"
    elif attack == "shear" and k > 1:
        i, j = draw(st.permutations(range(k)))[:2]
        c = draw(factor)
        basis[j] = tuple(b + c * a for a, b in zip(basis[i], basis[j]))
    elif attack == "scale" and k:
        i = draw(st.integers(0, k - 1))
        c = draw(factor)
        basis[i] = tuple(c * a for a in basis[i])
    elif attack == "rank_up":
        rank += 1
    elif attack == "rank_down":
        rank -= 1
    return m, rank, basis


class TestCertifySoundness:
    """``_certify`` accepts a claim exactly when the claim is true, with the
    producer patched to raise, on true claims and on attacked ones."""

    @given(_claims())
    @settings(max_examples=300)
    def test_accepts_exactly_the_true_claims(self, claim):
        m, rank, basis = claim
        with pytest.MonkeyPatch.context() as patch:
            _refuse_producer(patch)
            try:
                exact._certify(m, rank, basis)
                accepted = True
            except RuntimeError:
                accepted = False
        assert accepted == _claim_holds(m, rank, basis)


def test_duplicate_back_substitution_is_caught_through_hilb(monkeypatch):
    """A producer that returns the first free column's vector for every free
    column gives r^2 + 1 annihilated vectors; the verifier refutes them."""
    back_substituted = exact._back_substituted
    first = []

    def duplicating(fc, bottom_up, ncols):
        if not first:
            first.append(back_substituted(fc, bottom_up, ncols))
        return first[0]

    monkeypatch.setattr(exact, "_back_substituted", duplicating)
    with pytest.raises(RuntimeError, match="not independent"):
        hilb.kernel_dimension(hilb.sample_smooth_stratum(3, 2, 1))


@pytest.mark.parametrize("stratum", STRATA)
def test_sheared_kernel_passes_through_hilb(monkeypatch, stratum):
    """A producer that returns a sheared basis (each vector plus the next,
    the last one kept) still returns a basis of the kernel, and the
    verifier accepts it: the kernel dimension stays r^2 + 1."""
    echelon_kernel = exact._echelon_kernel

    def sheared(echelon, ncols):
        basis = echelon_kernel(echelon, ncols)
        return [tuple(a + b for a, b in zip(v, w))
                for v, w in zip(basis, basis[1:])] + basis[-1:]

    q = hilb._sample_for(stratum, 4, 1730)
    monkeypatch.setattr(exact, "_echelon_kernel", sheared)
    assert hilb.kernel_dimension(q) == 17


def _inverse(rows):
    """Inverse of an invertible square rational matrix, by Gauss-Jordan
    elimination in ``Fraction`` arithmetic."""
    n = len(rows)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        top = next(i for i in range(col, n) if work[i][col])
        work[col], work[top] = work[top], work[col]
        lead = work[col][col]
        work[col] = [x / lead for x in work[col]]
        for i, row in enumerate(work):
            if i != col and row[col]:
                f = row[col]
                work[i] = [a - f * b for a, b in zip(row, work[col])]
    return [row[n:] for row in work]


def _smooth_kernel(q):
    """The kernel of the differential at a smooth-stratum point (B1 = diag z,
    B2 = lambda B1^{-1}, lambda an integer), in closed form. For each (i, j)
    the 2 x 2 block on (C1_ij, C2_ij) has determinant lambda - lambda = 0,
    with kernel (z_i z_j, -lambda); and one mu vector has C2_ii = 1/z_i and
    mu = 1, cleared to integers."""
    r, rr = q.r, q.r * q.r
    zs = [int(q.b1.rows[i][i]) for i in range(r)]
    basis = []
    for i, j in itertools.product(range(r), repeat=2):
        v = [0] * (2 * rr + 1)
        v[i * r + j] = zs[i] * zs[j]
        v[rr + i * r + j] = -int(q.lam)
        basis.append(tuple(v))
    scale = math.lcm(*zs)
    mu = [0] * (2 * rr + 1)
    for i, z in enumerate(zs):
        mu[rr + i * r + i] = scale // z
    mu[-1] = scale
    return basis + [tuple(mu)]


def _b1zero_kernel(q):
    """The kernel of the differential at a b1zero-stratum point (B1 = 0, B2
    invertible), in closed form: C2 is free, so the r^2 unit vectors of C2,
    and C1 = mu B2^{-1} with mu = 1, cleared to integers."""
    r, rr = q.r, q.r * q.r
    basis = [tuple(int(c == rr + n) for c in range(2 * rr + 1))
             for n in range(rr)]
    inverse = [x for row in _inverse(q.b2.rows) for x in row]
    scale = math.lcm(*(x.denominator for x in inverse))
    return basis + [tuple(int(x * scale) for x in inverse) + (0,) * rr + (scale,)]


class TestClosedFormKernels:
    """On the smooth and b1zero strata the kernel has a closed form, a route
    to the r^2 + 1 kernel apart from elimination. The verifier accepts it,
    at rank r^2, with the producer patched to raise."""

    @pytest.mark.parametrize("seed, lam", [(1, 2), (7, -3), (1729, 5)])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_smooth(self, monkeypatch, r, seed, lam):
        q = hilb.sample_smooth_stratum(r, lam, seed)
        self._check(monkeypatch, q, _smooth_kernel(q))

    @pytest.mark.parametrize("seed", [1, 7, 1729])
    @pytest.mark.parametrize("r", range(1, 9))
    def test_b1zero(self, monkeypatch, r, seed):
        q = hilb.sample_b1zero_stratum(r, seed)
        self._check(monkeypatch, q, _b1zero_kernel(q))

    @staticmethod
    def _check(monkeypatch, q, basis):
        assert len(basis) == q.r * q.r + 1
        _refuse_producer(monkeypatch)
        exact._certify(hilb.differential_matrix(q), q.r * q.r, basis)


def _cleared_by_fraction_products(m):
    """The clearing oracle: each row times the lcm of its denominators,
    taken as Fraction products, then divided by the gcd of its entries."""
    rows = []
    for row in m.rows:
        denlcm = math.lcm(*(x.denominator for x in row))
        ints = [(x * denlcm).numerator for x in row]
        g = math.gcd(*ints)
        rows.append([v // g for v in ints] if g > 1 else ints)
    return rows


@st.composite
def _clearing_matrices(draw):
    """Rational matrices with zero rows, signed entries and denominators
    from 1 up to 2**70, so some exceed 2**61."""
    ncols = draw(st.integers(1, 6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.integers(-(2**70), 2**70),
        st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**70)),
    )
    row = st.one_of(st.just([0] * ncols),
                    st.lists(entry, min_size=ncols, max_size=ncols))
    return draw(st.lists(row, min_size=1, max_size=6))


class TestClearedIntegerRows:
    """Clearing each row by ``_primitive``, in integer arithmetic, gives
    the integers the Fraction products gave, so the echelon's input is
    unchanged."""

    @given(_clearing_matrices())
    @settings(max_examples=200)
    @example([[0, 0, 0]])
    @example([[Fraction(-3, 2**61 + 1)], [Fraction(5, 2**62)], [0]])
    @example([[Fraction(-2, 3), Fraction(4, 9), 0], [0, 0, 0],
              [Fraction(1, 2**64 - 1), -7, Fraction(-6, 2**63)]])
    def test_matches_fraction_products(self, rows):
        m = RationalMatrix(rows)
        cleared = [exact._primitive(row) for row in m.rows]
        assert cleared == _cleared_by_fraction_products(m)
        assert all(type(v) is int for row in cleared for v in row)

    def test_no_fraction_products(self, monkeypatch):
        m = RationalMatrix([[Fraction(1, 6), Fraction(-3, 4), 0],
                            [Fraction(5, 2**61 + 3), 2, Fraction(-1, 3)]])
        expected = _cleared_by_fraction_products(m)

        def refuse(*args):
            raise AssertionError("Fraction product while clearing rows")

        monkeypatch.setattr(Fraction, "__mul__", refuse)
        monkeypatch.setattr(Fraction, "__rmul__", refuse)
        cleared = [exact._primitive(row) for row in m.rows]
        monkeypatch.undo()
        assert cleared == expected


class _Half(Fraction):
    """A Fraction subclass, which the matrix must not keep."""


class TestRationalMatrixEntries:
    def test_exact_fraction_kept_by_identity(self):
        x = Fraction(3, 7)
        m = RationalMatrix([[x, 1]])
        assert m.rows[0][0] is x

    @pytest.mark.parametrize("entry", [2, True, _Half(1, 2)],
                             ids=["int", "bool", "subclass"])
    def test_other_entries_become_plain_fractions(self, entry):
        x = RationalMatrix([[entry]]).rows[0][0]
        assert type(x) is Fraction
        assert x == entry and hash(x) == hash(entry)

    @pytest.mark.parametrize("entry", [0.1, 1.0, "1/2", "3", Decimal("0.5")],
                             ids=["float", "whole_float", "fraction_string",
                                  "int_string", "decimal"])
    @pytest.mark.parametrize("build", [
        lambda x: RationalMatrix([[x]]),
        lambda x: RationalMatrix([[1]]).apply([x]),
        lambda x: hilb.is_stable(RationalMatrix([[1]]), RationalMatrix([[1]]),
                                 [x]),
        lambda x: FourManifoldLattice("x", 0, [[1]], [-3], [x], True),
    ], ids=["constructor", "apply", "is_stable_v", "lattice_omega"])
    def test_inexact_entries_raise(self, build, entry):
        with pytest.raises(TypeError):
            build(entry)


class TestCharPoly:
    def test_two_by_two(self):
        # det(x I - [[2, 1], [1, 2]]) = x^2 - 4x + 3, constant first.
        assert char_poly(RationalMatrix([[2, 1], [1, 2]])) == [3, -4, 1]

    def test_constant_term_is_signed_determinant(self):
        m = RationalMatrix([[1, 2, 0], [0, 3, 1], [4, 0, 1]])
        coeffs = char_poly(m)
        assert coeffs[-1] == 1
        assert coeffs[0] == -11  # (-1)^3 det(M), det(M) = 11
