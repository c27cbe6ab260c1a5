import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympencil import exact
from sympencil.exact import (
    RationalMatrix,
    TruncatedSeries,
    _rank_mod_prime,
    binom,
    char_poly,
    rank_and_kernel,
    series_geom_pow,
)


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
        base = TruncatedSeries([1, 1], cap)
        assert base.pow(a) * base.pow(b) == base.pow(a + b)

    @given(
        st.lists(
            st.fractions(min_value=-10, max_value=10, max_denominator=20),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60)
    def test_inverse_of_unit(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        cap = len(coeffs)
        s = TruncatedSeries(coeffs, cap)
        assert s * s.inverse() == TruncatedSeries.one(cap)

    def test_inverse_of_nonunit_raises(self):
        with pytest.raises(ZeroDivisionError):
            TruncatedSeries([0, 1], 3).inverse()

    def test_mixed_caps_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries([1], 2) * TruncatedSeries([1], 3)


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
        assert _rank_mod_prime(rows, 3, 2**61 - 1) == rank == 2

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
        cleared = exact._cleared_integer_rows

        def faulty(m):
            rows = cleared(m)
            if fault == "zero":
                rows[row] = [0] * len(rows[row])
            else:
                rows[row][3] += 1
            return rows

        monkeypatch.setattr(exact, "_cleared_integer_rows", faulty)
        with pytest.raises(RuntimeError, match="re-substitution"):
            rank_and_kernel(_WIDE)

    def test_clearing_fault_that_raises_the_rank_is_caught(self, monkeypatch):
        # Rank 2 leaves an empty kernel, so the exact check has nothing to
        # test; the GF(p) rank, read from the input itself, stays 1.
        cleared = exact._cleared_integer_rows

        def faulty(m):
            rows = cleared(m)
            rows[1][1] += 1
            return rows

        monkeypatch.setattr(exact, "_cleared_integer_rows", faulty)
        with pytest.raises(RuntimeError, match="rank mismatch"):
            rank_and_kernel(RationalMatrix([[1, 2], [2, 4]]))

    def test_denominator_divisible_by_check_prime(self):
        # The first check prime divides a denominator, so the second one
        # confirms the rank.
        p = 2**61 - 1
        rank, kernel = rank_and_kernel(RationalMatrix([[Fraction(1, p), 1], [1, p]]))
        assert (rank, kernel) == (1, [(-p, 1)])

    @pytest.mark.parametrize("row", range(3))
    def test_faulty_echelon_is_caught(self, monkeypatch, row):
        echelon = exact._integer_echelon

        def faulty(rows, ncols):
            rank, pivots, ech = echelon(rows, ncols)
            ech[row][3] += 1  # column 3 is the free column
            return rank, pivots, ech

        monkeypatch.setattr(exact, "_integer_echelon", faulty)
        with pytest.raises(RuntimeError, match="re-substitution"):
            rank_and_kernel(_WIDE)


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


class TestCharPoly:
    def test_two_by_two(self):
        # det(x I - [[2, 1], [1, 2]]) = x^2 - 4x + 3, constant first.
        assert char_poly(RationalMatrix([[2, 1], [1, 2]])) == [3, -4, 1]

    def test_constant_term_is_signed_determinant(self):
        m = RationalMatrix([[1, 2, 0], [0, 3, 1], [4, 0, 1]])
        coeffs = char_poly(m)
        assert coeffs[-1] == 1
        assert coeffs[0] == -11  # (-1)^3 det(M), det(M) = 11
