import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @given(_random_matrix_strategy())
    @settings(max_examples=80)
    def test_rank_nullity_and_exact_kernel(self, rows):
        m = RationalMatrix(rows)
        rank, kernel = rank_and_kernel(m)
        assert rank + len(kernel) == m.ncols
        assert rank <= min(m.nrows, m.ncols)
        for v in kernel:
            assert all(c == 0 for c in m.apply(v))

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


class TestCharPoly:
    def test_two_by_two(self):
        # det(x I - [[2, 1], [1, 2]]) = x^2 - 4x + 3, constant first.
        assert char_poly(RationalMatrix([[2, 1], [1, 2]])) == [3, -4, 1]

    def test_constant_term_is_signed_determinant(self):
        m = RationalMatrix([[1, 2, 0], [0, 3, 1], [4, 0, 1]])
        coeffs = char_poly(m)
        assert coeffs[-1] == 1
        assert coeffs[0] == -11  # (-1)^3 det(M), det(M) = 11
