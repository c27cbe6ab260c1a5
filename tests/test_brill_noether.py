"""Brill-Noether numbers, the codimension predicate and Abel-Jacobi fibre
profiles."""

import pytest
from hypothesis import given, strategies as st

from sympencil.brill_noether import (
    AbelJacobiFibres,
    BNQuery,
    abel_jacobi_fibre_dims,
    eh_predicate,
    rho,
)

# Grid of rho values recomputed by hand from g - (s+1)(g-r+s).
RHO_GRID = [
    ((2, 1, 0), 1),
    ((2, 2, 0), 2),
    ((2, 2, 1), 0),
    ((3, 2, 0), 2),
    ((3, 2, 1), -1),
    ((3, 3, 1), 1),
    ((3, 4, 1), 3),
    ((4, 3, 1), 0),
    ((4, 4, 1), 2),
    ((4, 6, 2), 4),
    ((5, 4, 1), 1),
    ((5, 3, 1), -1),
    ((5, 8, 1), 9),
    ((6, 5, 2), -3),
    ((6, 9, 2), 9),
    ((7, 4, 1), -1),
    ((7, 6, 1), 3),
    ((8, 7, 2), -1),
    ((10, 6, 1), 0),
    ((10, 12, 1), 12),
]


class TestRho:
    @pytest.mark.parametrize("triple,expected", RHO_GRID)
    def test_grid(self, triple, expected):
        g, r, s = triple
        assert rho(BNQuery(g, r, s)) == expected

    @given(g=st.integers(2, 40), r=st.integers(-10, 80))
    def test_s_zero_collapses_to_r(self, g, r):
        # (s+1)(g-r+s) = g - r, so rho = r.
        assert rho(BNQuery(g, r, 0)) == r

    @given(g=st.integers(2, 30), r=st.integers(-5, 60), s=st.integers(0, 6))
    def test_strictly_decreasing_in_s_once_deficient(self, g, r, s):
        # Once g - r + s > 0, each increment of s drops rho further.
        if g - r + s > 0:
            assert rho(BNQuery(g, r, s + 1)) < rho(BNQuery(g, r, s))

    def test_canonical_system_is_exceptional_not_deficient(self):
        # g = 4, r = 6 = 2g-2, s = 3: rho = 4 - 4*1 = 0.
        assert rho(BNQuery(4, 6, 3)) == 0

    def test_genus_below_two_rejected(self):
        with pytest.raises(ValueError):
            BNQuery(1, 3, 1)

    def test_negative_s_rejected(self):
        with pytest.raises(ValueError):
            BNQuery(4, 3, -1)


class TestEHPredicate:
    def test_boundary_value_minus_one_not_enough(self):
        q = BNQuery(3, 2, 1)
        assert rho(q) == -1
        assert not eh_predicate(q)

    def test_minus_two_is_enough(self):
        q = BNQuery(4, 2, 1)
        assert rho(q) == -2
        assert eh_predicate(q)

    @pytest.mark.parametrize("g", range(5, 16))
    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_low_degree_pencils_always_deficient(self, g, d):
        # Degree <= 2 pencils on genus >= 5 curves: rho = g - 2(g-d+1)
        # = 2d - g - 2 <= -3.
        q = BNQuery(g, d, 1)
        assert rho(q) == 2 * d - g - 2
        assert eh_predicate(q)

    @pytest.mark.parametrize("g", range(5, 9))
    def test_residual_range_pencils(self, g):
        # Residual degrees d = 2g-2-r for r between g+2 and 2g-2 land in
        # 0 <= d <= g-4, where pencils satisfy the predicate.
        for r in range(g + 2, 2 * g - 1):
            d = 2 * g - 2 - r
            assert 0 <= d <= g - 4
            assert eh_predicate(BNQuery(g, d, 1))

    def test_failure_just_outside_residual_range(self):
        # g = 5, d = 4 (r = g+1 side): rho = 2*4 - 5 - 2 = 1, no excess
        # codimension.
        assert not eh_predicate(BNQuery(5, 4, 1))


class TestAbelJacobiFibres:
    def test_top_degree_profile(self):
        # r = 2g-2: generic g-2, jump g-1 over a point.
        for g in range(2, 9):
            prof = abel_jacobi_fibre_dims(g, 2 * g - 2)
            assert prof == AbelJacobiFibres(g - 2, g - 1, 0, "point")

    def test_interior_degree(self):
        prof = abel_jacobi_fibre_dims(4, 5)
        assert prof.generic_dim == 1
        assert prof.jump_dim == 2
        assert prof.jump_locus_degree == 1
        assert prof.descriptor == "Sym^1 of the fibre"

    def test_beyond_top_degree_no_jumps(self):
        prof = abel_jacobi_fibre_dims(3, 7)
        assert prof.generic_dim == 4
        assert prof.jump_dim is None
        assert prof.jump_locus_degree is None
        assert prof.descriptor == "empty"

    @given(g=st.integers(2, 25), r=st.integers(0, 60))
    def test_jump_is_exactly_one_when_present(self, g, r):
        if r <= g - 1:
            with pytest.raises(ValueError):
                abel_jacobi_fibre_dims(g, r)
            return
        prof = abel_jacobi_fibre_dims(g, r)
        assert prof.generic_dim == r - g
        if prof.jump_dim is not None:
            assert prof.jump_dim == prof.generic_dim + 1
            assert prof.jump_locus_degree == 2 * g - 2 - r
        else:
            assert r > 2 * g - 2

    def test_degree_at_genus_boundary_rejected(self):
        with pytest.raises(ValueError):
            abel_jacobi_fibre_dims(4, 3)

    def test_low_genus_rejected(self):
        with pytest.raises(ValueError):
            abel_jacobi_fibre_dims(1, 5)
