import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    class_of_virtual_dim,
    elliptic,
    profile_pair_sample,
    series_geom_pow,
    spin,
    spin_half_canonical_profile,
)
from sympencil.catalog import STANDARD_BUILDERS
from sympencil.exact import binom
from sympencil.gromov import (
    CohomologyProfile,
    duality_check,
    gr_parity,
    gromov_invariant,
    riemann_roch_chi,
    serre_dual,
    vanishing_profile,
)
from sympencil.lattice import FourManifoldLattice, HomologyClass


class TestRiemannRoch:
    def test_plane_hyperplane_class(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        assert riemann_roch_chi(cp2, [1]) == 3

    def test_zero_class_gives_chi_h(self):
        for name in ("cp2", "k3", "e3"):
            x = STANDARD_BUILDERS[name]()
            assert riemann_roch_chi(x, [0] * x.b2) == x.chi_h

    def test_canonical_class_gives_chi_h(self):
        x = elliptic(4)
        assert riemann_roch_chi(x, x.canonical) == x.chi_h

    def test_needs_integral_chi_h(self):
        odd = FourManifoldLattice("odd", 1, [[5]], [1], [1], True)
        with pytest.raises(ValueError, match="chi_h"):
            riemann_roch_chi(odd, [0])


class TestProfiles:
    def test_chi_validation(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        with pytest.raises(ValueError, match="inconsistent"):
            CohomologyProfile(1, 0, 1, HomologyClass(cp2, (1,)))

    def test_negative_dimensions_rejected(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        with pytest.raises(ValueError):
            CohomologyProfile(4, -1, 0, HomologyClass(cp2, (1,)))

    def test_structure_sheaf_duality(self):
        # (1, 0, p_g) for O maps to (p_g, 0, 1) for K.
        x = elliptic(4)
        p_g = x.chi_h - 1
        p = CohomologyProfile(1, 0, p_g, HomologyClass(x, (0,) * x.b2))
        q = serre_dual(p)
        assert (q.h0, q.h1, q.h2) == (p_g, 0, 1)
        assert q.divisor.coords == x.canonical

    def test_serre_dual_is_involution(self):
        rng = random.Random(7)
        for _ in range(25):
            p, _ = profile_pair_sample(rng)
            assert serre_dual(serre_dual(p)) == p

    def test_spin_half_canonical_self_dual(self):
        p = spin_half_canonical_profile(2)
        q = serre_dual(p)
        assert (q.h0, q.h1, q.h2) == (p.h0, p.h1, p.h2)
        assert q.divisor.coords == p.divisor.coords


class TestVanishingProfile:
    def test_canonical_profile(self):
        x = elliptic(5)
        p_g = x.chi_h - 1
        p = vanishing_profile(x, x.canonical, p_g, 1)
        assert (p.h0, p.h1, p.h2) == (p_g, 0, 1)

    def test_inconsistent_dimensions_rejected(self):
        x = elliptic(5)
        with pytest.raises(ValueError, match="inconsistent"):
            vanishing_profile(x, x.canonical, x.chi_h, 1)

    def test_empty_system_branch(self):
        # h0 = 0 pins h1 through chi instead.
        x = elliptic(4)  # chi_h = 4
        d = [0] * x.b2
        p = vanishing_profile(x, d, 0, 6)
        assert (p.h0, p.h1, p.h2) == (0, 2, 6)

    def test_negative_h1_rejected(self):
        x = elliptic(4)
        with pytest.raises(ValueError, match="h1"):
            vanishing_profile(x, [0] * x.b2, 0, 2)

    def test_needs_b1_zero(self):
        torus_like = FourManifoldLattice("b1pos", 2, [[1]], [1], [1], True)
        with pytest.raises(ValueError, match="b1"):
            vanishing_profile(torus_like, [1], 1, 0)

    def test_spin_profile(self):
        x = spin(3)
        half_k = tuple(c // 2 for c in x.canonical)
        p = vanishing_profile(x, half_k, 3, 3)
        assert (p.h0, p.h1, p.h2) == (3, 0, 3)


class TestGromovInvariant:
    @pytest.mark.parametrize("p_g", range(1, 11))
    def test_canonical_profile_is_plus_minus_one(self, p_g):
        x = elliptic(p_g + 1)
        p = vanishing_profile(x, x.canonical, p_g, 1)
        assert p.virtual_dim == 0
        assert gromov_invariant(p) == (-1) ** (p_g - 1)

    def test_rigid_sphere_profile(self):
        # (1, 0, 0) at r = 0 counts exactly one curve; the exceptional
        # class on the blown-up plane realizes it.
        e1 = STANDARD_BUILDERS["e1"]()
        e = [0] * 10
        e[1] = 1  # exceptional class: a.a = -1, K.a = -1, virtual dim 0
        p = CohomologyProfile(1, 0, 0, HomologyClass(e1, tuple(e)))
        assert gromov_invariant(p) == 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spin_profile_matches_central_binomial(self, n):
        p = spin_half_canonical_profile(n)
        assert p.virtual_dim == 0
        value = gromov_invariant(p)
        assert abs(value) == binom(2 * n - 2, n - 1)
        assert value == binom(-n, n - 1)

    def test_empty_system_counts_zero(self):
        x = elliptic(4)
        d = [0] * x.b2
        p = vanishing_profile(x, d, 0, 4)
        assert gromov_invariant(p) == 0

    def test_low_h0_counts_zero(self):
        # lower index (h0 - 1) - r < 0.
        x = elliptic(3)
        d = class_of_virtual_dim(x, 3, 1)
        p = CohomologyProfile(1, 0, 3, d)
        assert p.virtual_dim == 1
        assert gromov_invariant(p) == 0

    def test_negative_virtual_dimension_raises(self):
        # On the plane the class -H has (1 - 3)/2 = -1, so chi = 0.
        cp2 = STANDARD_BUILDERS["cp2"]()
        p = CohomologyProfile(0, 0, 0, HomologyClass(cp2, (-1,)))
        assert p.virtual_dim == -1
        with pytest.raises(ValueError, match="virtual dimension -1 is negative"):
            gromov_invariant(p)

    def test_r_zero_matches_series_extraction(self):
        # The closed form and the truncated-series route agree whenever the
        # vanishing regime applies (h1 = 0, h0 >= 1).
        rng = random.Random(123)
        checked = 0
        while checked < 60:
            p, r = profile_pair_sample(rng)
            if r != 0 or p.h0 == 0:
                continue
            coeffs = series_geom_pow(p.h1 - p.h2, p.h0)
            assert gromov_invariant(p) == coeffs[p.h0 - 1]
            checked += 1


class TestDualityCheck:
    def test_canonical_versus_structure_sheaf(self):
        x = elliptic(6)
        p_g = x.chi_h - 1
        p = vanishing_profile(x, x.canonical, p_g, 1)
        assert duality_check(p, 0)
        assert abs(gromov_invariant(p)) == 1
        assert abs(gromov_invariant(serre_dual(p))) == 1

    def test_spin_self_dual(self):
        assert duality_check(spin_half_canonical_profile(3), 0)

    def test_random_sweep(self):
        rng = random.Random(2026)
        for _ in range(120):
            p, r = profile_pair_sample(rng)
            assert duality_check(p, r)

    def test_r_must_match_virtual_dimension(self):
        # The spin profile has virtual dimension 0; its magnitudes agree
        # at any r, so only the check refuses a wrong one.
        p = spin_half_canonical_profile(2)
        for wrong in (-1, 1, 2):
            with pytest.raises(ValueError, match=f"r = {wrong} but the divisor "
                                                 "class has virtual dimension 0"):
                duality_check(p, wrong)


class TestCertifiedVirtualDim:
    """A profile's virtual dimension is read from its Riemann-Roch-checked
    chi, not paired again; the direct pairing stays the oracle."""

    @pytest.fixture
    def pairings(self, monkeypatch):
        calls = []
        pairing = FourManifoldLattice.pairing

        def counted(self, x, y):
            calls.append((x, y))
            return pairing(self, x, y)

        monkeypatch.setattr(FourManifoldLattice, "pairing", counted)
        return calls

    @staticmethod
    def _profiles():
        x = elliptic(4)
        rng = random.Random(11)
        return [
            (vanishing_profile(x, x.canonical, x.chi_h - 1, 1), 0),
            (spin_half_canonical_profile(3), 0),
            *(profile_pair_sample(rng) for _ in range(6)),
        ]

    def test_gromov_invariant_pairs_nothing(self, pairings):
        for p, r in self._profiles():
            pairings.clear()
            gromov_invariant(p)
            assert p.virtual_dim == r
            assert pairings == []

    def test_duality_check_pairs_only_the_dual_riemann_roch(self, pairings):
        # serre_dual re-validates chi on K - D: D'.D' and K.D', two pairings.
        for p, r in self._profiles():
            pairings.clear()
            assert duality_check(p, r)
            assert len(pairings) == 2

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_direct_pairing(self, data):
        x = _catalog(data.draw(st.sampled_from(sorted(STANDARD_BUILDERS))))
        coords = tuple(data.draw(
            st.lists(st.integers(-4, 4), min_size=x.b2, max_size=x.b2)))
        vd = HomologyClass(x, coords).virtual_dim()
        chi = x.chi_h + vd
        h0 = data.draw(st.integers(0, 12))
        h1 = max(0, h0 - chi) + data.draw(st.integers(0, 12))
        p = CohomologyProfile(h0, h1, chi - h0 + h1, HomologyClass(x, coords))
        assert p.virtual_dim == vd
        dual = serre_dual(p)
        assert dual.virtual_dim == dual.divisor.virtual_dim()


@lru_cache(maxsize=None)
def _catalog(name):
    return STANDARD_BUILDERS[name]()


class TestParity:
    def test_first_is_odd(self):
        assert gr_parity(1) == 1

    @pytest.mark.parametrize("n", range(2, 11))
    def test_rest_even(self, n):
        assert gr_parity(n) == 0

    @given(st.integers(1, 64))
    @settings(max_examples=64)
    def test_matches_carry_count_oracle(self, n):
        # Kummer: binom(a+b, a) is odd iff adding a and b in base 2 has no
        # carries, i.e. a & b == 0. Here a = b = n - 1.
        odd = ((n - 1) & (n - 1)) == 0
        assert gr_parity(n) == (1 if odd else 0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gr_parity(0)
