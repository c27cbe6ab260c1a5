import random
from fractions import Fraction

import pytest

from conftest import class_of_virtual_dim, elliptic, ratio_convergence
from sympencil.catalog import STANDARD_BUILDERS
from sympencil.lattice import FourManifoldLattice, HomologyClass
from sympencil.pencil import (
    build_pencil,
    count_decision,
    fibre_degree,
    fibre_degree_blowup_route,
    primitive_symplectic_class,
    residual_fibre_degree,
)


class TestBuildPencil:
    @pytest.mark.parametrize(
        "k,expected",
        [(1, (0, 1, 0)), (2, (0, 4, 3)), (3, (1, 9, 12)), (4, (3, 16, 27))],
    )
    def test_plane_pencils(self, k, expected):
        cp2 = STANDARD_BUILDERS["cp2"]()
        p = build_pencil(cp2, k)
        assert (p.genus, p.base_points, p.critical_fibres) == expected

    def test_k3_pencil(self):
        k3 = STANDARD_BUILDERS["k3"]()
        p = build_pencil(k3, 1)
        assert p.base_points == 2
        assert p.genus == 2
        assert p.critical_fibres == 24 + 2 - (4 - 8)

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError):
            build_pencil(STANDARD_BUILDERS["cp2"](), 0)

    def test_primitive_normalization(self):
        x = FourManifoldLattice(
            "frac", 0, [[0, 1], [1, 0]], [-2, -2],
            [Fraction(1, 2), Fraction(1, 3)], True,
        )
        assert primitive_symplectic_class(x) == (3, 2)

    def test_primitive_divides_out_common_factor(self):
        x = FourManifoldLattice(
            "scaled", 0, [[0, 1], [1, 0]], [-2, -2], [4, 6], True
        )
        assert primitive_symplectic_class(x) == (2, 3)


class TestFibreDegree:
    def test_plane_cubics_with_line(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        p = build_pencil(cp2, 3)
        assert fibre_degree(p, [1]) == 12

    def test_zero_class_gives_base_points(self):
        k3 = STANDARD_BUILDERS["k3"]()
        p = build_pencil(k3, 1)
        assert fibre_degree(p, [0] * k3.b2) == p.base_points

    def test_blowup_route_agrees(self):
        rng = random.Random(5)
        for name, k in (("cp2", 1), ("cp2", 2), ("cp2", 3), ("s2xs2", 1)):
            x = STANDARD_BUILDERS[name]()
            p = build_pencil(x, k)
            for _ in range(10):
                a = [rng.randint(-4, 4) for _ in range(x.b2)]
                assert fibre_degree(p, a) == fibre_degree_blowup_route(p, a)

    def test_residual_fills_out_adjunction(self):
        rng = random.Random(11)
        for name in ("cp2", "s2xs2", "k3", "e3"):
            x = STANDARD_BUILDERS[name]()
            p = build_pencil(x, 2)
            for _ in range(20):
                a = [rng.randint(-5, 5) for _ in range(x.b2)]
                assert (
                    fibre_degree(p, a) + residual_fibre_degree(p, a)
                    == 2 * p.genus - 2
                )


    def test_non_integer_class_not_truncated(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        p = build_pencil(cp2, 3)
        for route in (fibre_degree, residual_fibre_degree,
                      fibre_degree_blowup_route):
            with pytest.raises(TypeError):
                route(p, [1.9])

    def test_class_length_checked(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        p = build_pencil(cp2, 3)
        for route in (fibre_degree, residual_fibre_degree,
                      fibre_degree_blowup_route):
            with pytest.raises(ValueError):
                route(p, [1, 2])


class TestRatioConvergence:
    def test_plane_value_at_fifty(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        table = ratio_convergence(cp2, [1], [50])
        assert table == [(50, Fraction(47, 51))]

    def test_plane_closed_form(self):
        # (2g-2)/r = (k-3)/(k+1) for the plane with the line class.
        cp2 = STANDARD_BUILDERS["cp2"]()
        for k, ratio in ratio_convergence(cp2, [1], range(10, 40, 7)):
            assert ratio == Fraction(k - 3, k + 1)

    def test_monotone_and_close_to_one(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        table = ratio_convergence(cp2, [1], range(50, 121))
        ratios = [r for _, r in table]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        assert all(abs(r - 1) < Fraction(1, 10) for r in ratios)

    def test_doubling_halves_distance_to_one(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        ((_, r50),) = ratio_convergence(cp2, [1], [50])
        ((_, r100),) = ratio_convergence(cp2, [1], [100])
        shrink = abs(r100 - 1) / abs(r50 - 1)
        assert Fraction(1, 2) < shrink < Fraction(1, 2) + Fraction(1, 50)

    def test_zero_degree_rejected(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        with pytest.raises(ValueError, match="fibre degree"):
            ratio_convergence(cp2, [-1], [1])


class TestIndices:
    def test_virtual_dims(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        assert HomologyClass(cp2, (1,)).virtual_dim() == 2
        for name in ("cp2", "k3", "e3", "e4"):
            x = STANDARD_BUILDERS[name]()
            assert HomologyClass(x, x.canonical).virtual_dim() == 0
            assert HomologyClass(x, (0,) * x.b2).virtual_dim() == 0


class TestCountDecision:
    def test_negative_virtual_dim(self):
        k3 = STANDARD_BUILDERS["k3"]()
        a = [0] * 22
        a[6] = 1  # root of the first -E8 block: a.a = -2, K.a = 0
        v = count_decision(k3, a)
        assert v.kind == "Zero"
        assert "negative" in v.reason

    def test_simple_type_off_diagonal(self):
        k3 = STANDARD_BUILDERS["k3"]()
        a = [0] * 22
        a[0] = a[1] = 1  # a.a = 2 != 0 = K.a, virtual dim 1
        v = count_decision(k3, a)
        assert v.kind == "Zero"
        assert "simple type" in v.reason

    def test_omega_bounds(self):
        e3 = STANDARD_BUILDERS["e3"]()
        a = tuple(-c for c in e3.canonical)
        v = count_decision(e3, a)
        assert v.kind == "Zero"
        assert "a.omega" in v.reason

    def test_plane_line_is_plus_minus_one(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        v = count_decision(cp2, [1])
        assert v.kind == "PlusMinusOne"
        assert v.context["section_torus_dim"] == 0

    @pytest.mark.parametrize("entry", [1.9, True, "1", Fraction(1, 2), Fraction(1)])
    def test_non_integer_class_not_truncated(self, entry):
        cp2 = STANDARD_BUILDERS["cp2"]()
        with pytest.raises(TypeError, match="class coordinates"):
            count_decision(cp2, [entry])

    def test_canonical_and_zero_class(self):
        e3 = STANDARD_BUILDERS["e3"]()
        assert count_decision(e3, e3.canonical).kind == "PlusMinusOne"
        assert count_decision(e3, [0] * e3.b2).kind == "PlusMinusOne"

    def test_unknown_without_profile(self):
        x = elliptic(4)
        d = class_of_virtual_dim(x, 4, 0)
        assert count_decision(x, d.coords).kind == "Unknown"

    def test_rule_exclusivity_sweep(self):
        # Whenever the +/-1 rule for {0, kappa} fires, the Zero-rule
        # hypotheses must genuinely fail, so no ordering ambiguity exists
        # on catalog data.
        rng = random.Random(99)
        for name in ("k3", "e3", "e4", "k3_sum3"):
            x = STANDARD_BUILDERS[name]()
            k_omega = x.omega_dot(x.canonical)
            assert k_omega >= 0
            for a in ([0] * x.b2, list(x.canonical)):
                v = count_decision(x, a)
                assert v.kind == "PlusMinusOne"
                a_omega = x.omega_dot(a)
                assert 0 <= a_omega <= k_omega
                assert x.square(a) == x.k_dot(a)
            for _ in range(10):
                a = [rng.randint(-3, 3) for _ in range(x.b2)]
                v = count_decision(x, a)
                assert v.kind in {"Zero", "PlusMinusOne", "Unknown"}
