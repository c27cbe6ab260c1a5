"""Named consequence checks: report structure and verdicts on the
catalog."""

from fractions import Fraction

import pytest

from sympencil import applications
from sympencil.applications import CheckReport, run_all
from sympencil.catalog import STANDARD_BUILDERS
from sympencil.lattice import FourManifoldLattice, blow_up, is_even_form
from sympencil.pencil import count_decision


def by_name(reports):
    return {rep.check_name: rep for rep in reports}


def small_one_lattice():
    # diag(1,-1^8) with K = (3,1^8): b+ = 1, K.K = 1, K.omega = 3 > 0.
    q = [[0] * 9 for _ in range(9)]
    for i in range(9):
        q[i][i] = 1 if i == 0 else -1
    return FourManifoldLattice(
        label="one-model",
        b1=0,
        form=q,
        canonical=[3] + [1] * 8,
        omega=[1] + [0] * 8,
        minimal=True,
    )


class TestRunAllCatalog:
    def test_reports_sorted_by_name(self):
        reports = run_all(STANDARD_BUILDERS["k3"](), [(0,) * 22])
        names = [rep.check_name for rep in reports]
        assert names == sorted(names)

    def test_triple_sum_fails_minimality(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3_sum3"]()))["minimality_bound"]
        assert rep.verdict == "fail"
        assert rep.numbers["two_e_plus_3sigma"] == -8

    def test_k3_passes_minimality(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3"]()))["minimality_bound"]
        assert rep.verdict == "pass"
        assert rep.numbers["two_e_plus_3sigma"] == 0

    def test_minimality_skipped_without_flag(self):
        rep = by_name(run_all(STANDARD_BUILDERS["e1"]()))["minimality_bound"]
        assert rep.verdict == "not-applicable"
        assert rep.numbers["minimal"] is False

    def test_minimality_skipped_for_b_plus_one(self):
        rep = by_name(run_all(STANDARD_BUILDERS["cp2"]()))["minimality_bound"]
        assert rep.verdict == "not-applicable"
        assert rep.numbers["b_plus"] == 1

    @pytest.mark.parametrize("entry", [1.9, True, Fraction(1)])
    def test_non_integer_class_not_truncated(self, entry):
        with pytest.raises(TypeError, match="class coordinates"):
            run_all(STANDARD_BUILDERS["cp2"](), [(entry,)])

    def test_plane_classification_and_count(self):
        reports = by_name(run_all(STANDARD_BUILDERS["cp2"](), [(1,)]))
        cls = reports["b_plus_one_classification"]
        assert cls.verdict == "pass"
        assert cls.numbers["homeo_type"] == "cp2"
        count = reports["surface_count[1]"]
        assert count.verdict == "pass"
        assert count.numbers["decision"] == "PlusMinusOne"

    def test_quadric_classifies_even(self):
        rep = by_name(run_all(STANDARD_BUILDERS["s2xs2"]()))[
            "b_plus_one_classification"
        ]
        assert rep.verdict == "pass"
        assert rep.numbers["homeo_type"] == "s2xs2"

    def test_nine_point_blowup_rejected(self):
        rep = by_name(run_all(STANDARD_BUILDERS["e1"]()))[
            "b_plus_one_classification"
        ]
        assert rep.verdict == "fail"
        assert rep.numbers["b_minus"] == 9
        assert "homeo_type" not in rep.numbers

    def test_blown_up_plane_classifies_by_b_minus(self):
        xp = blow_up(STANDARD_BUILDERS["cp2"](), 3)
        rep = by_name(run_all(xp))["b_plus_one_classification"]
        assert rep.verdict == "pass"
        assert rep.numbers["homeo_type"] == "cp2#3cp2bar"

    def test_classification_skipped_for_high_b_plus(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3"]()))[
            "b_plus_one_classification"
        ]
        assert rep.verdict == "not-applicable"

    def test_classification_skipped_for_positive_k_omega(self):
        flipped = FourManifoldLattice("flip", 0, [[1]], [3], [1], True)
        rep = by_name(run_all(flipped))["b_plus_one_classification"]
        assert rep.verdict == "not-applicable"
        assert rep.numbers["k_omega"] == 3

    def test_k3_spin_parity_odd(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3"]()))["spin_parity"]
        assert rep.verdict == "pass"
        assert rep.numbers["parity"] == "odd"
        assert rep.numbers["n"] == 1
        assert rep.numbers["homotopy_k3_range"] is True

    def test_doubled_spin_model_parity_even(self):
        rep = by_name(run_all(STANDARD_BUILDERS["e4"]()))["spin_parity"]
        assert rep.verdict == "pass"
        assert rep.numbers["parity"] == "even"
        assert rep.numbers["homotopy_k3_range"] is False

    def test_spin_parity_needs_square_zero(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3_sum3"]()))["spin_parity"]
        assert rep.verdict == "not-applicable"

    def test_spin_parity_needs_even_form(self):
        rep = by_name(run_all(STANDARD_BUILDERS["e3"]()))["spin_parity"]
        assert rep.verdict == "not-applicable"


class TestInflationGate:
    def test_plane_fails_on_k_omega(self):
        rep = by_name(run_all(STANDARD_BUILDERS["cp2"]()))["inflation_hypotheses"]
        assert rep.verdict == "fail"
        assert rep.numbers["k_omega"] == -3

    def test_skipped_when_b_plus_high(self):
        rep = by_name(run_all(STANDARD_BUILDERS["k3"]()))["inflation_hypotheses"]
        assert rep.verdict == "not-applicable"

    def test_skipped_without_minimality_flag(self):
        rep = by_name(run_all(STANDARD_BUILDERS["e1"]()))["inflation_hypotheses"]
        assert rep.verdict == "not-applicable"

    def test_positive_small_model_passes(self):
        rep = by_name(run_all(small_one_lattice()))["inflation_hypotheses"]
        assert rep.verdict == "pass"
        assert rep.numbers["k_squared"] == 1
        assert rep.numbers["k_omega"] == 3


class TestSelfCertification:
    def test_verdicts_recomputable_from_numbers(self):
        for name in ("cp2", "k3", "k3_sum3", "e1", "e3"):
            for rep in run_all(STANDARD_BUILDERS[name]()):
                if rep.check_name == "minimality_bound" and rep.verdict != "not-applicable":
                    assert (rep.verdict == "pass") == (
                        rep.numbers["two_e_plus_3sigma"] >= 0
                    )
                if rep.check_name == "inflation_hypotheses" and rep.verdict != "not-applicable":
                    k_omega = Fraction(rep.numbers["k_omega"])
                    assert (rep.verdict == "pass") == (
                        rep.numbers["k_squared"] > 0 and k_omega > 0
                    )
                if rep.check_name == "b_plus_one_classification" and rep.verdict != "not-applicable":
                    assert (rep.verdict == "pass") == (rep.numbers["b_minus"] <= 8)

    def test_unknown_count_reports_not_applicable(self):
        reports = by_name(run_all(STANDARD_BUILDERS["cp2"](), [(0,)]))
        rep = reports["surface_count[0]"]
        assert rep.verdict == "not-applicable"
        assert rep.numbers["decision"] == "Unknown"

    def test_count_reports_carry_context(self):
        reports = by_name(run_all(STANDARD_BUILDERS["k3"](), [(0,) * 22]))
        rep = reports["surface_count[" + ",".join(["0"] * 22) + "]"]
        assert rep.verdict == "pass"
        assert rep.numbers["decision"] == "PlusMinusOne"
        assert rep.numbers["virtual_dim"] == 0

    def test_deterministic(self):
        x = STANDARD_BUILDERS["k3"]()
        assert run_all(x, [(0,) * 22]) == run_all(x, [(0,) * 22])


class TestPairingCounts:
    """run_all forms K.omega once for the checks that print it; each class
    adds the pairings of its count decision."""

    def test_parity_formed_once(self, monkeypatch):
        # On CP2 both the b+ = 1 classification and the spin parity check
        # apply, and both print the form's parity.
        calls = []

        def counted(x):
            calls.append(x)
            return is_even_form(x)

        monkeypatch.setattr(applications, "is_even_form", counted)
        reports = by_name(run_all(STANDARD_BUILDERS["cp2"]()))
        assert len(calls) == 1
        assert reports["b_plus_one_classification"].numbers["even"] is False
        assert reports["spin_parity"].numbers["even"] is False

    @pytest.mark.parametrize("name", ["cp2", "k3", "e1", "e3"])
    def test_no_class_pairs_k_omega_once(self, pairings, name):
        x = STANDARD_BUILDERS[name]()
        run_all(x, [])
        assert pairings == [(x.omega, x.canonical)]

    def test_one_class_adds_the_pairings_of_count_decision(self, pairings):
        x = STANDARD_BUILDERS["k3"]()
        count_decision(x, (0,) * 22)
        decision = len(pairings)
        pairings.clear()
        run_all(x, [(0,) * 22])
        assert len(pairings) == 1 + decision
