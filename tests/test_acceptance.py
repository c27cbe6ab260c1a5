"""Acceptance suite: twelve executable criteria, one test line each.

Every check is exact (integer or Fraction comparisons); the timed ones
assert their wall-clock budget on top of correctness. Tolerances are part
of the contract and must not be loosened.
"""

import json
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from sympencil.applications import run_all
from sympencil.catalog import STANDARD_BUILDERS, lattice_to_dict
from sympencil.cli import main as cli_main
from sympencil.exact import binom
from sympencil.gromov import duality_check, gr_parity, gromov_invariant, vanishing_profile
from sympencil.hilb import certify_stratum, sample_commuting_diagonal, verify_absolute_cokernel, STRATA
from sympencil.lattice import HomologyClass, blow_up, twist
from sympencil.pencil import build_pencil
from sympencil.brill_noether import AbelJacobiFibres, BNQuery, abel_jacobi_fibre_dims, eh_predicate, rho

from conftest import elliptic, profile_pair_sample, ratio_convergence, series_geom_pow, spin_half_canonical_profile
from test_brill_noether import RHO_GRID


def test_criterion_01_canonical_class_invariant_is_plus_minus_one():
    start = time.monotonic()
    for p_g in range(1, 11):
        x = elliptic(p_g + 1)
        assert (x.b_plus - 1) // 2 == p_g
        profile = vanishing_profile(x, x.canonical, p_g, 1)
        assert profile.virtual_dim == 0
        value = gromov_invariant(profile)
        assert abs(value) == 1
        assert value == (-1) ** (p_g - 1)
    assert time.monotonic() - start < 1.0


def test_criterion_02_spin_profile_matches_central_binomial_and_series_oracle():
    start = time.monotonic()
    for n in range(1, 9):
        profile = spin_half_canonical_profile(n)
        assert profile.virtual_dim == 0
        value = gromov_invariant(profile)
        assert abs(value) == binom(2 * n - 2, n - 1)
        assert value == series_geom_pow(-n, n)[n - 1]
    assert time.monotonic() - start < 1.0


def test_criterion_03_duality_sweep_500_consistent_profiles():
    start = time.monotonic()
    rng = random.Random(20260822)
    for _ in range(500):
        profile, r = profile_pair_sample(rng)
        assert duality_check(profile, r)
    assert time.monotonic() - start < 5.0


def test_criterion_04_central_binomial_parity_odd_only_at_one():
    for n in range(1, 21):
        assert gr_parity(n) == (1 if n == 1 else 0)


def test_criterion_05_kernel_dimension_certification_all_strata():
    start = time.monotonic()
    for r in range(1, 6):
        for stratum in STRATA:
            report = certify_stratum(stratum, r, samples=50)
            assert report.failures == 0, (stratum, r)
            assert report.passed
            assert report.kernel_dims_observed == (r * r + 1,)
    assert time.monotonic() - start < 60.0


def test_criterion_06_absolute_model_cokernel_deficiency():
    start = time.monotonic()
    for r in range(1, 6):
        for seed in range(10):
            assert verify_absolute_cokernel(sample_commuting_diagonal(r, seed))
    assert time.monotonic() - start < 10.0


def test_criterion_07_blow_up_preserves_virtual_dimension():
    start = time.monotonic()
    rng = random.Random(404)
    pool = [build() for build in STANDARD_BUILDERS.values()]
    blown = {}
    for _ in range(1000):
        x = rng.choice(pool)
        coords = tuple(rng.randint(-4, 4) for _ in range(x.b2))
        n = rng.randint(1, 10)
        key = (x.label, n)
        if key not in blown:
            blown[key] = blow_up(x, n)
        xp = blown[key]
        before = HomologyClass(x, coords).virtual_dim()
        after = HomologyClass(xp, twist(xp, coords)).virtual_dim()
        assert before == after
    assert time.monotonic() - start < 5.0


def test_criterion_08_plane_pencil_numerology():
    x = STANDARD_BUILDERS["cp2"]()
    expected = {1: (0, 1, 0), 2: (0, 4, 3), 3: (1, 9, 12)}
    for k, (g, n, delta) in expected.items():
        pencil = build_pencil(x, k)
        assert (pencil.genus, pencil.base_points, pencil.critical_fibres) == (g, n, delta)


def test_criterion_09_degree_ratio_converges_monotonically():
    x = STANDARD_BUILDERS["cp2"]()
    table = ratio_convergence(x, (1,), range(50, 201))
    gaps = [abs(ratio - 1) for _, ratio in table]
    assert all(gap < Fraction(1, 10) for gap in gaps)
    assert all(late < early for early, late in zip(gaps, gaps[1:]))


def test_criterion_10_brill_noether_grid_boundary_and_fibre_profile():
    for (g, r, s), expected in RHO_GRID:
        assert rho(BNQuery(g, r, s)) == expected
    # deficiency threshold: codimension one short of excess is not enough
    assert not eh_predicate(BNQuery(3, 2, 1))       # rho = -1
    assert eh_predicate(BNQuery(4, 2, 1))           # rho = -2
    for g in range(2, 9):
        profile = abel_jacobi_fibre_dims(g, 2 * g - 2)
        assert profile == AbelJacobiFibres(g - 2, g - 1, 0, "point")


def test_criterion_11_application_verdicts():
    def verdicts(name):
        return {rep.check_name: rep for rep in run_all(STANDARD_BUILDERS[name]())}

    bound = verdicts("k3_sum3")["minimality_bound"]
    assert bound.verdict == "fail"
    assert bound.numbers["two_e_plus_3sigma"] == -8

    plane = verdicts("cp2")["b_plus_one_classification"]
    assert plane.verdict == "pass"
    assert plane.numbers["homeo_type"] == "cp2"

    nine = verdicts("e1")["b_plus_one_classification"]
    assert nine.verdict == "fail"
    assert nine.numbers["b_minus"] == 9


def test_criterion_12_cli_reruns_are_byte_identical(tmp_path):
    runner = CliRunner()
    files = {}
    for name in ("cp2", "e3", "k3_sum3"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice_to_dict(STANDARD_BUILDERS[name]())))
        files[name] = str(path)
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps([[1], [0]]))
    canonical = ",".join(str(c) for c in STANDARD_BUILDERS["e3"]().canonical)
    invocations = [
        ["manifold-check", files["cp2"]],
        ["gromov", files["e3"], "--class", canonical, "--h0", "2", "--h2", "1"],
        ["duality", files["e3"], "--class", canonical, "--h0", "2", "--h2", "1"],
        ["pencil", files["cp2"], "--k", "3", "--class", "1"],
        ["count", files["cp2"], "--class", "1"],
        ["bn", "--g", "5", "--r", "2", "--s", "1"],
        ["aj-fibres", "--g", "4", "--r", "6"],
        ["hilb", "--r", "2", "--samples", "8", "--seed", "1729", "--stratum", "singular"],
        ["classify", files["k3_sum3"]],
        ["classify", files["cp2"], "--classes", str(classes)],
    ]
    for args in invocations:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        assert first.output == second.output, args
        assert first.exit_code == second.exit_code, args
        json.loads(first.output)  # every report is parseable JSON
