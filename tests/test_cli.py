"""CLI: command outputs, exit codes, determinism, and schema conformance."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from click.testing import CliRunner

from sympencil import __version__
from sympencil.catalog import STANDARD_BUILDERS, lattice_to_dict
from sympencil.cli import _Command, main
from sympencil.strata import (MAX_B2, MAX_BLOCK, MAX_CLASSES, MAX_FILE_BYTES, MAX_R,
                              MAX_SAMPLES)

SCHEMA = json.loads(
    (resources.files("sympencil") / "data" / "report.schema.json").read_text()
)


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def manifold_file(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(lattice_to_dict(STANDARD_BUILDERS[name]())))
        return str(path)

    return write


def check(runner, args, expect_exit=0, env=None):
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == expect_exit, result.output
    return result


def parsed(result):
    payload = json.loads(result.output)
    jsonschema.validate(payload, SCHEMA)
    return payload


class TestManifoldCheck:
    def test_valid_file(self, runner, manifold_file):
        result = check(runner, ["manifold-check", manifold_file("k3")])
        payload = parsed(result)
        assert payload["valid"] is True
        assert payload["b_plus"] == 3
        assert payload["k_squared"] == 0
        assert payload["even_form"] is True

    @pytest.mark.parametrize("chi_h, valid", [("1/2", True), ("1\n", False)])
    def test_schema_rational_admits_no_trailing_newline(self, runner, manifold_file,
                                                        chi_h, valid):
        """A rational string of the report schema matches in full, as
        ``catalog.parse_rational`` reads one: ``$`` does not stop before a
        final newline."""
        payload = parsed(check(runner, ["manifold-check", manifold_file("cp2")]))
        validator = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)
        assert validator.is_valid(dict(payload, chi_h=chi_h)) is valid

    def test_invalid_lattice_exits_one(self, runner, tmp_path):
        data = lattice_to_dict(STANDARD_BUILDERS["cp2"]())
        data["K"] = [5]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        result = check(runner, ["manifold-check", str(path)], expect_exit=1)
        payload = parsed(result)
        assert payload["valid"] is False
        assert "K.K" in payload["error"]

    def test_malformed_json_exits_two(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        check(runner, ["manifold-check", str(path)], expect_exit=2)

    def test_missing_field_exits_two(self, runner, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"label": "x"}))
        check(runner, ["manifold-check", str(path)], expect_exit=2)

    def test_zero_denominator_exits_two(self, runner, tmp_path):
        data = lattice_to_dict(STANDARD_BUILDERS["cp2"]())
        data["omega"] = ["1/0"]
        path = tmp_path / "zero_den.json"
        path.write_text(json.dumps(data))
        result = check(runner, ["manifold-check", str(path)], expect_exit=2)
        assert "zero denominator" in result.output

    def test_text_format(self, runner, manifold_file):
        result = check(runner, ["manifold-check", manifold_file("cp2"),
                                "--format", "text"])
        assert "label: cp2" in result.output
        assert "valid: True" in result.output

    def test_text_format_label_cannot_forge_a_line(self, runner, tmp_path):
        # A label with a newline is written as its JSON literal, so it is
        # one label line and no false verdict line follows it.
        data = lattice_to_dict(STANDARD_BUILDERS["cp2"]())
        data["label"] = "a\nvalid: False"
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(data))
        result = check(runner, ["manifold-check", str(path), "--format", "text"])
        lines = result.output.splitlines()
        assert [ln for ln in lines if ln.startswith("label:")] == [
            'label: "a\\nvalid: False"']
        assert "valid: False" not in lines
        assert "valid: True" in lines


class TestGromovAndDuality:
    def canonical_args(self, name):
        x = STANDARD_BUILDERS[name]()
        return ",".join(str(c) for c in x.canonical)

    def test_gromov_canonical_class(self, runner, manifold_file):
        result = check(runner, [
            "gromov", manifold_file("e3"),
            "--class", self.canonical_args("e3"), "--h0", "2", "--h2", "1",
        ])
        payload = parsed(result)
        assert payload["invariant"] == -1
        assert payload["virtual_dim"] == 0
        assert payload["h1"] == 0

    def test_gromov_inconsistent_sections_exit_two(self, runner, manifold_file):
        check(runner, [
            "gromov", manifold_file("e3"),
            "--class", self.canonical_args("e3"), "--h0", "7", "--h2", "1",
        ], expect_exit=2)

    def test_duality_passes(self, runner, manifold_file):
        result = check(runner, [
            "duality", manifold_file("e3"),
            "--class", self.canonical_args("e3"), "--h0", "2", "--h2", "1",
        ])
        payload = parsed(result)
        assert payload["magnitudes_equal"] is True
        assert abs(payload["invariant"]) == abs(payload["dual_invariant"])
        assert payload["dual_profile"] == {"h0": 1, "h1": 0, "h2": 2}

    def test_wrong_class_width_exit_two(self, runner, manifold_file):
        check(runner, [
            "gromov", manifold_file("e3"), "--class", "1,2",
            "--h0", "1", "--h2", "1",
        ], expect_exit=2)


class TestPencilAndCount:
    def test_class_parts_may_have_ascii_spaces(self, runner, manifold_file):
        s2xs2 = manifold_file("s2xs2")
        spaced = check(runner, ["count", s2xs2, "--class", " 1, 0 "])
        plain = check(runner, ["count", s2xs2, "--class", "1,0"])
        assert spaced.output == plain.output

    def test_pencil_cubic(self, runner, manifold_file):
        result = check(runner, ["pencil", manifold_file("cp2"), "--k", "3"])
        payload = parsed(result)
        assert payload["genus"] == 1
        assert payload["base_points"] == 9
        assert payload["critical_fibres"] == 12

    def test_pencil_with_class_degrees(self, runner, manifold_file):
        result = check(runner, ["pencil", manifold_file("cp2"),
                                "--k", "3", "--class", "1"])
        payload = parsed(result)
        assert payload["fibre_degree"] == 12
        assert payload["residual_degree"] == -12
        assert payload["degree_sum"] == 2 * payload["genus"] - 2

    def test_pencil_bad_degree_exit_two(self, runner, manifold_file):
        check(runner, ["pencil", manifold_file("cp2"), "--k", "0"],
              expect_exit=2)

    def test_count_hyperplane(self, runner, manifold_file):
        result = check(runner, ["count", manifold_file("cp2"), "--class", "1"])
        payload = parsed(result)
        assert payload["kind"] == "PlusMinusOne"
        assert payload["context"]["virtual_dim"] == 2

    def test_count_negative_dimension(self, runner, manifold_file):
        result = check(runner, ["count", manifold_file("cp2"), "--class", "-1"])
        payload = parsed(result)
        assert payload["kind"] == "Zero"


class TestCurveCommands:
    def test_bn(self, runner):
        result = check(runner, ["bn", "--g", "5", "--r", "2", "--s", "1"])
        payload = parsed(result)
        assert payload["rho"] == -3
        assert payload["excess_codimension"] is True

    def test_bn_bad_genus_exit_two(self, runner):
        check(runner, ["bn", "--g", "1", "--r", "2", "--s", "1"], expect_exit=2)

    def test_aj_fibres_top_degree(self, runner):
        result = check(runner, ["aj-fibres", "--g", "4", "--r", "6"])
        payload = parsed(result)
        assert payload["generic_dim"] == 2
        assert payload["jump_dim"] == 3
        assert payload["descriptor"] == "point"

    def test_aj_fibres_no_jump(self, runner):
        result = check(runner, ["aj-fibres", "--g", "3", "--r", "7"])
        payload = parsed(result)
        assert payload["jump_dim"] is None
        assert payload["descriptor"] == "empty"

    def test_aj_fibres_low_degree_exit_two(self, runner):
        check(runner, ["aj-fibres", "--g", "4", "--r", "3"], expect_exit=2)


class TestHilbCommand:
    def test_singular_run(self, runner):
        result = check(runner, ["hilb", "--r", "3", "--samples", "6",
                                "--seed", "7", "--stratum", "singular"])
        payload = parsed(result)
        assert payload["failures"] == 0
        assert payload["kernel_dims_observed"] == [10]
        assert payload["passed"] is True
        assert payload["seed"] == 7

    def test_failed_certification_names_its_samples(self, runner, monkeypatch):
        from sympencil import hilb

        real = hilb.kernel_dimension
        calls = []

        def off_at_index_one(q):
            calls.append(q)
            return q.r * q.r if len(calls) == 2 else real(q)

        monkeypatch.setattr(hilb, "kernel_dimension", off_at_index_one)
        result = check(runner, ["hilb", "--r", "3", "--samples", "4", "--seed", "-5"],
                       expect_exit=1, env={"SYMPENCIL_WORKERS": "1"})
        payload = parsed(result)
        assert payload["failing_samples"] == [{"index": 1, "seed": -4, "kernel_dim": 9}]
        assert (payload["failures"], payload["passed"]) == (1, False)

    def test_failing_singular_sample_reruns_from_its_seed(self, runner, monkeypatch):
        """A fault at one point of a singular run is named by its seed, and
        ``--seed <seed> --samples 1`` redraws that point: it fails again."""
        from sympencil import hilb

        real = hilb.kernel_dimension
        points = []

        def recorded(q):
            points.append(q)
            return real(q)

        args = ["hilb", "--stratum", "singular", "--r", "3"]
        env = {"SYMPENCIL_WORKERS": "1"}
        monkeypatch.setattr(hilb, "kernel_dimension", recorded)
        check(runner, args + ["--samples", "5", "--seed", "20"], env=env)
        bad = points[2]
        monkeypatch.setattr(hilb, "kernel_dimension",
                            lambda q: q.r * q.r if q == bad else real(q))
        result = check(runner, args + ["--samples", "5", "--seed", "20"],
                       expect_exit=1, env=env)
        failing = parsed(result)["failing_samples"]
        assert failing == [{"index": 2, "seed": 22, "kernel_dim": 9}]
        rerun = check(runner, args + ["--samples", "1", "--seed", str(failing[0]["seed"])],
                      expect_exit=1, env=env)
        assert parsed(rerun)["failing_samples"] == [{"index": 0, "seed": 22, "kernel_dim": 9}]

    def test_passing_report_has_no_failing_samples(self, runner):
        payload = parsed(check(runner, ["hilb", "--r", "2", "--samples", "3"]))
        assert "failing_samples" not in payload
        # The schema ties the field to failures > 0, both ways.
        sample = [{"index": 0, "seed": 1729, "kernel_dim": 4}]
        for bad in (dict(payload, failures=1), dict(payload, failing_samples=sample)):
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, SCHEMA)

    def test_default_seed_documented_constant(self, runner):
        result = check(runner, ["hilb", "--r", "1", "--samples", "2"])
        assert parsed(result)["seed"] == 1729

    @pytest.mark.parametrize("stratum", ["smooth", "singular", "b1zero"])
    def test_seed_past_the_integer_string_limit(self, runner, stratum):
        # The smooth stratum seeds its lambda from the sample seed, which
        # here has 4,301 digits.
        result = check(runner, ["hilb", "--r", "1", "--samples", "2",
                                "--seed", "9" * 4300, "--stratum", stratum])
        assert parsed(result)["passed"] is True

    def test_worker_env_does_not_change_output(self, runner):
        args = ["hilb", "--r", "2", "--samples", "6", "--stratum", "b1zero"]
        one = check(runner, args, env={"SYMPENCIL_WORKERS": "1"})
        two = check(runner, args, env={"SYMPENCIL_WORKERS": "2"})
        assert one.output == two.output

    def test_bad_worker_env_exit_two(self, runner):
        check(runner, ["hilb", "--r", "2", "--samples", "2"],
              expect_exit=2, env={"SYMPENCIL_WORKERS": "zero"})

    def test_help_states_the_caps(self, runner):
        result = check(runner, ["hilb", "--help"])
        assert f"1 to {MAX_R}." in result.output
        assert f"1 to {MAX_SAMPLES}." in result.output

    def test_help_states_the_worker_cap(self, runner):
        # The cap is the CPUs the process may use (its affinity set), not
        # the host's CPU count.
        text = " ".join(check(runner, ["hilb", "--help"]).output.split())
        assert ("at most the CPUs the process may use and at most --samples "
                "of them run.") in text

    def test_bad_stratum_exit_two(self, runner):
        check(runner, ["hilb", "--r", "2", "--samples", "2",
                       "--stratum", "mystery"], expect_exit=2)


class TestClassifyCommand:
    def test_triple_sum_fails_exit_one(self, runner, manifold_file):
        result = check(runner, ["classify", manifold_file("k3_sum3")],
                       expect_exit=1)
        payload = parsed(result)
        failing = [rep for rep in payload if rep["verdict"] == "fail"]
        assert [rep["check_name"] for rep in failing] == ["minimality_bound"]
        assert failing[0]["numbers"]["two_e_plus_3sigma"] == -8

    def test_plane_with_classes(self, runner, manifold_file, tmp_path):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps([[1], [0]]))
        result = check(runner, ["classify", manifold_file("cp2"),
                                "--classes", str(classes)], expect_exit=1)
        payload = parsed(result)
        names = [rep["check_name"] for rep in payload]
        assert names == sorted(names)
        assert "surface_count[1]" in names
        by = {rep["check_name"]: rep for rep in payload}
        assert by["b_plus_one_classification"]["numbers"]["homeo_type"] == "cp2"
        # exit 1 comes from the inflation gate: K.omega = -3 < 0.
        assert by["inflation_hypotheses"]["verdict"] == "fail"

    def test_all_checks_clean_exit_zero(self, runner, manifold_file):
        check(runner, ["classify", manifold_file("k3")])

    def test_bad_classes_file_exit_two(self, runner, manifold_file, tmp_path):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps([["h"]]))
        check(runner, ["classify", manifold_file("cp2"),
                       "--classes", str(classes)], expect_exit=2)

    def test_wrong_width_classes_exit_two(self, runner, manifold_file, tmp_path):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps([[1, 2, 3]]))
        check(runner, ["classify", manifold_file("cp2"),
                       "--classes", str(classes)], expect_exit=2)


class TestDeterminism:
    def test_every_command_byte_identical_on_rerun(self, runner, manifold_file, tmp_path):
        classes = tmp_path / "classes.json"
        classes.write_text(json.dumps([[1]]))
        cp2 = manifold_file("cp2")
        e3 = manifold_file("e3")
        canonical = ",".join(str(c) for c in STANDARD_BUILDERS["e3"]().canonical)
        invocations = [
            ["manifold-check", cp2],
            ["gromov", e3, "--class", canonical, "--h0", "2", "--h2", "1"],
            ["duality", e3, "--class", canonical, "--h0", "2", "--h2", "1"],
            ["pencil", cp2, "--k", "3", "--class", "1"],
            ["count", cp2, "--class", "1"],
            ["bn", "--g", "5", "--r", "2", "--s", "1"],
            ["aj-fibres", "--g", "4", "--r", "6"],
            ["hilb", "--r", "2", "--samples", "5", "--seed", "11",
             "--stratum", "smooth"],
            ["classify", cp2, "--classes", str(classes)],
        ]
        for args in invocations:
            first = runner.invoke(main, args)
            second = runner.invoke(main, args)
            assert first.output == second.output, args
            assert first.exit_code == second.exit_code, args

    def test_unknown_command_exit_two(self, runner):
        check(runner, ["transmogrify"], expect_exit=2)


CP2 = lattice_to_dict(STANDARD_BUILDERS["cp2"]())

# Malformed invocations, each built from a writer of one input file and the
# catalog manifold fixture.
BAD_INPUTS = {
    "bad_json": lambda write, m: ["classify", write('{"label": "cp2", "Q": [[1]')],
    "not_utf8": lambda write, m: ["manifold-check", write(b'\xff{"label": "cp2"}')],
    "class_width": lambda write, m: ["count", m("e3"), "--class", "1,2"],
    "class_arabic_indic_digit": lambda write, m: ["count", m("cp2"), "--class", "\u0661"],
    "class_plus_sign": lambda write, m: ["count", m("cp2"), "--class", "+1"],
    "class_underscore": lambda write, m: ["count", m("cp2"), "--class", "1_0"],
    "class_tab": lambda write, m: ["count", m("cp2"), "--class", "\t1"],
    "flag_value": lambda write, m: ["bn", "--g", "five", "--r", "2", "--s", "1"],
    "flag_choice": lambda write, m: ["manifold-check", m("cp2"), "--format", "xml"],
    "zero_denominator": lambda write, m: [
        "manifold-check", write(json.dumps(dict(CP2, omega=["1/0"])))],
    "omega_pattern": lambda write, m: [
        "manifold-check", write(json.dumps(dict(CP2, omega=["1/-2"])))],
    "omega_digits": lambda write, m: [
        "manifold-check", write(json.dumps(dict(CP2, omega=["1" * 5000])))],
    "float_entry": lambda write, m: [
        "manifold-check", write(json.dumps(dict(CP2, Q=[[1.0]])))],
    "string_entry": lambda write, m: [
        "count", write(json.dumps(dict(CP2, K=["-3"]))), "--class", "1"],
    "hilb_r_cap": lambda write, m: [
        "hilb", "--r", str(MAX_R + 1), "--samples", "2", "--stratum", "singular"],
    "hilb_samples_cap": lambda write, m: [
        "hilb", "--r", "2", "--samples", str(MAX_SAMPLES + 1)],
    "unknown_option": lambda write, m: ["--bogus"],
    "unknown_command": lambda write, m: ["transmogrify"],
    "missing_command": lambda write, m: [],
    # (arguments, environment) pairs
    "workers_underscore": lambda write, m: (
        ["hilb", "--r", "1", "--samples", "2"], {"SYMPENCIL_WORKERS": "1_0"}),
    "workers_plus_sign": lambda write, m: (
        ["hilb", "--r", "1", "--samples", "2"], {"SYMPENCIL_WORKERS": "+1"}),
    "workers_non_ascii_digit": lambda write, m: (
        ["hilb", "--r", "1", "--samples", "2"], {"SYMPENCIL_WORKERS": "\u0661"}),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_usage_error_is_one_line_on_stderr(runner, manifold_file, tmp_path, case):
    def write(text):
        path = tmp_path / "input.json"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return str(path)

    args = BAD_INPUTS[case](write, manifold_file)
    args, env = args if isinstance(args, tuple) else (args, None)
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.stderr


LONG_INTEGER = "1" * 5000


@pytest.mark.parametrize("text", [
    "[" * 100_000,
    '{"label": "cp2", "Q": [[' + LONG_INTEGER + "]]}",
    "[[" + LONG_INTEGER + "]]",
], ids=["deep_nesting", "long_integer_in_q", "long_integer_in_list"])
@pytest.mark.parametrize("reads", ["manifold", "classes"])
def test_json_the_reader_rejects_names_the_file(runner, manifold_file, tmp_path,
                                                reads, text):
    """Nesting past the recursion limit and an integer past the interpreter's
    digit limit give one `Error:` line that names the file, no traceback
    and no interpreter setting."""
    path = tmp_path / "input.json"
    path.write_text(text)
    args = (["manifold-check", str(path)] if reads == "manifold"
            else ["classify", manifold_file("cp2"), "--classes", str(path)])
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout) == (2, ""), result.output
    assert result.stderr.startswith(f"Error: {path} ")
    assert result.stderr.count("\n") == 1
    assert "set_int_max_str_digits" not in result.stderr


@pytest.mark.parametrize("over", [0, 1], ids=["at_limit", "one_byte_past"])
@pytest.mark.parametrize("reads", ["manifold", "classes"])
def test_file_size_limit(runner, manifold_file, tmp_path, monkeypatch, reads, over):
    """A file of MAX_FILE_BYTES bytes reads; one byte more exits 2 with one
    `Error:` line that names the file and the limit. The limit is lowered
    to 4 KiB, above the cp2 manifold file, so both files meet it."""
    from sympencil import cli

    limit = 4096
    monkeypatch.setattr(cli, "MAX_FILE_BYTES", limit)
    path = tmp_path / "input.json"
    if reads == "manifold":
        text = json.dumps(lattice_to_dict(STANDARD_BUILDERS["cp2"]()))
        args, read_exit = ["manifold-check", str(path)], 0
    else:
        # Once the classes are read, classify reports; cp2 fails inflation.
        text = "[[1], [0]]"
        args, read_exit = ["classify", manifold_file("cp2"), "--classes", str(path)], 1
    path.write_text(text + " " * (limit + over - len(text)))
    assert path.stat().st_size == limit + over
    result = runner.invoke(main, args)
    if not over:
        assert (result.exit_code, result.stderr) == (read_exit, ""), result.output
        return
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"Error: {path} is larger than the 4,096-byte file limit\n"


@pytest.mark.parametrize("over", [0, 1], ids=["at_limit", "one_past"])
def test_class_count_limit(runner, manifold_file, tmp_path, monkeypatch, over):
    """A classes file of MAX_CLASSES classes is decided; one class more
    exits 2 with one `Error:` line that names the file and the limit,
    before any class is checked: the extra class is malformed, and its own
    error does not show. The limit is lowered to 3."""
    from sympencil import cli

    limit = 3
    monkeypatch.setattr(cli, "MAX_CLASSES", limit)
    path = tmp_path / "classes.json"
    path.write_text(json.dumps([[1]] * limit + [["h"]] * over))
    result = runner.invoke(main, ["classify", manifold_file("cp2"),
                                  "--classes", str(path)])
    if not over:
        # cp2 fails inflation, so the report exits 1.
        assert (result.exit_code, result.stderr) == (1, ""), result.output
        names = [rep["check_name"] for rep in json.loads(result.stdout)]
        assert names.count("surface_count[1]") == limit
        return
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"Error: {path} holds 4 classes, past the 3-class limit\n"


def test_help_states_the_class_limit(runner):
    result = check(runner, ["classify", "--help"])
    assert f"at most {MAX_CLASSES:,} class vectors" in " ".join(result.output.split())


def test_help_states_the_file_limit(runner):
    assert f"at most {MAX_FILE_BYTES:,} bytes." in check(runner, ["--help"]).output


# Every command that reads a manifold file, with arguments for k3: b2 = 22,
# and its largest direct-sum block is a -E8 block of 8 rows.
_K3_ZERO = ",".join(["0"] * 22)
_MANIFOLD_COMMANDS = {
    "manifold-check": [],
    "gromov": ["--class", _K3_ZERO, "--h0", "1", "--h2", "1"],
    "duality": ["--class", _K3_ZERO, "--h0", "1", "--h2", "1"],
    "pencil": ["--k", "1"],
    "count": ["--class", _K3_ZERO],
    "classify": [],
}
_K3_SIZES = {"MAX_B2": 22, "MAX_BLOCK": 8}


@pytest.mark.parametrize("over", [0, 1], ids=["at_limit", "one_past"])
@pytest.mark.parametrize("limit", sorted(_K3_SIZES))
@pytest.mark.parametrize("command", sorted(_MANIFOLD_COMMANDS))
def test_manifold_size_limits(runner, manifold_file, monkeypatch, command,
                              limit, over):
    """A manifold at the b2 limit, or with a block at the block limit,
    reports as it does under the default limits; one row past either
    exits 2 with one `Error:` line that names the file and the limit,
    manifold-check included, and before any elimination. The limit is
    lowered to k3's size, or one below it."""
    from sympencil import cli, lattice

    path = manifold_file("k3")
    args = [command, path, *_MANIFOLD_COMMANDS[command]]
    expected = runner.invoke(main, args)
    assert expected.exit_code in (0, 1) and expected.stderr == ""
    size = _K3_SIZES[limit]
    monkeypatch.setattr(cli, limit, size - over)
    if not over:
        result = runner.invoke(main, args)
        assert (result.exit_code, result.stdout, result.stderr) == (
            expected.exit_code, expected.stdout, "")
        return

    def eliminate(rows):
        raise AssertionError("eliminated past the limit")

    monkeypatch.setattr(lattice, "_dense_signature", eliminate)
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout) == (2, "")
    message = {
        "MAX_B2": "has b2 = 22, past the b2 limit of 21",
        "MAX_BLOCK": "has a direct-sum block of 8 rows, past the 7-row block limit",
    }[limit]
    assert result.stderr == f"Error: {path} {message}\n"


@pytest.mark.parametrize("command", sorted(_MANIFOLD_COMMANDS))
def test_unknown_manifold_field_exit_two(runner, tmp_path, command):
    """The manifold schema allows no other fields, and neither does any
    command that reads a manifold file, manifold-check included."""
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(
        dict(lattice_to_dict(STANDARD_BUILDERS["k3"]()), note="x")))
    result = runner.invoke(main, [command, str(path), *_MANIFOLD_COMMANDS[command]])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == (
        f"Error: {path}: manifold file has unknown fields: ['note']\n")


def test_help_states_the_manifold_limits(runner):
    text = " ".join(check(runner, ["--help"]).output.split())
    assert (f"b2 at most {MAX_B2:,}, and no direct-sum block of its form "
            f"more than {MAX_BLOCK:,} rows.") in text


# W.W, a.a and the other squares have about 4,400 digits, past the
# interpreter's int-to-str limit; the inputs themselves are below it.
_NINES = "9" * 2200


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("args", [
    ["pencil", "--k", _NINES],
    ["count", "--class", _NINES],
], ids=["pencil_k", "count_class"])
def test_unprintable_result_exits_two(runner, manifold_file, args, fmt):
    """A result that cannot be written as text is an input error: one
    `Error:` line, no traceback, and nothing on stdout, not even the
    lines sorted before the long value."""
    command, *options = args
    result = runner.invoke(main, [command, manifold_file("cp2"), *options,
                                  "--format", fmt])
    assert (result.exit_code, result.stdout) == (2, ""), result.output
    assert result.stderr == ("Error: the result holds an integer with too "
                             "many digits to print\n")


# Each integer option with the other arguments of a valid invocation.
_INTEGER_OPTIONS = [
    (["gromov", "<cp2>", "--class", "1", "--h2", "0"], "--h0"),
    (["gromov", "<cp2>", "--class", "1", "--h0", "3"], "--h2"),
    (["duality", "<cp2>", "--class", "1", "--h2", "0"], "--h0"),
    (["duality", "<cp2>", "--class", "1", "--h0", "3"], "--h2"),
    (["pencil", "<cp2>"], "--k"),
    (["bn", "--r", "2", "--s", "1"], "--g"),
    (["bn", "--g", "5", "--s", "1"], "--r"),
    (["bn", "--g", "5", "--r", "2"], "--s"),
    (["aj-fibres", "--r", "2"], "--g"),
    (["aj-fibres", "--g", "5"], "--r"),
    (["hilb", "--samples", "1"], "--r"),
    (["hilb", "--r", "1"], "--samples"),
    (["hilb", "--r", "1", "--samples", "1"], "--seed"),
]


@pytest.mark.parametrize("value", ["1_0", "+2", "\u0662", "\t2"],
                         ids=["underscore", "plus_sign", "arabic_indic_digit",
                              "tab"])
@pytest.mark.parametrize("args, option", _INTEGER_OPTIONS,
                         ids=[f"{a[0]}{o}" for a, o in _INTEGER_OPTIONS])
def test_integer_options_take_only_ascii_digits(runner, manifold_file, args,
                                                option, value):
    """Every integer option has the grammar of ``--class``: ``-?[0-9]+``,
    with the failure message click gave."""
    args = [manifold_file("cp2") if a == "<cp2>" else a for a in args]
    result = runner.invoke(main, [*args, option, value])
    assert (result.exit_code, result.stdout) == (2, ""), result.output
    assert result.stderr == (f"Error: Invalid value for '{option}': "
                             f"{value!r} is not a valid integer.\n")


def test_every_command_takes_the_report_path():
    """Every command is a `_Command` of the table, whose callback returns
    its report to the one dispatcher: none prints, writes to a stream or
    exits, so none renders its own report or sets its own exit code."""
    assert len(main.commands) == 9
    for name, command in main.commands.items():
        assert isinstance(command, _Command), name
        names = set(command.callback.__code__.co_names)
        assert not names & {"sys", "print", "exit", "_exit", "stdout", "stderr",
                            "_echo", "_render"}, name


def _source_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_does_not_load_process_pool():
    """A fresh `import sympencil.cli` loads neither the process-pool modules
    (only `hilb` with several workers does), nor the modules that only some
    commands use, nor `dataclasses`, nor `click`."""
    probe = (
        "import sys, sympencil.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
        "'sympencil.hilb', 'sympencil.brill_noether', 'sympencil.applications', "
        "'dataclasses', 'click') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=_source_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_version_in_a_source_checkout():
    """`--version` prints the package's own version string, so it needs no
    installed package metadata and works with only `src` on the path."""
    out = subprocess.run([sys.executable, "-m", "sympencil.cli", "--version"],
                         env=_source_env(), capture_output=True, text=True)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, f"sympencil, version {__version__}\n", "")


def test_a_command_process_imports_no_click(tmp_path):
    """A whole `manifold-check` run, as a fresh process, imports no `click`
    module: `-X importtime` names every module the process imports."""
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(lattice_to_dict(STANDARD_BUILDERS["cp2"]())))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sympencil.cli", "manifold-check",
         str(path)], env=_source_env(), capture_output=True, text=True)
    assert out.returncode == 0 and json.loads(out.stdout)["valid"] is True
    imported = [line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                if line.startswith("import time:") and line.count("|") == 2]
    assert "sympencil.lattice" in imported
    assert [name for name in imported if name.split(".")[0] == "click"] == []


@pytest.mark.parametrize("spaced, joined", [
    (["bn", "--g", "5", "--r", "2", "--s", "1"], ["bn", "--g=5", "--r=2", "--s", "1"]),
    (["count", "<cp2>", "--class", "-1"], ["count", "<cp2>", "--class=-1"]),
    (["hilb", "--r", "1", "--samples", "2", "--stratum", "b1zero"],
     ["hilb", "--r=1", "--samples=2", "--stratum=b1zero"]),
    (["manifold-check", "<cp2>", "--format", "text"],
     ["manifold-check", "<cp2>", "--format=text"]),
], ids=["bn", "count", "hilb", "format"])
def test_option_value_after_an_equals_sign(runner, manifold_file, spaced, joined):
    """``--opt=value`` in one argument is ``--opt value`` in two."""
    def args(template):
        return [manifold_file("cp2") if a == "<cp2>" else a for a in template]

    want = check(runner, args(spaced))
    assert runner.invoke(main, args(joined)).output == want.output


def test_option_value_may_start_with_a_dash(runner, manifold_file):
    """The argument after an option is its value, even when it looks like
    an option: a class such as ``-3,0,1``, or ``--help`` itself."""
    e1 = manifold_file("e1")
    canonical = ",".join(str(c) for c in STANDARD_BUILDERS["e1"]().canonical)
    assert canonical.startswith("-3,")
    payload = parsed(check(runner, ["count", e1, "--class", canonical]))
    assert payload["class"] == [int(c) for c in canonical.split(",")]
    result = runner.invoke(main, ["count", e1, "--class", "--help"])
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == "Error: class '--help' is not a comma-separated integer list\n"


def test_last_occurrence_of_an_option_wins(runner):
    twice = check(runner, ["bn", "--g", "9", "--r", "2", "--s", "1", "--g", "5"])
    assert parsed(twice)["g"] == 5
    assert parsed(twice) == parsed(check(runner, ["bn", "--g", "5", "--r", "2", "--s", "1"]))


@pytest.mark.parametrize("args, option", [
    (a, o) for a, o in _INTEGER_OPTIONS if o != "--seed"],
    ids=[f"{a[0]}{o}" for a, o in _INTEGER_OPTIONS if o != "--seed"])
def test_missing_required_option_is_named(runner, manifold_file, args, option):
    args = [manifold_file("cp2") if a == "<cp2>" else a for a in args]
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr == f"Error: Missing option '{option}'.\n"


@pytest.mark.parametrize("args, message", [
    (["count", "--class", "1"], "Missing argument 'MANIFOLD'."),
    (["count", ".", "--class", "1"], "Invalid value for 'MANIFOLD': File '.' is a directory."),
    (["bn", "--g", "5", "--r", "2", "--s", "1", "extra"],
     "Got unexpected extra argument (extra)"),
    (["bn", "--g", "5", "--r", "2", "--s", "1", "--", "--a", "b"],
     "Got unexpected extra arguments (--a b)"),
    (["bn", "--g"], "Option '--g' requires an argument."),
    (["bn", "--help=1"], "Option '--help' does not take a value."),
    (["bn", "-x"], "No such option '-x'."),
    (["count", "-3,0,1"], "No such option '-3'."),
    (["bn", "--nonexistent", "5"], "No such option '--nonexistent'."),
    (["--version=1"], "Option '--version' does not take a value."),
    # click checks the options given, in the order given, before MANIFOLD
    # and before the options not given.
    (["gromov", "missing.json", "--h2", "x", "--class", "1"],
     "Invalid value for '--h2': 'x' is not a valid integer."),
    (["gromov", "missing.json", "--class", "1"],
     "Invalid value for 'MANIFOLD': File 'missing.json' does not exist."),
], ids=["no_manifold", "directory", "extra_argument", "extra_arguments", "no_value",
        "flag_value", "short_option", "negative_class_alone", "unknown_option",
        "version_value", "given_option_first", "manifold_before_missing_options"])
def test_usage_errors_read_as_click_wrote_them(runner, tmp_path, monkeypatch, args,
                                                message):
    monkeypatch.chdir(tmp_path)
    result = runner.invoke(main, args)
    assert (result.exit_code, result.stdout, result.stderr) == (2, "", f"Error: {message}\n")


def test_help_and_version_come_before_any_check(runner):
    """``--help`` prints the page and exits 0 whatever else is wrong with
    the options after it, and ``--version`` or ``--help``, the first given,
    acts before the command."""
    page = check(runner, ["hilb", "--help", "--r", "x"]).stdout
    assert page.startswith("Usage: sympencil hilb [OPTIONS]\n") and "--stratum" in page
    assert check(runner, ["--version", "--help"]).stdout == f"sympencil, version {__version__}\n"
    assert check(runner, ["--help", "--version"]).stdout.startswith("Usage: sympencil [OPTIONS]")
    assert check(runner, ["--version", "transmogrify"]).stdout.endswith(__version__ + "\n")
