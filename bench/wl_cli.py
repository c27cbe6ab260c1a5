"""cli-batch: one fresh ``python -m sympencil.cli`` process per op.

One client, at most one child alive. Every round holds the same mix:

* the nine commands, each in both ``--format`` values, on small catalog
  manifolds (``hilb`` with r <= 3);
* the ten fixed invocations of acceptance criterion 12, compared byte for
  byte, with their exit codes, against ``golden/criterion12.json``;
* four malformed inputs that must exit 2 without a traceback: bad JSON, a
  wrong class width, a bad flag value, and ``"omega": ["1/0"]``;
* twelve ops (about a quarter) on two generated manifolds with b2 in the
  hundreds: manifold-check, count, pencil and classify --classes.

Small ops are mostly interpreter start and import, so op_p50_ms measures
start-up; the large quarter puts op_p90_ms on signature and lattice
validation. The seed picks manifolds, classes, flags and op order.
"""

from __future__ import annotations

import json
import re
import traceback
from pathlib import Path

from sympencil import catalog, exact

import manifolds
from children import run_child
import speed
from oracles import KNOWN_DEFECT, Op, check_classify, check_count, check_pencil
from oracles import duality_holds, expect, section_count

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN = BENCH_DIR / "golden" / "criterion12.json"
SCHEMA = BENCH_DIR.parent / "src" / "sympencil" / "data" / "report.schema.json"

SMALL = ("cp2", "s2xs2", "e1", "e3", "e4", "k3", "k3_sum3")
LARGE = (lambda: manifolds.elliptic_type(20), lambda: manifolds.spin_type(8))
STRATA = ("smooth", "singular", "b1zero")

# Acceptance criterion 12, with file arguments as placeholders.
CRITERION_12 = (
    ["manifold-check", "{cp2}"],
    ["gromov", "{e3}", "--class", "{e3_canonical}", "--h0", "2", "--h2", "1"],
    ["duality", "{e3}", "--class", "{e3_canonical}", "--h0", "2", "--h2", "1"],
    ["pencil", "{cp2}", "--k", "3", "--class", "1"],
    ["count", "{cp2}", "--class", "1"],
    ["bn", "--g", "5", "--r", "2", "--s", "1"],
    ["aj-fibres", "--g", "4", "--r", "6"],
    ["hilb", "--r", "2", "--samples", "8", "--seed", "1729", "--stratum", "singular"],
    ["classify", "{k3_sum3}"],
    ["classify", "{cp2}", "--classes", "{classes}"],
)

SETUP_REPEATS = 5
TRACE_ROUNDS = 1
SPEED = speed.INTERPRETER
PEAK_RSS_OF_CHILDREN = True


class State:
    def __init__(self, workdir: Path):
        from jsonschema import Draft202012Validator

        workdir.mkdir(parents=True)
        self.workdir = workdir
        self.files = 0
        self.manifolds = {}
        self.paths = {}
        for name in SMALL:
            data = catalog.lattice_to_dict(catalog.STANDARD_BUILDERS[name]())
            self.add(manifolds.Manifold(name, data, *manifolds.CATALOG_SIGNATURES[name]))
        self.large = [self.add(make()) for make in LARGE]
        bad = dict(self.manifolds["cp2"].data, omega=["1/0"])
        self.paths["zero_denominator"] = self.write("zero_denominator.json", bad)
        self.paths["bad_json"] = workdir / "bad.json"
        self.paths["bad_json"].write_text('{"label": "cp2", "b1": 0, "Q": [[1]', "utf-8")
        self.paths["classes"] = self.write("classes.json", [[1], [0]])
        e3 = ",".join(str(c) for c in self.manifolds["e3"].canonical)
        self.fill = {k: str(v) for k, v in self.paths.items()}
        self.fill["e3_canonical"] = e3
        self.golden = []
        self.validator = Draft202012Validator(json.loads(SCHEMA.read_text("utf-8")))

    def add(self, m):
        self.manifolds[m.name] = m
        self.paths[m.name] = self.write(f"{m.name}.json", m.data)
        return m

    def write(self, name: str, data) -> Path:
        path = self.workdir / name
        path.write_text(json.dumps(data), "utf-8")
        return path

    def classes_file(self, classes) -> str:
        self.files += 1
        return str(self.write(f"classes{self.files}.json", [list(c) for c in classes]))


def setup(seed, workdir):
    state = State(workdir)
    state.golden = json.loads(GOLDEN.read_text("utf-8"))
    return state


def warm_up(state) -> list[Op]:
    """One fresh process, so the first timed op does not pay for cold
    file caches or bytecode compilation."""
    return golden_ops(state)[5:6]


# -- running one invocation --------------------------------------------------


def fresh(args):
    proc = run_child(["-m", "sympencil.cli", *args])
    return proc.returncode, proc.stdout, proc.stderr.decode("utf-8", "replace")


def in_process(args):
    from click.testing import CliRunner
    from sympencil import cli

    res = CliRunner().invoke(cli.main, args, catch_exceptions=True)
    err = res.stderr
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        err += "Traceback (most recent call last):\n" + "".join(
            traceback.format_exception_only(res.exception))
    return res.exit_code, res.stdout_bytes, err


def cli_op(group, args, check) -> Op:
    return Op(group, lambda: fresh(args), check, lambda: in_process(args))


# -- output checks -----------------------------------------------------------


_INT = re.compile(r"-?[0-9]+")


def _scalar(text: str):
    if text in ("True", "False"):
        return text == "True"
    if text == "None":
        return None
    return int(text) if _INT.fullmatch(text) else text


def parse_text(out: str):
    """Rebuild the payload from ``--format text`` lines (dotted keys,
    numeric parts as list indices). Lists of scalars stay strings."""
    root: dict = {}
    for line in out.splitlines():
        key, sep, value = line.partition(": ")
        if not sep:
            key, value = line.rstrip(":"), ""
        node = root
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = _scalar(value)
    return _listify(root)


def _listify(node):
    if not isinstance(node, dict):
        return node
    items = {k: _listify(v) for k, v in node.items()}
    if items and all(k.isdigit() for k in items):
        return [items[str(i)] for i in range(len(items))]
    return items


def reported(state, fmt, verify):
    """Check a report op: no traceback, schema-valid JSON (or parseable
    text), and the exit code the re-derived verdict implies."""
    def check(out):
        code, stdout, stderr = out
        expect("Traceback" not in stderr, f"traceback: {stderr[-200:]}")
        text = stdout.decode("utf-8")
        if fmt == "json":
            payload = json.loads(text)
            error = next(iter(state.validator.iter_errors(payload)), None)
            expect(error is None, f"schema: {error and error.message}")
        else:
            payload = parse_text(text)
        want = verify(payload, fmt)
        expect(code == want, f"exit code {code}, verdict implies {want}")
    return check


def usage_error(out):
    code, stdout, stderr = out
    expect(code == 2, f"malformed input exited {code}")
    expect(stdout == b"", "malformed input printed a report")
    expect("Traceback" not in stderr and stderr.strip(), "no one-line error")


def zero_denominator(out):
    """Contract: exit 2 with a message. Known defect (ROADMAP item 4):
    exit 1 with a ZeroDivisionError traceback. Anything else fails."""
    code, _, stderr = out
    lines = stderr.strip().splitlines()
    if code == 1 and "Traceback" in stderr and lines[-1].startswith("ZeroDivisionError"):
        return KNOWN_DEFECT
    usage_error(out)
    return None


def golden_check(entry):
    want = (entry["exit_code"], entry["stdout"].encode("utf-8"))

    def check(out):
        expect((out[0], out[1]) == want, "differs from the criterion-12 bytes")
    return check


# -- verdicts re-derived per command -------------------------------------------


def v_manifold_check(m):
    def verify(p, fmt):
        k_sq = m.pair(m.canonical, m.canonical)
        two_e_3s = 2 * m.euler + 3 * m.signature
        expect(p["valid"] is True and p["label"] == m.data["label"], "manifold-check")
        expect((p["b1"], p["b2"], p["b_plus"], p["b_minus"]) ==
               (m.b1, m.b2, m.b_plus, m.b_minus), "manifold-check: betti numbers")
        expect((p["euler"], p["signature"]) == (m.euler, m.signature), "e, sigma")
        expect(p["two_e_plus_3sigma"] == two_e_3s == k_sq == p["k_squared"], "K.K")
        expect(manifolds.rational(p["chi_h"]) == m.chi_h, "chi_h")
        even = all(m.data["Q"][i][i] % 2 == 0 for i in range(m.b2))
        expect(p["even_form"] == even and p["minimal"] == m.minimal, "flags")
        return 0
    return verify


def v_gromov(m, h0, h2, r):
    def verify(p, fmt):
        expect((p["h0"], p["h1"], p["h2"]) == (h0, 0, h2), "gromov: profile")
        expect(p["chi"] == h0 + h2 and p["virtual_dim"] == r, "gromov: chi, r")
        expect(p["invariant"] == section_count(exact.binom, h0, h2, r), "invariant")
        return 0
    return verify


def v_duality(m, h0, h2, r):
    def verify(p, fmt):
        holds = duality_holds(exact.binom, h0, h2, r)
        expect(p["profile"] == {"h0": h0, "h1": 0, "h2": h2}, "duality: profile")
        expect(p["dual_profile"] == {"h0": h2, "h1": 0, "h2": h0}, "dual profile")
        expect(p["invariant"] == section_count(exact.binom, h0, h2, r), "invariant")
        expect(p["dual_invariant"] == section_count(exact.binom, h2, h0, r), "dual")
        expect(p["magnitudes_equal"] == holds, "duality: verdict")
        return 0 if holds else 1
    return verify


def v_pencil(m, k, coords):
    def verify(p, fmt):
        check_pencil(m, k, coords, p["genus"], p["base_points"], p["critical_fibres"],
                     p["fibre_degree"], p["residual_degree"])
        expect(p["degree_sum"] == p["fibre_degree"] + p["residual_degree"], "sum")
        return 0
    return verify


def v_count(m, coords):
    def verify(p, fmt):
        check_count(m, coords, p["kind"], p["value"], p["context"])
        return 0
    return verify


def v_bn(g, r, s):
    def verify(p, fmt):
        rho = g - (s + 1) * (g - r + s)
        expect(p["rho"] == rho and p["excess_codimension"] == (rho < -1), "bn")
        return 0
    return verify


def v_aj(g, r):
    def verify(p, fmt):
        jump = 2 * g - 2 - r
        expect(p["generic_dim"] == r - g, "aj: generic dimension")
        if jump < 0:
            want = (None, None, "empty")
        else:
            want = (r - g + 1, jump, "point" if jump == 0 else f"Sym^{jump} of the fibre")
        expect((p["jump_dim"], p["jump_locus_degree"], p["descriptor"]) == want, "aj")
        return 0
    return verify


def v_hilb(r, samples, stratum):
    def verify(p, fmt):
        expect(p["passed"] is True and p["failures"] == 0, "hilb: certification failed")
        expect((p["r"], p["samples"], p["stratum"]) == (r, samples, stratum), "hilb")
        expect(p["expected_kernel_dim"] == r * r + 1, "hilb: r^2 + 1")
        if fmt == "json":
            expect(p["kernel_dims_observed"] == [r * r + 1], "hilb: observed")
        return 0
    return verify


def v_classify(m, classes):
    def verify(p, fmt):
        return 1 if check_classify(exact.binom, m, classes, p) else 0
    return verify


# -- the mix -------------------------------------------------------------------


def _cls(coords) -> str:
    return ",".join(str(c) for c in coords)


def report_op(state, rng, command, m, fmt, group) -> Op:
    """One well-formed invocation of ``command`` with seed-drawn flags."""
    path = str(state.paths[m.name])
    tail = ["--format", fmt]
    if command == "manifold-check":
        args, verify = [command, path], v_manifold_check(m)
    elif command in ("gromov", "duality"):
        coords, r = manifolds.class_of_small_dim(rng, m, 2)
        chi = int(m.chi_h) + r
        h0 = rng.randint(1, chi)
        args = [command, path, "--class", _cls(coords), "--h0", str(h0),
                "--h2", str(chi - h0)]
        verify = (v_gromov if command == "gromov" else v_duality)(m, h0, chi - h0, r)
    elif command == "pencil":
        k = rng.randint(1, 3)
        coords = manifolds.sparse_class(rng, m, min(m.b2, rng.randint(1, 4)))
        args = [command, path, "--k", str(k), "--class", _cls(coords)]
        verify = v_pencil(m, k, coords)
    elif command == "count":
        coords = manifolds.sparse_class(rng, m, min(m.b2, rng.randint(1, 4)))
        args, verify = [command, path, "--class", _cls(coords)], v_count(m, coords)
    elif command == "bn":
        g = rng.randint(2, 12)
        r, s = rng.randint(0, 2 * g), rng.randint(0, 4)
        args = [command, "--g", str(g), "--r", str(r), "--s", str(s)]
        verify = v_bn(g, r, s)
    elif command == "aj-fibres":
        g = rng.randint(2, 12)
        r = rng.randint(g, 3 * g)
        args, verify = [command, "--g", str(g), "--r", str(r)], v_aj(g, r)
    elif command == "hilb":
        r, samples = rng.randint(1, 3), rng.randint(2, 6)
        stratum = rng.choice(STRATA)
        args = [command, "--r", str(r), "--samples", str(samples), "--seed",
                str(rng.randrange(1 << 20)), "--stratum", stratum]
        verify = v_hilb(r, samples, stratum)
    elif command == "classify":
        classes = [manifolds.sparse_class(rng, m, min(m.b2, rng.randint(1, 4)))
                   for _ in range(rng.randint(1, 3))]
        args = [command, path, "--classes", state.classes_file(classes)]
        verify = v_classify(m, classes)
    else:
        raise ValueError(command)
    return cli_op(group, args + tail, reported(state, fmt, verify))


COMMANDS = ("manifold-check", "gromov", "duality", "pencil", "count", "bn",
            "aj-fibres", "hilb", "classify")
LARGE_COMMANDS = ("manifold-check", "count", "pencil", "classify")


def golden_ops(state) -> list[Op]:
    ops = []
    for entry in state.golden:
        args = [a.format(**state.fill) for a in entry["args"]]
        ops.append(cli_op("golden", args, golden_check(entry)))
    return ops


def malformed_ops(state, rng) -> list[Op]:
    small = state.manifolds[rng.choice(SMALL)]
    cp2 = str(state.paths["cp2"])
    bad_flags = (
        ["hilb", "--r", "2", "--samples", "0"],
        ["bn", "--g", "five", "--r", "2", "--s", "1"],
        ["pencil", cp2, "--k", "0"],
        ["manifold-check", cp2, "--format", "xml"],
        ["hilb", "--r", "2", "--samples", "3", "--stratum", "nowhere"],
    )
    return [
        cli_op("malformed", [rng.choice(("manifold-check", "classify")),
                             str(state.paths["bad_json"])], usage_error),
        cli_op("malformed", ["count", str(state.paths[small.name]), "--class",
                             _cls([1] * (small.b2 + 1))], usage_error),
        cli_op("malformed", list(rng.choice(bad_flags)), usage_error),
        cli_op("zero_denominator", rng.choice((
            ["manifold-check", str(state.paths["zero_denominator"])],
            ["count", str(state.paths["zero_denominator"]), "--class", "1"],
        )), zero_denominator),
    ]


def make_round(state, rng) -> list[Op]:
    ops = golden_ops(state) + malformed_ops(state, rng)
    for command in COMMANDS:
        for fmt in ("json", "text"):
            m = state.manifolds[rng.choice(SMALL)]
            ops.append(report_op(state, rng, command, m, fmt, "small"))
    for i, command in enumerate(LARGE_COMMANDS):
        for j, m in enumerate(state.large + [state.large[i % 2]]):
            fmt = "json" if j < 2 else "text"
            ops.append(report_op(state, rng, command, m, fmt, f"large/{m.name}"))
    rng.shuffle(ops)
    return ops


def trace_metrics(ops, results, lat) -> dict:
    return {
        "cli.inprocess_ms": 1000.0 * sum(lat) / len(lat),
        "cli.stdout_bytes": sum(len(out[1]) for out in results) / len(results),
    }

