"""Check the ``pencil`` and ``count`` reports of the CLI corpus against
their input files with the benchmark's output oracles.

    python3 tests/report_oracle.py

Every recorded ``pencil`` or ``count`` invocation that exits 0, in either
output format, is parsed into its fields and handed, with a
``manifolds.Manifold`` built from the file it names, to
``oracles.check_pencil`` or ``oracles.check_count`` in ``bench/``. Those
recompute each product by the benchmark's own pairing and re-derive the
count decision, without package code, as they do for the benchmark's live
reports. This module adds only what they do not check: the pencil's fibre
class and degree sum, and the count's reason, citations and
``section_torus_dim``. A record that exits otherwise must have printed
nothing on stdout.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.json"
sys.path.append(str(HERE.parent / "bench"))

import oracles  # noqa: E402
from manifolds import CATALOG_SIGNATURES, Manifold  # noqa: E402
from oracles import Mismatch, expect  # noqa: E402

# How the reasons of each count kind start. The first PlusMinusOne reason
# is the b+ = 1 rule, the one whose context adds section_torus_dim = 0.
REASONS = {
    "Zero": ("virtual dimension (a.a - K.a)/2 is negative",
             "b+ > 1 + b1 and a.a != K.a",
             "b+ > 1 + b1 and a.omega outside [0, K.omega]"),
    "PlusMinusOne": ("b+ = 1, b1 = 0, a.omega > 0 and a.a > K.a",
                     "the zero and canonical classes"),
    "Unknown": ("no decisive hypothesis",),
}


def _fields(stdout: str, text: bool) -> dict[str, str]:
    """The report as ``key: value`` strings, nested keys joined by dots
    and lists by ", ", which is how the text format prints it."""
    if text:
        return dict(line.split(": ", 1) for line in stdout.splitlines())
    flat = {}

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}{key}.", item)
        else:
            flat[prefix[:-1]] = (", ".join(map(str, value))
                                 if isinstance(value, list) else str(value))

    walk("", json.loads(stdout))
    return flat


def _ints(value: str) -> list[int]:
    return [int(t) for t in value.replace(",", " ").split()]


def _options(args: list[str]) -> dict[str, str]:
    """``--name value`` pairs after the command and its manifold path."""
    return dict(zip(args[2::2], args[3::2]))


def check_pencil(m: Manifold, args: list[str], f: dict[str, str]) -> None:
    opts = _options(args)
    k = int(opts["--k"])
    coords = _ints(opts["--class"]) if "--class" in opts else None
    degree, residual = (None, None) if coords is None else (
        int(f["fibre_degree"]), int(f["residual_degree"]))
    oracles.check_pencil(m, k, coords, int(f["genus"]), int(f["base_points"]),
                         int(f["critical_fibres"]), degree, residual)
    expect(_ints(f["fibre_class"]) == [k * v for v in oracles._primitive(m.omega)],
           "pencil: fibre class")
    if coords is not None:
        expect(int(f["degree_sum"]) == degree + residual, "pencil: degree sum")


def check_count(m: Manifold, args: list[str], f: dict[str, str]) -> None:
    context = {key.split(".", 1)[1]: value
               for key, value in f.items() if key.startswith("context.")}
    for key in ("a_sq", "k_dot_a", "virtual_dim", "b_plus", "b1"):
        context[key] = int(context[key])
    value = None if f["value"] == "None" else f["value"]
    oracles.check_count(m, _ints(_options(args)["--class"]), f["kind"], value,
                        context)
    reason = f["reason"]
    expect(any(map(reason.startswith, REASONS[f["kind"]])), "count: reason")
    expect(f["citations"] == reason, "count: citations")
    plus_one_rule = reason.startswith(REASONS["PlusMinusOne"][0])
    expect(context.get("section_torus_dim") == ("0" if plus_one_rule else None),
           "count: section_torus_dim")


CHECKS = {"pencil": check_pencil, "count": check_count}


def check_corpus(corpus: dict) -> tuple[int, list[str]]:
    """The number of reports checked, and one line per report that fails."""
    checked, problems = 0, []
    for inv in corpus["invocations"]:
        args = inv["args"]
        if not args or args[0] not in CHECKS:
            continue
        if inv["exit_code"] != 0:
            if inv["stdout"]:
                problems.append(f"{args}: exit {inv['exit_code']} with a report")
            continue
        data = json.loads(corpus["files"][args[1]])
        m = Manifold(data["label"], data, *CATALOG_SIGNATURES[data["label"]])
        fields = _fields(inv["stdout"], args[-2:] == ["--format", "text"])
        try:
            CHECKS[args[0]](m, args, fields)
        except Mismatch as exc:
            problems.append(f"{args}: {exc}")
        checked += 1
    return checked, problems


if __name__ == "__main__":
    checked, problems = check_corpus(json.loads(CORPUS.read_text(encoding="utf-8")))
    print("\n".join(problems + [f"{checked} reports, {len(problems)} problems"]))
    raise SystemExit(1 if problems else 0)
