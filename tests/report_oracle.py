"""Check the ``pencil``, ``count``, ``manifold-check`` and ``classify``
reports of the CLI corpus against their input files.

    python3 tests/report_oracle.py

Every recorded invocation of those commands that exits 0, or for
``manifold-check`` and ``classify`` 0 or 1, in either output format, is
parsed into its fields. The manifold file it names becomes a
``manifolds.Manifold`` from ``bench/``, whose inertia is read off the
characteristic polynomial of each direct-sum block of the form by
Descartes' rule (``conftest.descartes_inertia``), apart from the
library's elimination. ``oracles.check_pencil``, ``oracles.check_count``
and ``oracles.check_classify`` from ``bench/`` recompute each product by
the benchmark's own pairing and re-derive each decision and verdict,
without package code, as they do for the benchmark's live reports. This
module adds what they do not check: the pencil's fibre class and degree
sum, the count's reason, citations and ``section_torus_dim``, the exit
code of ``classify`` (1 when a check fails), and every number of
``manifold-check``: its own validation of the file decides ``valid``,
which must be true exactly when the command exits 0, and e, the
signature, K.K, chi_h and 2e + 3sigma are recomputed. A record that exits
otherwise must have printed nothing on stdout.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "cli_corpus.json"
sys.path.append(str(HERE.parent / "bench"))
sys.path.append(str(HERE.parent / "src"))

import oracles  # noqa: E402
from conftest import descartes_inertia  # noqa: E402
from manifolds import Manifold  # noqa: E402
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

MANIFOLD_CHECK_CITATIONS = ("K.K = 2e + 3sigma, K = diag(Q) mod 2 (characteristic "
                            "vector), chi_h = (e + sigma)/4")


class Invocation(NamedTuple):
    """One recorded report: the command line, the report as ``key: value``
    strings, the exit code and the corpus's input files by name."""

    args: list[str]
    fields: dict[str, str]
    exit_code: int
    files: dict[str, str]

    def options(self) -> dict[str, str]:
        """``--name value`` pairs after the command and its manifold path."""
        return dict(zip(self.args[2::2], self.args[3::2]))


def _fields(stdout: str, text: bool) -> dict[str, str]:
    """The report as ``key: value`` strings, nested keys and list indices
    joined by dots and lists of values by ", ", which is how the text
    format prints it."""
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

    report = json.loads(stdout)
    walk("", dict(enumerate(report)) if isinstance(report, list) else report)
    return flat


def _ints(value: str) -> list[int]:
    return [int(t) for t in value.replace(",", " ").split()]


def _value(text: str):
    """A printed number or flag as a bool or an int; anything else, such as
    ``"-8/3"`` or a name, stays a string."""
    if text in ("True", "False"):
        return text == "True"
    try:
        return int(text)
    except ValueError:
        return text


def _blocks(rows) -> list[list[int]]:
    """Index sets of the connected components of the nonzero pattern."""
    seen, blocks = set(), []
    for start in range(len(rows)):
        if start in seen:
            continue
        seen.add(start)
        block, stack = [], [start]
        while stack:
            i = stack.pop()
            block.append(i)
            for j, v in enumerate(rows[i]):
                if v and j not in seen:
                    seen.add(j)
                    stack.append(j)
        blocks.append(sorted(block))
    return blocks


@lru_cache(maxsize=None)
def _manifold(text: str) -> tuple[Manifold, int]:
    """The manifold of a file's text, with b+ and b- by Descartes' rule,
    which adds over the direct-sum blocks, and the number of zero
    eigenvalues. The form must be symmetric."""
    data = json.loads(text)
    q = data["Q"]
    expect(all(q[i][j] == q[j][i] for i in range(len(q)) for j in range(i)),
           "form is not symmetric")
    pos = neg = zero = 0
    for block in _blocks(q):
        p, m, z = descartes_inertia([[q[i][j] for j in block] for i in block])
        pos, neg, zero = pos + p, neg + m, zero + z
    return Manifold(data["label"], data, pos, neg), zero


def check_pencil(m: Manifold, inv: Invocation) -> None:
    opts, f = inv.options(), inv.fields
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


def check_count(m: Manifold, inv: Invocation) -> None:
    f = inv.fields
    context = {key.split(".", 1)[1]: value
               for key, value in f.items() if key.startswith("context.")}
    for key in ("a_sq", "k_dot_a", "virtual_dim", "b_plus", "b1"):
        context[key] = int(context[key])
    value = None if f["value"] == "None" else f["value"]
    oracles.check_count(m, _ints(inv.options()["--class"]), f["kind"], value,
                        context)
    reason = f["reason"]
    expect(any(map(reason.startswith, REASONS[f["kind"]])), "count: reason")
    expect(f["citations"] == reason, "count: citations")
    plus_one_rule = reason.startswith(REASONS["PlusMinusOne"][0])
    expect(context.get("section_torus_dim") == ("0" if plus_one_rule else None),
           "count: section_torus_dim")


def _valid(m: Manifold, zero: int) -> bool:
    """The lattice checks, by the benchmark's pairing: b1 >= 0, a
    nondegenerate form, K characteristic, K.K = 2e + 3sigma,
    omega.omega > 0, and chi_h integral when b1 is even."""
    q = m.data["Q"]
    e_sigma = m.euler + m.signature
    return (m.b1 >= 0 and zero == 0
            and all((m.k_row[i] - q[i][i]) % 2 == 0 for i in range(m.b2))
            and m.pair(m.canonical, m.canonical) == 2 * m.euler + 3 * m.signature
            and m.pair(m.omega, m.omega) > 0
            and (m.b1 % 2 == 1 or e_sigma % 4 == 0))


def check_manifold_check(m: Manifold, inv: Invocation) -> None:
    f, valid = inv.fields, inv.exit_code == 0
    _, zero = _manifold(inv.files[inv.args[1]])
    expect(_valid(m, zero) == valid, "manifold-check: validity")
    want = {"command": "manifold-check", "label": m.data["label"], "valid": valid}
    if valid:
        want.update({
            "b1": m.b1, "b2": m.b2, "b_plus": m.b_plus, "b_minus": m.b_minus,
            "euler": m.euler, "signature": m.signature,
            "two_e_plus_3sigma": 2 * m.euler + 3 * m.signature,
            "k_squared": m.pair(m.canonical, m.canonical),
            "chi_h": Fraction(m.euler + m.signature, 4),
            "even_form": all(m.data["Q"][i][i] % 2 == 0 for i in range(m.b2)),
            "minimal": m.minimal, "citations": MANIFOLD_CHECK_CITATIONS})
    else:
        expect(f.get("error"), "manifold-check: error message")
        want["error"] = f.get("error")
    for key in sorted(set(want) | set(f)):
        expect(key in want and f.get(key) == str(want[key]),
               f"manifold-check: {key}")


def check_classify(m: Manifold, inv: Invocation) -> None:
    reports: dict[int, dict] = {}
    for key, text in inv.fields.items():
        index, name = key.split(".", 1)
        report = reports.setdefault(int(index), {"numbers": {}})
        if name.startswith("numbers."):
            report["numbers"][name.split(".", 1)[1]] = _value(text)
        else:
            report[name] = text
    opts = inv.options()
    classes = (json.loads(inv.files[opts["--classes"]])
               if "--classes" in opts else [])
    failed = oracles.check_classify(math.comb, m, classes,
                                    [reports[i] for i in sorted(reports)])
    expect(failed == (inv.exit_code == 1), "classify: exit code")


# Each command's check and the exit codes whose reports it re-derives.
CHECKS = {
    "pencil": (check_pencil, {0}),
    "count": (check_count, {0}),
    "manifold-check": (check_manifold_check, {0, 1}),
    "classify": (check_classify, {0, 1}),
}


def check_corpus(corpus: dict) -> tuple[int, list[str]]:
    """The number of reports checked, and one line per report that fails."""
    checked, problems = 0, []
    files = corpus["files"]
    for record in corpus["invocations"]:
        args, code = record["args"], record["exit_code"]
        if not args or args[0] not in CHECKS:
            continue
        check, codes = CHECKS[args[0]]
        if code not in codes:
            if record["stdout"]:
                problems.append(f"{args}: exit {code} with a report")
            continue
        inv = Invocation(args, _fields(record["stdout"], args[-2:] == ["--format", "text"]),
                         code, files)
        try:
            check(_manifold(files[args[1]])[0], inv)
        except Mismatch as exc:
            problems.append(f"{args}: {exc}")
        checked += 1
    return checked, problems


if __name__ == "__main__":
    checked, problems = check_corpus(json.loads(CORPUS.read_text(encoding="utf-8")))
    print("\n".join(problems + [f"{checked} reports, {len(problems)} problems"]))
    raise SystemExit(1 if problems else 0)
