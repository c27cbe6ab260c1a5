"""Check the reports of the CLI corpus against their input files, for
all nine commands.

    python3 tests/report_oracle.py

``check_record`` checks one report; ``test_cli_fuzz.py`` hands it every
exit-0/1 report it generates, with that example's own input files.

Every recorded invocation that exits 0, or for ``manifold-check``,
``classify`` and ``duality`` 0 or 1, in either output format, is parsed
into its fields. The manifold file it names, if any, becomes a
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
which must be true exactly when the command exits 0 (a form that is not
square and symmetric, or a K or omega not of its rank, is not valid),
and e, the signature, K.K, chi_h and 2e + 3sigma are recomputed. The text
format prints a string that is not printable, or that starts with a
double quote, as its JSON literal, and the labels are compared as it
prints them.

The other five commands are checked from their flags. ``bn``,
``aj-fibres`` and ``hilb`` go through the benchmark's verifiers
``wl_cli.v_bn``, ``v_aj`` and ``v_hilb``, text reports parsed by
``wl_cli.parse_text``, and ``hilb`` must print the seed it was given
(1729 by default). For ``gromov`` and ``duality``, r is the class's
(a.a - K.a)/2 by the benchmark's pairing: chi must be chi_h + r, h1 must
be h0 + h2 - chi and 0 when h0 > 0, each invariant must be
``oracles.section_count`` of its profile, with binomials read off the
integer series ``conftest.series_geom_pow`` rather than ``exact.binom``
(0 when r < 0), and ``magnitudes_equal`` must hold exactly when the
invariants agree in magnitude and the command exits 0. A record that
exits otherwise must have printed nothing on stdout.
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
import wl_cli  # noqa: E402
from conftest import descartes_inertia, series_geom_pow  # noqa: E402
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

# The hilb flags' defaults, which the report must echo.
HILB_DEFAULTS = {"--seed": "1729", "--stratum": "smooth"}

MANIFOLD_CHECK_CITATIONS = ("K.K = 2e + 3sigma, K = diag(Q) mod 2 (characteristic "
                            "vector), chi_h = (e + sigma)/4")


class Invocation(NamedTuple):
    """One recorded report: the command line, the report as ``key: value``
    strings, the exit code, the corpus's input files by name, and the
    report as its JSON value, or as ``wl_cli.parse_text`` rebuilds it
    from the text format ``fmt``."""

    args: list[str]
    fields: dict[str, str]
    exit_code: int
    files: dict[str, str]
    payload: dict
    fmt: str

    def options(self) -> dict[str, str]:
        """``--name value`` pairs after the command and its manifold path,
        if it takes one."""
        start = next((i for i, arg in enumerate(self.args) if arg.startswith("--")),
                     len(self.args))
        return dict(zip(self.args[start::2], self.args[start + 1::2]))


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


def _shown(value, fmt: str) -> str:
    """A value as ``_fields`` reads it back from a report in ``fmt``: the
    text format prints a string that is not printable, or that starts
    with a double quote, as its JSON literal, so that it stays on one line
    and reads back as itself."""
    text = str(value)
    literal = not text.isprintable() or text.startswith('"')
    return json.dumps(text) if fmt == "text" and literal else text


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
def _manifold(text: str) -> tuple[Manifold, int] | None:
    """The manifold of a file's text, with b+ and b- by Descartes' rule,
    which adds over the direct-sum blocks, and the number of zero
    eigenvalues; None unless the form is square and symmetric and K and
    omega have its rank."""
    data = json.loads(text)
    q = data["Q"]
    n = len(q)
    if not (all(len(row) == n for row in q)
            and len(data["K"]) == n == len(data["omega"])
            and all(q[i][j] == q[j][i] for i in range(n) for j in range(i))):
        return None
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


def check_manifold_check(m: Manifold | None, inv: Invocation) -> None:
    f, valid = inv.fields, inv.exit_code == 0
    parsed = _manifold(inv.files[inv.args[1]])
    expect((parsed is not None and _valid(*parsed)) == valid,
           "manifold-check: validity")
    label = json.loads(inv.files[inv.args[1]])["label"]
    want = {"command": "manifold-check", "label": label, "valid": valid}
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
        expect(key in want and f.get(key) == _shown(want[key], inv.fmt),
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


def _binom(n: int, k: int) -> int:
    """C(n, k) for k >= 0, the only lower index ``section_count`` asks
    for: the H**k coefficient of the integer series (1 + H)**n."""
    return series_geom_pow(n, k + 1)[k]


def _profile(m: Manifold, inv: Invocation) -> tuple[int, int, int, int]:
    """h0 and h2 from the flags, the class's virtual dimension r by the
    benchmark's pairing, and chi = chi_h + r."""
    opts = inv.options()
    a = _ints(opts["--class"])
    expect(_ints(inv.fields["class"]) == a, f"{inv.args[0]}: class")
    r = (m.pair(a, a) - m.k_dot(a)) // 2
    chi = m.chi_h + r
    expect(chi.denominator == 1, f"{inv.args[0]}: chi_h + r is not an integer")
    return int(opts["--h0"]), int(opts["--h2"]), r, int(chi)


def _invariant(h0: int, h2: int, r: int) -> int:
    return oracles.section_count(_binom, h0, h2, r) if r >= 0 else 0


def _check_h1(command: str, h0: int, h1: int, h2: int, chi: int) -> None:
    expect(h1 == h0 + h2 - chi and (h0 == 0 or h1 == 0), f"{command}: h1")


def check_gromov(m: Manifold, inv: Invocation) -> None:
    p = inv.payload
    h0, h2, r, chi = _profile(m, inv)
    expect((inv.fields["label"], p["h0"], p["h2"])
           == (_shown(m.data["label"], inv.fmt), h0, h2),
           "gromov: label and profile")
    expect(p["virtual_dim"] == r and p["chi"] == chi, "gromov: chi = chi_h + r")
    _check_h1("gromov", h0, p["h1"], h2, chi)
    expect(p["invariant"] == _invariant(h0, h2, r), "gromov: invariant")


def check_duality(m: Manifold, inv: Invocation) -> None:
    p = inv.payload
    h0, h2, r, chi = _profile(m, inv)
    h1 = p["profile"]["h1"]
    expect(inv.fields["label"] == _shown(m.data["label"], inv.fmt)
           and p["virtual_dim"] == r, "duality: label and r")
    expect(p["profile"] == {"h0": h0, "h1": h1, "h2": h2}, "duality: profile")
    _check_h1("duality", h0, h1, h2, chi)
    expect(p["dual_profile"] == {"h0": h2, "h1": h1, "h2": h0},
           "duality: dual profile")
    invariant, dual = _invariant(h0, h2, r), _invariant(h2, h0, r)
    expect((p["invariant"], p["dual_invariant"]) == (invariant, dual),
           "duality: invariants")
    holds = abs(invariant) == abs(dual)
    expect(p["magnitudes_equal"] == holds == (inv.exit_code == 0),
           "duality: magnitudes_equal and exit code")


def _verified(command: str, verify, inv: Invocation) -> None:
    """Run a ``wl_cli`` verifier; its exit code must be the recorded one."""
    expect(verify(inv.payload, inv.fmt) == inv.exit_code, f"{command}: exit code")


def check_bn(m: None, inv: Invocation) -> None:
    opts = inv.options()
    _verified("bn", wl_cli.v_bn(*(int(opts[f]) for f in ("--g", "--r", "--s"))), inv)


def check_aj(m: None, inv: Invocation) -> None:
    opts = inv.options()
    _verified("aj-fibres", wl_cli.v_aj(int(opts["--g"]), int(opts["--r"])), inv)


def check_hilb(m: None, inv: Invocation) -> None:
    opts = {**HILB_DEFAULTS, **inv.options()}
    _verified("hilb", wl_cli.v_hilb(int(opts["--r"]), int(opts["--samples"]),
                                    opts["--stratum"]), inv)
    expect(inv.payload["seed"] == int(opts["--seed"]), "hilb: seed")


# Each command's check and the exit codes whose reports it re-derives.
CHECKS = {
    "pencil": (check_pencil, {0}),
    "count": (check_count, {0}),
    "manifold-check": (check_manifold_check, {0, 1}),
    "classify": (check_classify, {0, 1}),
    "gromov": (check_gromov, {0}),
    "duality": (check_duality, {0, 1}),
    "bn": (check_bn, {0}),
    "aj-fibres": (check_aj, {0}),
    "hilb": (check_hilb, {0}),
}


def _checked(args: list[str], code: int) -> bool:
    """Whether ``check_record`` re-derives the report of this command line
    and exit code."""
    return bool(args) and args[0] in CHECKS and code in CHECKS[args[0]][1]


def check_record(record: dict, files: dict[str, str]) -> str | None:
    """One line when a recorded invocation's report fails its command's
    check, else None. ``record`` holds ``args``, ``exit_code`` and
    ``stdout``; ``args`` name input files by their keys in ``files``."""
    args, code, stdout = record["args"], record["exit_code"], record["stdout"]
    if not _checked(args, code):
        if args and args[0] in CHECKS and stdout:
            return f"{args}: exit {code} with a report"
        return None
    fmt = "text" if args[-2:] == ["--format", "text"] else "json"
    payload = wl_cli.parse_text(stdout) if fmt == "text" else json.loads(stdout)
    inv = Invocation(args, _fields(stdout, fmt == "text"), code, files,
                     payload, fmt)
    try:
        parsed = _manifold(files[args[1]]) if args[1] in files else None
        if args[1] in files and args[0] != "manifold-check":
            expect(parsed is not None, "form not square and symmetric, or K or "
                   "omega not of its rank")
        CHECKS[args[0]][0](parsed and parsed[0], inv)
    except Mismatch as exc:
        return f"{args}: {exc}"
    return None


def check_corpus(corpus: dict) -> tuple[int, list[str]]:
    """The number of reports checked, and one line per report that fails."""
    records = corpus["invocations"]
    problems = [check_record(r, corpus["files"]) for r in records]
    return (sum(_checked(r["args"], r["exit_code"]) for r in records),
            [p for p in problems if p])


if __name__ == "__main__":
    checked, problems = check_corpus(json.loads(CORPUS.read_text(encoding="utf-8")))
    print("\n".join(problems + [f"{checked} reports, {len(problems)} problems"]))
    raise SystemExit(1 if problems else 0)
