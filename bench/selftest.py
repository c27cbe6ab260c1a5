"""Self-test of the benchmark harness: every workload at tiny size.

    python3 bench/selftest.py

Run from the root of a source checkout. It checks that

1. untraced and traced runs print every metric BENCHMARK.json names, with
   its unit, and report correct results;
2. a corrupted golden output, a corrupted oracle input, or a wrong library
   answer makes ops fail (ok_frac below 1, correct false);
3. traced and untraced runs give identical op results, and an op whose
   result changes between the two is caught.

Tiny size means one round per untraced run and one round per traced
replay. Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import manifolds  # noqa: E402
import run  # noqa: E402
from oracles import Op  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text("utf-8"))
problems: list[str] = []


def invoke(workload: str, trace: int) -> dict:
    wl = importlib.import_module(run.WORKLOADS[workload])
    out = io.StringIO()
    with mock.patch.object(wl, "TRACE_ROUNDS", 1), contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                         "--trace", str(trace)])
    if code != 0:
        problems.append(f"{workload} trace={trace}: exit code {code}")
    return json.loads(out.getvalue().strip().splitlines()[-1])


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what, flush=True)
    if not cond:
        problems.append(what)


def check_names() -> None:
    for w in SPEC["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = invoke(w["name"], trace)
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"{w['name']} trace={trace}: every {key} metric with its unit")
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   f"{w['name']} trace={trace}: correct, {res['attempted']} ops")


def expect_failures(res: dict, what: str) -> None:
    ok_frac = res["metrics"]["ok_frac"]["value"]
    expect(res["failed"] > 0 and ok_frac < 1 and not res["correct"],
           f"{what}: {res['failed']} failed ops, ok_frac {ok_frac:.3f}")


def check_corruption() -> None:
    wl_cli = importlib.import_module("wl_cli")
    setup = wl_cli.setup

    def corrupt_golden(seed, workdir):
        state = setup(seed, workdir)
        entry = state.golden[0]
        entry["stdout"] = entry["stdout"].replace("cp2", "cp3", 1)
        return state

    with mock.patch.object(wl_cli, "setup", corrupt_golden):
        expect_failures(invoke("cli-batch", 0), "cli-batch with a corrupted golden output")

    wl_lattice = importlib.import_module("wl_lattice")

    def wrong_signature():
        m = manifolds.k3_sum3()
        m.b_plus += 2
        return m

    with mock.patch.object(wl_lattice, "MANIFOLDS", (wrong_signature,)):
        expect_failures(invoke("lattice-query", 0),
                        "lattice-query with a corrupted oracle input")

    wl_hilb = importlib.import_module("wl_hilb")
    kernel_dimension = wl_hilb.hilb.kernel_dimension
    with mock.patch.object(wl_hilb.hilb, "kernel_dimension",
                           lambda q: kernel_dimension(q) + (q.r == 5)):
        expect_failures(invoke("hilb-certify", 0), "hilb-certify with a wrong kernel dimension")


def check_trace_identity() -> None:
    wl_hilb = importlib.import_module("wl_hilb")
    make_round = wl_hilb.make_round
    counter = itertools.count()

    def with_drifting_op(state, rng):
        return make_round(state, rng) + [Op("drift", lambda: next(counter), lambda _: None)]

    with mock.patch.object(wl_hilb, "make_round", with_drifting_op):
        res = invoke("hilb-certify", 1)
    expect(res["failed"] == 1 and not res["correct"],
           "traced run flags an op whose traced result differs")


def main() -> int:
    check_names()
    check_corruption()
    check_trace_identity()
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
