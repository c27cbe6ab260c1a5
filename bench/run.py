"""sympencil benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload hilb-certify --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of
a traced replay. Each run also prints an environment record and per-group
latencies to stderr. See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from children import import_metrics, interpreter_ms  # noqa: E402
from oracles import KNOWN_DEFECT  # noqa: E402
from speed import SpeedProbe, kernel_s  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = {
    "hilb-certify": "wl_hilb",
    "lattice-query": "wl_lattice",
    "cli-batch": "wl_cli",
}


def calibration_ms() -> float:
    """Median time of the fixed calibration kernel, recorded with every run
    so that machine drift can be told from a code change."""
    return 1000.0 * statistics.median(kernel_s() for _ in range(9))


def run_one(op, fn, tracer=None, op_id=0):
    """Run and check one op. Return (result, start, end, failure reason or
    None, whether it hit the known defect)."""
    start = perf_counter()
    try:
        out = fn() if tracer is None else tracer.run_op(op_id, fn)
    except Exception as exc:  # an op that raises is a failed op
        out = ("raised", type(exc).__name__, str(exc))
    end = perf_counter()
    try:
        return out, start, end, None, op.check(out) == KNOWN_DEFECT
    except Exception as exc:  # any oracle failure is a failed op
        return out, start, end, f"{op.group}: {type(exc).__name__}: {exc}", False


def run_ops(ops, call, probe=None):
    """Run each op once and check it. Return the latencies in seconds,
    (index, reason) for each failed op, the number of ops that hit the
    known defect, and per op (mid time, op time since the previous op)."""
    lat, failures, known, stretches = [], [], 0, []
    for i, op in enumerate(ops):
        _, start, end, reason, defect = run_one(op, call(op))
        lat.append(end - start)
        known += defect
        if reason:
            failures.append((i, reason))
        if probe is not None:
            stretches.append(((start + end) / 2, perf_counter() - probe.mark))
            probe.tick()
    return lat, failures, known, stretches


def fresh(op):
    return op.call


def replay(op):
    return op.replay or op.call


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sympencil" / "__init__.py").is_file():
        print(f"error: no sympencil sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sympencil = importlib.import_module("sympencil")
    if Path(sympencil.__file__).resolve().parent != SRC / "sympencil":
        print(f"error: imported sympencil from {sympencil.__file__}", file=sys.stderr)
        return 2
    wl = importlib.import_module(WORKLOADS[args.workload])
    import_s = perf_counter() - T_START

    workroot = ROOT / ".bench_work"
    workroot.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=workroot))
    try:
        return measure(args, wl, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass


def measure(args, wl, import_s, workdir: Path) -> int:
    setup_probe = SpeedProbe(wl.SPEED)
    setup_times = []
    for i in range(1 if args.trace else wl.SETUP_REPEATS):
        start = perf_counter()
        state = wl.setup(args.seed, workdir / f"setup{i}")
        run_ops(wl.warm_up(state), fresh)
        setup_times.append(perf_counter() - start)
        setup_probe.sample()
    setup_wall = import_s + statistics.median(setup_times)
    rng = random.Random(args.seed)

    if args.trace:
        return traced_run(args, wl, state, rng, workdir)

    probe = SpeedProbe(wl.SPEED)
    ops_done, lat, failures, known, stretches = [], [], [], 0, []
    while sum(t for _, t in stretches) < args.seconds:
        ops = wl.make_round(state, rng)
        round_lat, round_fail, round_known, round_stretches = run_ops(
            ops, fresh, probe=probe)
        ops_done += ops
        lat += round_lat
        failures += round_fail
        known += round_known
        stretches += round_stretches

    usage = resource.RUSAGE_CHILDREN if wl.PEAK_RSS_OF_CHILDREN else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    attempted = len(ops_done)
    scale = [probe.scale(at) for at, _ in stretches]
    raw_ms = sorted(t * 1000.0 for t in lat)
    ref_ms = sorted(t * k * 1000.0 for t, k in zip(lat, scale))
    ref_time = sum(t * k for (_, t), k in zip(stretches, scale))
    raw = {
        "setup_s": setup_wall,
        "ops_per_s": attempted / sum(t for _, t in stretches),
        "op_p50_ms": statistics.median(raw_ms),
        "op_p90_ms": statistics.quantiles(raw_ms, n=10)[8],
    }
    metrics = {
        "setup_s": (setup_wall * setup_probe.scale(), "s"),
        "ops_per_s": (attempted / ref_time, "ops/s"),
        "op_p50_ms": (statistics.median(ref_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(ref_ms, n=10)[8], "ms"),
        "ok_frac": ((attempted - len(failures)) / attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    speed = {"speed_probe": wl.SPEED.name,
             "speed_probe_ms": 1000.0 * statistics.median(probe.samples),
             "speed_probe_samples": len(probe.samples),
             "setup_speed_probe_ms": 1000.0 * statistics.median(setup_probe.samples),
             "wall_clock": raw}
    report_env(args, known, ops_done, lat, failures, speed)
    print_result(not failures, attempted, len(failures), metrics)
    return 0


def traced_run(args, wl, state, rng, workdir: Path) -> int:
    """Replay a fixed number of rounds in-process, each op once untraced
    and once traced (alternating which goes first, so host speed and warm
    caches favour neither), and reduce the spans to per-layer metrics."""
    from tracer import Tracer

    ops = [op for _ in range(wl.TRACE_ROUNDS) for op in wl.make_round(state, rng)]
    replay(ops[0])()  # lazy imports of the replay path are not op time
    tracer = Tracer()
    tracer.install()
    try:
        # Set-up is traced once too, so the layers it loads are seen.
        tracer.run_op("setup", lambda: wl.setup(args.seed, workdir / "traced"))
    finally:
        tracer.uninstall()
    plain, plain_lat, traced_lat, failures, known = [], [], [], [], 0
    for i, op in enumerate(ops):
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            try:
                runs[traced] = run_one(op, replay(op), tracer if traced else None, i)
            finally:
                if traced:
                    tracer.uninstall()
        out, start, end, reason, defect = runs[False]
        traced_out, t_start, t_end, t_reason, _ = runs[True]
        plain.append(out)
        plain_lat.append(end - start)
        traced_lat.append(t_end - t_start)
        known += defect
        failures += [(i, why) for why in (reason, t_reason) if why]
        if traced_out != out:
            failures.append((i, f"{op.group}: traced result differs"))

    floor = interpreter_ms()
    values = tracer.metrics()
    values.update(import_metrics(floor))
    values["cli.interpreter_ms"] = floor
    values.update(wl.trace_metrics(ops, plain, plain_lat))
    values["cli.known_defect_ops"] = known
    values["trace.overhead_frac"] = (sum(traced_lat) - sum(plain_lat)) / sum(plain_lat)
    values["env.calibration_ms"] = calibration_ms()
    for problem in sorted(tracer.problems):
        print(f"trace: {problem}", file=sys.stderr)
    report_env(args, known, ops, plain_lat, failures, {}, floor)
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {name: (values[name], unit) for name, unit in units.items()}
    print_result(not failures, len(ops), len({i for i, _ in failures}), metrics)
    return 0


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def report_env(args, known, ops, lat, failures, speed, floor=None) -> None:
    """One stderr line with what a reviewer needs to tell machine drift
    from a code change, plus raw per-group latency medians."""
    groups: dict[str, list[float]] = {}
    for op, t in zip(ops, lat):
        groups.setdefault(op.group, []).append(t * 1000.0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cli.interpreter_ms": interpreter_ms() if floor is None else floor,
        "calibration_ms": calibration_ms(),
        **speed,
        "known_defect_ops": known,
        "groups": {g: [len(v), round(statistics.median(v), 3)]
                   for g, v in sorted(groups.items())},
    }
    print(json.dumps({"env": record}), file=sys.stderr)
    for _, reason in failures[:20]:
        print(f"failed: {reason}", file=sys.stderr)


def print_result(correct, attempted, failed, metrics) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
