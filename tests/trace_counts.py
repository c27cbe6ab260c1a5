"""Check the exact per-layer counts of the traced benchmark runs against
``tests/trace_counts.json``, or record them there.

    python3 tests/trace_counts.py            # compare; exit 1 on a difference
    python3 tests/trace_counts.py --write    # record the current counts

For each workload that ``BENCHMARK.json`` names, it runs

    python3 bench/run.py --workload W --seed 1 --seconds 1 --trace 1

from the root of the checkout and keeps every per-layer metric that is not
a timing: the counts, bits and bytes, the density of the rank calls and
the two useful ratios. A traced run replays a fixed number of rounds from
its seed, so these repeat exactly from run to run, while every ``_ms``
metric and ``trace.overhead_frac`` are wall-clock readings. A run whose
oracle fails (``"correct": false``) or whose tracer misses a target (a
``trace:`` line on stderr) is refused, in both modes, before any count is
compared or written.

A change that moves a count records the new file and says why in
``CHANGES.md``. The module's name does not match pytest's ``test_*.py``
pattern, so the test suite does not collect it. It uses only the standard
library.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ROOT / "tests" / "trace_counts.json"
WALL_CLOCK = "trace.overhead_frac"


def traced_counts(workload: str) -> dict:
    """The exact per-layer metrics of one traced run, by name; raises
    ``RuntimeError`` when the run fails its oracle or misses a target."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    sys.stderr.write(proc.stderr)
    missed = [line for line in proc.stderr.splitlines()
              if line.startswith("trace:")]
    if proc.returncode or missed:
        raise RuntimeError(f"{workload}: run.py exit {proc.returncode}, "
                           f"{len(missed)} missed trace targets")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload}: the oracle failed")
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "ms" and name != WALL_CLOCK}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        runs = {w["name"]: traced_counts(w["name"]) for w in spec["workloads"]}
    except RuntimeError as exc:
        print(f"trace counts: {exc}", file=sys.stderr)
        return 1
    if argv:
        COUNTS.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"trace counts: wrote {COUNTS.name}")
        return 0
    recorded = json.loads(COUNTS.read_text(encoding="utf-8"))
    differences = 0
    for workload in sorted(set(recorded) | set(runs)):
        want, got = recorded.get(workload, {}), runs.get(workload, {})
        for name in sorted(set(want) | set(got)):
            if want.get(name, "missing") != got.get(name, "missing"):
                differences += 1
                print(f"trace counts: {workload} {name}: recorded "
                      f"{want.get(name, 'missing')}, run {got.get(name, 'missing')}",
                      file=sys.stderr)
    print(f"trace counts: {differences} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
