"""Child processes of the benchmark: CLI ops, the interpreter floor, and
the import-time split. Every child runs from the checkout root with its
``src`` on the path and no worker pool, and is waited for.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 120
FLOOR_RUNS = 5


def child_env() -> dict:
    """Environment for CLI child processes: the checkout's src on the
    path, no worker pool, and cached bytecode as an installed package has,
    whatever the caller's environment says."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SYMPENCIL_WORKERS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def timed_child_ms(argv: list[str]) -> float:
    start = perf_counter()
    proc = run_child(argv)
    elapsed = (perf_counter() - start) * 1000.0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr[-300:]!r}")
    return elapsed


def interpreter_ms() -> float:
    """Median wall time of a bare interpreter start: the floor under every
    CLI op. It moves with the machine, not with the code."""
    return statistics.median(timed_child_ms(["-c", "pass"]) for _ in range(FLOOR_RUNS))


def import_metrics(floor_ms: float) -> dict[str, float]:
    """Fresh-process import cost of the CLI, and its split by
    ``-X importtime`` (medians over FLOOR_RUNS runs)."""
    imp = statistics.median(
        timed_child_ms(["-c", "import sympencil.cli"]) for _ in range(FLOOR_RUNS)
    )
    splits = [importtime_split() for _ in range(FLOOR_RUNS)]
    out = {"cli.import_ms": imp - floor_ms}
    for key in ("sympencil", "click", "multiprocessing"):
        out[f"cli.import.{key}_ms"] = statistics.median(s[key] for s in splits)
    return out


POOL_MODULES = ("concurrent", "multiprocessing", "_multiprocessing")


def importtime_split() -> dict[str, float]:
    """Milliseconds of ``import sympencil.cli`` spent in click, in the
    process-pool modules (concurrent.futures, multiprocessing), and in the
    rest (the package and its other dependencies)."""
    proc = run_child(["-X", "importtime", "-c", "import sympencil.cli"])
    nodes = []
    for line in proc.stderr.decode().splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        cum_us, name = parts[1].strip(), parts[2]
        if not cum_us.isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        nodes.append((depth, name.strip(), int(cum_us)))
    # Children print before their parent; reversed, the output is a
    # pre-order walk, so a stack of names by depth gives each ancestry.
    stack: list[str] = []
    totals = {"click": 0, "multiprocessing": 0, "cli": 0}
    for depth, name, cum_us in reversed(nodes):
        ancestors = stack[:depth]
        stack = ancestors + [name]
        top = name.split(".")[0]
        if name == "sympencil.cli" and depth == 0:
            totals["cli"] = cum_us
        if top == "click" and not any(a.split(".")[0] == "click" for a in ancestors):
            totals["click"] += cum_us
        if top in POOL_MODULES and not any(a.split(".")[0] in POOL_MODULES
                                           for a in ancestors):
            totals["multiprocessing"] += cum_us
    return {
        "sympencil": (totals["cli"] - totals["click"] - totals["multiprocessing"]) / 1000.0,
        "click": totals["click"] / 1000.0,
        "multiprocessing": totals["multiprocessing"] / 1000.0,
    }
