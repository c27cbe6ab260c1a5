"""Host speed probes, and scaling of measured times to a reference speed.

On a shared host the same code runs up to 40% slower, or more, for seconds
to minutes at a time. A probe is a fixed piece of work that slows down with
the workload it stands for. The timed phase runs the workload's probe
every ``every_s`` seconds, outside op time. Each op's times are then scaled
by ``reference_s / median(probe times within window_s of the op)``, so a run
on a host where the probe takes ``reference_s`` reports wall-clock.
"""

from __future__ import annotations

import bisect
import math
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from children import timed_child_ms

CAL_SIZE = 32
CAL_REPEATS = 8


def kernel_s() -> float:
    """Seconds for a fixed fraction-free integer elimination (rows of
    Python ints, gcd-reduced): the kind of work the library's exact layers
    do. It tracks their slowdowns better than a plain arithmetic loop."""
    start = perf_counter()
    for _ in range(CAL_REPEATS):
        rows = [[(i * 7919 + j * 104729) % 19 - 9 for j in range(CAL_SIZE + 1)]
                for i in range(CAL_SIZE)]
        for k in range(CAL_SIZE):
            pivot = next((r for r in rows[k:] if r[k]), None)
            if pivot is None:
                continue
            rows.remove(pivot)
            rows.insert(k, pivot)
            for i in range(k + 1, CAL_SIZE):
                f = rows[i][k]
                if f:
                    row = [pivot[k] * a - f * b for a, b in zip(rows[i], pivot)]
                    g = math.gcd(*row)
                    rows[i] = [v // g for v in row] if g > 1 else row
    return perf_counter() - start


def interpreter_s() -> float:
    """Seconds for a bare ``python -c pass``: process start, which
    fresh-process CLI ops pay and the in-process kernel does not track."""
    return timed_child_ms(["-c", "pass"]) / 1000.0


@dataclass(frozen=True)
class Probe:
    name: str
    measure: Callable[[], float]
    reference_s: float
    every_s: float
    window_s: float


KERNEL = Probe("kernel", kernel_s, reference_s=0.010, every_s=0.25, window_s=1.0)
INTERPRETER = Probe("interpreter", interpreter_s, reference_s=0.065,
                    every_s=0.5, window_s=1.5)


class SpeedProbe:
    """Probe samples taken at even intervals between ops.

    ``mark`` is when op time last resumed, so the op time of a stretch is
    its wall time minus the probe runs inside it.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.times: list[float] = []
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = perf_counter()
        self.samples.append(self.probe.measure())
        self.times.append(start)
        self.mark = perf_counter()

    def tick(self) -> None:
        if perf_counter() - self.times[-1] >= self.probe.every_s:
            self.sample()
        self.mark = perf_counter()

    def scale(self, at=None) -> float:
        """Factor taking raw durations to the reference speed: over all
        samples, or over those near time ``at``."""
        samples = self.samples
        if at is not None:
            w = self.probe.window_s
            lo = bisect.bisect_left(self.times, at - w)
            hi = bisect.bisect_right(self.times, at + w)
            samples = samples[max(0, min(lo, len(samples) - 1)):max(hi, lo + 1)]
        return self.probe.reference_s / statistics.median(samples)
