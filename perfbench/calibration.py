"""Measures how fast the machine runs while each timed step runs.

The shared 2-core host the benchmark was defined on drifts between a fast
and a slow state. A state lasts from seconds to minutes, longer than a run,
and the same work takes up to 1.9 times as long in the slow state. Without
a correction, two runs of the same code minutes apart differ by more than
any change worth measuring.

So while the plain run measures, a real-time interval timer interrupts it
every ``INTERVAL_S`` seconds and runs a fixed reference job of about a
millisecond. The handler runs on the benchmark's own thread, between two
Python bytecodes of the program, so it never runs alongside the program.
Its own time is subtracted from the step it interrupted. A step's host time
is then rescaled to the machine's usual speed:

    scaled = (measured - interruptions) * NOMINAL_JOB_S / mean job time during the step

The job mixes the two kinds of work the program does: a heap-driven event
loop in pure Python, like the simulator and controller, and 1-D k-means
passes over a numpy array, like the learning engine. Its work is fixed, and
the program never runs it, so a faster program does not make it faster.
It starts with cold caches, because 50 ms of the program's work evicts it
from them; that makes it slow down with the machine the way the program's
memory-heavy simulations do. (Timing a second, warm run of the job tracked
the `overload` simulations worse.) A change would move the job only if it
shrank the program's working set to fit in the CPU's L2 cache.
"""

from __future__ import annotations

import heapq
import signal
from time import perf_counter

import numpy as np

# Median job time on the machine the benchmark was defined on, a 2-core
# Intel Xeon (Python 3.11.7, numpy 2.4.6), over several runs. It only sets
# the scale: scaled times read as host seconds on that machine.
NOMINAL_JOB_S = 0.0012
# The same for the job timed back to back while the benchmark is otherwise
# idle, as around the set-up probes: it is warmer, so it is faster.
NOMINAL_IDLE_JOB_S = 0.001
INTERVAL_S = 0.05
# Fewer samples than this in a window: fall back to a wider one.
MIN_SAMPLES = 3

_EVENTS = 600
_POINTS = np.linspace(0.0, 1.0, 4000) ** 3
_CENTERS = np.array([0.05, 0.2, 0.45, 0.7, 0.95])
_ROUNDS = 2


def reference_job() -> float:
    """Run the fixed job once; returns a checksum so the work is not skipped."""
    heap: list[tuple[float, int]] = []
    busy: dict[int, float] = {}
    clock = 0.0
    for i in range(_EVENTS):
        heapq.heappush(heap, (clock + (i * 7919 % 1000) / 1000.0, i))
        if len(heap) > 64:
            clock, j = heapq.heappop(heap)
            busy[j % 97] = busy.get(j % 97, 0.0) + clock * 0.5
    centers = _CENTERS.copy()
    for _ in range(_ROUNDS):
        labels = np.abs(_POINTS[:, None] - centers[None, :]).argmin(axis=1)
        for j in range(centers.size):
            members = _POINTS[labels == j]
            if members.size:
                centers[j] = members.mean()
    return sum(busy.values()) + float(centers.sum())


def idle_job_s(repeats: int = 10) -> float:
    """Mean job time over `repeats` back-to-back runs, stated as the job time
    the interval timer would have seen in the same machine state."""
    t0 = perf_counter()
    for _ in range(repeats):
        reference_job()
    return (perf_counter() - t0) / repeats * NOMINAL_JOB_S / NOMINAL_IDLE_JOB_S


class SpeedProbe:
    """Samples the reference job on a timer while installed."""

    def __init__(self):
        # (start, seconds) of every job the timer ran, in time order.
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def install(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_job()
        self.samples.append((t0, perf_counter() - t0))

    def window(self, t0: float, t1: float, default: float | None = None) -> tuple[float, float]:
        """(seconds the timer took from [t0, t1], mean job time to scale it by).

        With fewer than MIN_SAMPLES jobs in the window the mean is `default`,
        or without one the mean over every job so far.
        """
        inside = [d for start, d in self.samples if t0 <= start <= t1]
        if len(inside) >= MIN_SAMPLES:
            mean = sum(inside) / len(inside)
        elif default is not None:
            mean = default
        elif self.samples:
            mean = sum(d for _, d in self.samples) / len(self.samples)
        else:
            mean = NOMINAL_JOB_S
        return sum(inside), mean


def scaled(seconds: float, job_s: float) -> float:
    """Host seconds rescaled to the machine's usual speed."""
    return seconds * NOMINAL_JOB_S / job_s
