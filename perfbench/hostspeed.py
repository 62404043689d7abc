"""Host speed, measured by fixed pure-Python kernels, to scale timings by.

The sandbox shares its cores with other tenants, and its speed swings: timed
in 5-second windows over two minutes, one fixed loop ran between 1.0 and 1.5
times its fastest time, in stretches of 5 to 20 seconds, and whole runs of a
workload differed by up to 1.7 times from one minute to the next; within one
operation of 2 seconds the speed still moves. So the kernels are timed during
the operation itself: ``Sampler`` runs them from a timer signal every
``INTERVAL_S`` seconds, and a time, less the kernels', is multiplied by
``NOMINAL_KERNEL_S`` over a kernel's median time. Times then read as seconds
on this host at the speed where that kernel takes 1 ms. Set-up is often
shorter than the interval, so it is scaled by windows of the sort kernel timed
before and after the round instead.

Two kinds of work slow down differently when the host is busy, so there are
two kernels. ``sort`` sorts and filters float lists, as the threshold layer,
the trimmed means and trace parsing do; it tracks operation times and the
slow tail of ``combined_decide``. ``call`` makes many small Python calls on
small frozen dataclasses, as the bookkeeping of a cheap ``combined_decide``
call does; it tracks the median call where that call does no sorting. Timed
over the same operations, a median call of 1.5 us slowed 1.9 times between a
quiet and a busy stretch while the sort kernel slowed 1.35 times; scaled by the
call kernel its spread fell from 21% to 11%, and the operation's from 19% to
9% when scaled by the sort kernel rather than the call kernel.

Both kernels are part of the benchmark, so no change to the package changes them.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from dataclasses import dataclass

NOMINAL_KERNEL_S = 0.001
INTERVAL_S = 0.1
WINDOW_S = 0.2


def sort_kernel() -> float:
    rng = random.Random(7)
    values = [rng.random() for _ in range(1200)]
    total = 0.0
    for start in range(0, 900, 30):
        window = sorted(values[start : start + 300])
        total += window[150] + sum(window) / len(window)
        total += len([v for v in window if v < 0.5])
    return total


@dataclass(frozen=True)
class _Record:
    index: int
    value: float

    def within(self, limit: int) -> bool:
        return self.index < limit and self.value >= 0.0


def _keep(record: _Record, limit: int) -> bool:
    return record.within(limit)


def call_kernel() -> int:
    records = [_Record(i, i * 0.5) for i in range(200)]
    kept = 0
    for _ in range(40):
        for record in records:
            if _keep(record, 150):
                kept += 1
    return kept + len({record.index: record for record in records})


KERNELS = {"sort": sort_kernel, "call": call_kernel}


def kernel_seconds() -> float:
    """Mean time of the sort kernel over a window of about ``WINDOW_S`` seconds."""
    start = time.perf_counter()
    runs = 0
    while True:
        sort_kernel()
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= WINDOW_S:
            return elapsed / runs


class Sampler:
    """Times each kernel every ``INTERVAL_S`` seconds while the ``with`` block runs.

    ``runs`` holds (kernel, when it ended, how long it took) for each kernel
    run. The handler runs between bytecodes of this thread, so its time is
    inside whatever the block was doing and must be taken out of it.
    """

    def __init__(self) -> None:
        self.runs: list[tuple[str, float, float]] = []

    def _sample(self, signum, frame) -> None:
        for name, kernel in KERNELS.items():
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.runs.append((name, end, end - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self, start: float, end: float) -> tuple[float, dict[str, list[float]]]:
        """Kernel time spent in ``[start, end)`` and each kernel's times measured there."""
        times: dict[str, list[float]] = {name: [] for name in KERNELS}
        for name, ended, took in self.runs:
            if start <= ended < end:
                times[name].append(took)
        return sum(sum(t) for t in times.values()), times


def scale_for(kernel_times: list[float]) -> float:
    """Factor that turns seconds measured at these kernel times into nominal seconds."""
    return NOMINAL_KERNEL_S / statistics.median(kernel_times)
