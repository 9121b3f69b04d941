"""The one sanctioned wall-clock timing source for benchmarks.

Every ``BENCH_*.json`` number comes through this class: best-of-N laps on
the monotonic ``time.perf_counter`` clock.  The bench scripts
(``scripts/bench_attack.py`` / ``bench_serving.py`` / ``bench_train.py``)
all time through :class:`Timer` instead of hand-rolled
``perf_counter()``/``min()`` loops, so timing provenance is one
implementation — and, like the registry's timing channel, Timer values are
wall-clock and never feed any bitwise-parity series.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import List


class Timer:
    """Best-of-N lap timer on the monotonic ``perf_counter`` clock."""

    __slots__ = ("laps",)

    def __init__(self):
        self.laps: List[float] = []

    @contextmanager
    def lap(self):
        """Time one lap: ``with timer.lap(): work()``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.laps.append(time.perf_counter() - started)

    def reset(self) -> None:
        self.laps.clear()

    @property
    def count(self) -> int:
        return len(self.laps)

    @property
    def last(self) -> float:
        """Seconds of the most recent lap."""
        return self.laps[-1]

    @property
    def best(self) -> float:
        """Best (minimum) lap — the benchmark number."""
        return min(self.laps)

    @property
    def total(self) -> float:
        return sum(self.laps)

    @property
    def mean(self) -> float:
        return sum(self.laps) / len(self.laps)
