"""Host speed reference: normalises measured times for a host whose speed drifts.

On a shared VM the host slows the benchmark's vCPU by 20-40% for seconds to
minutes at a time, in wall time and process CPU time alike, so runs of
identical code disagree by more than any useful bound.  A fixed kernel run
between units tracks that drift (correlation ~0.75 with the adjacent unit's
time), but it reacts more strongly than the workloads do (regression slope
~0.6) and carries its own sampling noise.  Scaling each time by the square
root of the kernel's speed ratio kept the ten-seed spread of every
end-to-end metric of every workload within 12%, where no scaling or full
scaling let some reach 18% (see ``NOTES.md``).

The kernel mixes what the workloads do: a batched LSTM-style recurrence
(small BLAS calls plus elementwise math), single-row numpy calls dominated by
call overhead, a Python dictionary loop, and a gather from an array larger
than L2.  It shares no code with ``repro``, so a change to the program cannot
move the reference.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds per kernel iteration on the host the bounds were tuned on
#: (2-vCPU x86-64 VM, OpenBLAS with one thread).  Only its constancy matters:
#: it converts a measured time into seconds at that reference speed.
REFERENCE_S = 2.5e-3
#: Exponent on the speed ratio: how strongly a workload's time follows the
#: kernel's (see the module docstring).
ELASTICITY = 0.5


class HostClock:
    """Sample the host's speed between measured items."""

    def __init__(self, seconds: float = 0.25):
        rng = np.random.default_rng(0)
        self.seconds = seconds
        self._input_weights = rng.standard_normal((4, 48))
        self._hidden_weights = rng.standard_normal((12, 48)) * 0.1
        self._inputs = rng.standard_normal((240, 12, 4))
        self._row = rng.standard_normal((12, 4))
        self._row_weights = rng.standard_normal((4, 8))
        self._table = rng.standard_normal(200_000)
        self._index = rng.integers(0, len(self._table), 50_000)
        self.samples = [self.sample()]

    def _kernel(self) -> float:
        hidden = np.zeros((240, 12))
        cell = np.zeros((240, 12))
        for step in range(12):
            gates = self._inputs[:, step] @ self._input_weights + hidden @ self._hidden_weights
            i, f, o, u = np.split(gates, 4, axis=1)
            cell = cell / (1 + np.exp(-f)) + np.tanh(u) / (1 + np.exp(-i))
            hidden = np.tanh(cell) / (1 + np.exp(-o))
        total = float(hidden.sum())
        for _ in range(100):
            total += float(np.tanh(self._row @ self._row_weights).sum())
        counts = {}
        for key in range(2000):
            counts[key % 31] = counts.get(key % 31, 0) + key
        return total + float(np.take(self._table, self._index).sum()) + counts[0]

    def sample(self) -> float:
        """Seconds per kernel iteration, averaged over ``self.seconds``."""
        iterations = 0
        started = perf_counter()
        while True:
            self._kernel()
            iterations += 1
            elapsed = perf_counter() - started
            if elapsed >= self.seconds:
                return elapsed / iterations

    def factor(self) -> float:
        """Reference-over-host speed for the item measured since the last call.

        The host's speed over the item is taken as the mean of the samples
        just before and just after it; multiply the item's time by the
        returned factor to get seconds at the reference speed.
        """
        self.samples.append(self.sample())
        return (REFERENCE_S / ((self.samples[-2] + self.samples[-1]) / 2)) ** ELASTICITY
