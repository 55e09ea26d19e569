"""The host's speed, measured next to every timed step.

The benchmark runs on a shared host whose CPU runs the same code at speeds
that drift by up to 1.7x over seconds to minutes, with no steal time and
the other vCPU idle: one process compiled the 1025-node chain in 2.4 s of
CPU time and, minutes later, in 4.2 s. A minimum over a few repeats of a
step that takes seconds cannot remove that, so every timed step is scaled
by the host's speed around it.

The speed comes from a probe: a fixed piece of work in two halves that
other tenants slow in different ways, bytecode arithmetic and reads of a
36 MB table at pseudo-random places. Measured next to the workloads' steps
for minutes, this pair tracked them better than either half alone, than
building containers, or than a JSON round trip. `measured()` times a block
in thread CPU seconds between two bursts of probes; `scaled()` divides the
block's time by the median probe time within WINDOW of it, relative to
NOMINAL_PROBE_S. The result reads as CPU seconds on a host on which one
probe takes NOMINAL_PROBE_S.

Probes never run inside a step, so the program's own cache and heap use
cannot move the factor it is divided by (a probe run from a timer inside
the steps took twice as long as one between them). They allocate nothing
that outlives them, so the program's garbage collections happen where
they would without them.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import time

BURST = 5  # probes on each side of a measured block
WINDOW = 0.1  # CPU seconds on each side of a block whose probes count
PROBE_STEPS = 1100  # arithmetic half
PROBE_READS = 150  # memory half
TABLE_BITS = 20  # 2^20 ints, about 36 MB: larger than the CPU caches
# Probe time at the nominal speed: about the fastest seen on a 2.0 GHz Xeon.
NOMINAL_PROBE_S = 150e-6


class HostSpeed:
    def __init__(self) -> None:
        self._table = list(range(1 << TABLE_BITS))
        self._cursor = 1
        self.starts: list[float] = []  # thread CPU time at which each probe began
        self.lengths: list[float] = []  # CPU seconds each probe took

    def probe(self) -> None:
        start = time.thread_time()
        total = 0
        for k in range(PROBE_STEPS):
            total += k * k % 7
        table, mask, i = self._table, (1 << TABLE_BITS) - 1, self._cursor
        for _ in range(PROBE_READS):
            i = (i * 1103515245 + 12345) & mask
            total += table[i]
        self._cursor = i | total & 1
        self.starts.append(start)
        self.lengths.append(time.thread_time() - start)

    def burst(self, count: int = BURST) -> None:
        for _ in range(count):
            self.probe()

    @contextlib.contextmanager
    def measured(self):
        """Yield [start, end], the thread CPU times of the block, with a
        burst of probes just outside each end."""
        self.burst()
        interval = [time.thread_time(), 0.0]
        try:
            yield interval
        finally:
            interval[1] = time.thread_time()
            self.burst()

    def factor(self, start: float, end: float) -> float:
        """How much slower than nominal the host ran from `start` to `end`
        (thread CPU times), from the probes within WINDOW of that span."""
        lo = bisect.bisect_left(self.starts, start - WINDOW)
        hi = bisect.bisect_right(self.starts, end + WINDOW)
        if lo == hi:
            raise RuntimeError(f"no speed probe near the interval {start:.3f}-{end:.3f}")
        return statistics.median(self.lengths[lo:hi]) / NOMINAL_PROBE_S

    def scaled(self, start: float, end: float) -> float:
        """CPU seconds of the interval, at nominal speed."""
        return (end - start) / self.factor(start, end)
