"""Machine-speed calibration for the timed rounds.

The machine the benchmark was built on is shared: for seconds to minutes at
a time every process on it runs up to twice as slow, and no way of summing
up the operations' own times hides that from one run to the next. Pure
Python code of the kind the workbench runs (Fraction arithmetic, dicts of
bit masks, tuples, blake2b) slows down alike, so the benchmark times a fixed
kernel of that kind between the operations and scales each operation's time
to a fixed speed of the kernel.

The kernel is taken from `reference.py` and calls nothing in the workbench,
so a change to the program leaves it as it is. It runs in blocks: one before
the first operation, then one after every segment of operations that took
`SEGMENT_S` or more, lasting `SHARE` of that segment. Within an operation a
`SIGALRM` interval timer runs one kernel call every `TICK_S`, and the
call's time is taken out of the operation's, so that a long operation is
scaled by the speed the machine had while it ran. The operations of a
segment are scaled by the kernel's mean time over the blocks on either side
of it and the calls within it: scaled = measured * NOMINAL_S / kernel time.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

import reference as ref

# A fixed reference time for one kernel call. On the 2-core machine the
# benchmark was built on (CPython 3.11) the kernel takes 2-2.5 ms in a fast
# spell and 4-4.5 ms in a slow one; scaled times are in seconds of a machine
# on which it takes 3 ms.
NOMINAL_S = 0.003
SEGMENT_S = 0.05  # operation time between two blocks, at least
TICK_S = 0.02  # within an operation, one kernel call every TICK_S of wall time
SHARE = 0.25  # a block's length, as a share of the segment before it
FIRST_BLOCK_S = 0.2  # the block before the first operation


class Kernel:
    """A fixed computation of about NOMINAL_S: the nested-prefix polynomial
    of a 15-vertex graph, a replay of a resampling run on the extremal C12
    and the pwdag weight sums of C4 to 7 nodes."""

    def __init__(self):
        rng = random.Random("calibrate")
        m = 15
        edges = [(u, v) for u in range(1, m + 1) for v in range(u + 1, m + 1) if rng.random() < 0.3]
        self.adj = ref.adjacency_masks(m, edges)
        self.values = [Fraction(rng.randint(1, 9), 97) for _ in range(m)]
        self.full = (1 << m) - 1
        half = Fraction(1, 2)
        self.system = ref.RefSystem(
            [None] * 12, [ref.box_event({i: [(0, half)], i % 12 + 1: [(half, 1)]}) for i in range(1, 13)]
        )
        self.c4 = ref.adjacency_masks(4, ref.cycle_edges(4))
        self.p = [Fraction(1, 5), Fraction(1, 6), Fraction(1, 7), Fraction(1, 8)]
        self()  # the first call is slower; it is not timed

    def __call__(self) -> None:
        ref.z_masked(self.adj, self.values, self.full, {})
        ref.replay(self.system, "lowest-index", "calibrate")
        ref.pwdag_sums(self.c4, self.p, 7)


def block(kernel: Kernel, budget_s: float) -> float:
    """Runs the kernel for budget_s, at least once; the mean time a call."""
    calls, start = 0, perf_counter()
    while True:
        kernel()
        calls += 1
        took = perf_counter() - start
        if took >= budget_s:
            return took / calls


class Scaler:
    """Collects measured operation times and fills in their scaled ones."""

    def __init__(self):
        self.kernel = Kernel()
        self.last = block(self.kernel, FIRST_BLOCK_S)
        self.first = self.last
        self.blocks = [self.last]
        self.pending: list[tuple[list, int, float]] = []
        self.segment = 0.0
        self.inside: list[float] = []  # kernel calls within the pending operations
        self.timing = False
        self.ticks: list[tuple[float, float]] = []  # when the current operation's kernel calls ran
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        if self.timing:
            start = perf_counter()
            self.inside.append(block(self.kernel, 0.0))
            self.ticks.append((start, perf_counter()))

    def time(self, call) -> tuple[object, float]:
        """Calls call(), with a kernel call every TICK_S until it returns;
        returns its result and its time without the kernel calls."""
        self.ticks, self.timing = [], True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            out = call()
        finally:
            end = perf_counter()
            self.timing = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        paused = sum(max(0.0, min(b, end) - max(a, start)) for a, b in self.ticks)
        return out, end - start - paused

    def add(self, row: list, k: int, took: float) -> None:
        """row[k] gets took, scaled, once the next block has run."""
        self.pending.append((row, k, took))
        self.segment += took
        if self.segment >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if not self.pending:
            return
        now = block(self.kernel, SHARE * self.segment)
        around = [self.last, now] + self.inside
        scale = NOMINAL_S / (sum(around) / len(around))
        for row, k, took in self.pending:
            row[k] = took * scale
        self.blocks += self.inside + [now]
        self.last, self.pending, self.segment, self.inside = now, [], 0.0, []
