"""A host-speed probe interleaved with the measured work.

The benchmark's host is shared: over tens of seconds its speed drifts
by up to 1.8x (a fixed pure-Python loop measured 0.39 s, then 0.70 s,
within one minute, with no steal time reported).  Process CPU time of
the program moves with it, so the benchmark rescales each world's CPU
time to a reference host speed.

The probe is a fixed piece of pure-Python work shaped like the kernel's
hot path: a binary heap of objects with a Python ``__lt__``, popped and
re-pushed, plus integer-keyed dict reads.  It allocates no container
objects (so it never triggers or feeds the cyclic collector) and its
code lives in the benchmark, so no change to the program can change
what it measures.  :meth:`HostSpeed.add_work` runs probe chunks right
after each measured slice until the probe has used ``share`` of the
measured CPU, so the probe samples the host in the same periods as the
work, weighted by the work's duration.
"""

from __future__ import annotations

import heapq
import random
import time
from array import array

#: Heap operations per probe chunk (about a millisecond of CPU).
CHUNK_OPS = 300

#: Probe heap entries and table slots.  The table (16 MiB of doubles,
#: read at pseudo-random slots) is larger than the last-level cache, so
#: the probe misses cache about as the simulator's large heaps do; a
#: cache-resident probe speeds up far more than the program when the
#: host is quiet.
HEAP_ENTRIES = 1 << 16
TABLE_SLOTS = 1 << 21

#: CPU seconds one chunk takes at the reference host speed.  Any fixed
#: value works, since only ratios of rescaled times are compared; this
#: one is a chunk time seen on a 2-vCPU Intel Xeon VM in a slow period.
#: On that VM one LAN world's raw CPU ranged over 1.00-1.72 s across 28
#: back-to-back repeats; its rescaled CPU stayed within 0.92-1.06 of
#: the median.
REFERENCE_CHUNK_S = 0.0015


class _Entry:
    __slots__ = ("t", "k")

    def __init__(self, t: float, k: int) -> None:
        self.t = t
        self.k = k

    def __lt__(self, other: "_Entry") -> bool:
        if self.t != other.t:
            return self.t < other.t
        return self.k < other.k


class HostSpeed:
    """Interleaves probe chunks with measured work; rescales CPU times."""

    def __init__(self, share: float = 0.2) -> None:
        rng = random.Random(0)
        self.share = share
        self.heap = [_Entry(rng.random(), k) for k in range(HEAP_ENTRIES)]
        heapq.heapify(self.heap)
        self.table = array("d", (rng.random() for _ in range(TABLE_SLOTS)))
        self.cursor = 1
        self.work_s = 0.0
        self.probe_s = 0.0
        self.chunks = 0

    def _chunk(self) -> None:
        heap, table, replace = self.heap, self.table, heapq.heapreplace
        mask = TABLE_SLOTS - 1
        cursor = self.cursor
        started = time.process_time()
        for _ in range(CHUNK_OPS):
            cursor = (cursor * 1103515245 + 12345) & 0x7FFFFFFF
            entry = heap[0]
            entry.t += table[cursor & mask]
            replace(heap, entry)
        self.probe_s += time.process_time() - started
        self.cursor = cursor
        self.chunks += 1

    def add_work(self, cpu_s: float) -> None:
        """Record ``cpu_s`` of measured work, then probe the host."""
        self.work_s += cpu_s
        while self.probe_s < self.share * self.work_s:
            self._chunk()

    def mark(self):
        """A snapshot for :meth:`factor_since`."""
        return (self.probe_s, self.chunks)

    def factor_since(self, mark) -> float:
        """Reference speed over host speed since ``mark``: multiply a CPU
        time measured in that period by this to rescale it."""
        probe_s = self.probe_s - mark[0]
        chunks = self.chunks - mark[1]
        if chunks == 0 or probe_s <= 0.0:
            self._chunk()
            return self.factor_since(mark)
        return chunks * REFERENCE_CHUNK_S / probe_s
