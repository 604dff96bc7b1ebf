"""Wall time rescaled to the speed of a reference host.

A shared virtual machine runs the same code at speeds that drift by up
to ~1.7x, from one second to the next and from one run to the next:
neighbours contend for the physical cores and caches, and none of it
shows as steal time or in the process's CPU time.  On a 2-vCPU Intel
Xeon virtual machine the same seed of ``point-service`` gave 95-164
reads/s, and over ten seeds the middle half of the read throughput and
median latency spread by 25-35% of the median on every workload.

The benchmark therefore times a fixed piece of pure-Python reference
work, the *probe*, between operations (every :data:`PROBE_EVERY_S` of
run time, never inside a timed region), and rescales each timed
interval by ``REF_PROBE_S / p``, where ``p`` is the median of the last
:data:`WINDOW` probes.  The probe uses no GhostDB code, so a change to
the program moves the rescaled times as it moves wall time on
a host of steady speed; a host slowdown moves the probe and the
program alike and cancels.  Rescaled, ten seeds on the same machine
spread by 3-7% (read throughput and median latency) and 5-16% (tail
latency, restore).  The probe runs in the benchmark's own process, so
that process's heap and cache state touch it too: probes after engine
reads ran 2-6% slower than probes after a plain busy loop, in runs
alternated a few seconds apart.

The probe has five parts, each timed on its own, and reports their
geometric mean: dict updates and a tuple sort, method calls along a
linked list, a heap merge of generators, random reads from a large list
(cache misses) and struct packing, the kinds of work the engine spends
its time on.  No single part tracked every workload well; the mean of
all five did.
"""

from __future__ import annotations

import gc
import heapq
import math
import statistics
import struct
import time
from typing import List

#: the probe's time on the host the bounds were set on (the 2-vCPU
#: Intel Xeon virtual machine above, median of its runs); only ratios
#: to it matter
REF_PROBE_S = 0.0044
#: run time between two probes
PROBE_EVERY_S = 0.25
#: probes whose median sets the current speed
WINDOW = 5


class _Node:
    __slots__ = ("key", "val", "next")

    def __init__(self, key: int, val: int, nxt) -> None:
        self.key, self.val, self.next = key, val, nxt

    def weight(self) -> int:
        return self.key * 3 + self.val


def _dicts() -> int:
    counts: dict = {}
    rows = []
    for i in range(6000):
        k = (i * 7919) % 1009
        counts[k] = counts.get(k, 0) + i
        rows.append((k, i & 255, str(i)))
    rows.sort()
    return sum(r[0] ^ r[1] for r in rows) + len(counts)


def _calls() -> int:
    head = None
    for i in range(4000):
        head = _Node(i % 97, i, head)
    acc = 0
    while head is not None:
        acc += head.weight()
        head = head.next
    return acc


def _merge() -> int:
    def run(start: int):
        for i in range(start, 6000, 4):
            yield (i * 2654435761) & 0xFFFF, i
    return sum(v for k, v in heapq.merge(*(sorted(run(s)) for s in range(4)))
               if k & 1)


_BIG = list(range(200_000))


def _memory() -> int:
    acc, j, n = 0, 1, len(_BIG)
    for _ in range(20_000):
        j = (j * 1103515245 + 12345) % n
        acc += _BIG[j]
    return acc


_REC = struct.Struct("<iiiHH")


def _packing() -> int:
    buf = bytearray(_REC.size * 2000)
    for i in range(2000):
        _REC.pack_into(buf, i * _REC.size, i, i * 3, -i, i & 0xFFFF, 7)
    return sum(t[0] + t[3] for t in _REC.iter_unpack(bytes(buf)))


PARTS = (_dicts, _calls, _merge, _memory, _packing)


def probe() -> float:
    """Seconds the reference work takes now (geometric mean of parts)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        logs = []
        for part in PARTS:
            t0 = time.perf_counter()
            part()
            logs.append(math.log(time.perf_counter() - t0))
    finally:
        if enabled:
            gc.enable()
    return math.exp(sum(logs) / len(logs))


class HostClock:
    """Probes the host's speed between operations and rescales timed
    intervals to the reference host's seconds."""

    def __init__(self) -> None:
        self.probes: List[float] = []
        self._last = -math.inf

    def probe(self) -> None:
        self.probes.append(probe())
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Probe if :data:`PROBE_EVERY_S` passed since the last probe;
        call it between operations, outside every timed region."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()

    def scale(self, wall_s: float) -> float:
        """``wall_s`` measured just now, in reference-host seconds."""
        return wall_s * REF_PROBE_S / statistics.median(
            self.probes[-WINDOW:])

    @property
    def speed(self) -> float:
        """The host's median speed over the run, relative to the
        reference host (above 1: faster)."""
        return REF_PROBE_S / statistics.median(self.probes)
