"""Metric records, percentiles and the run header."""

from __future__ import annotations

import math
import os
import platform
import statistics
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from hostclock import HostClock

#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10
#: ... and goes no higher than this percentile.  On ``point-service``
#: (~1500 reads a run) the 10 slowest reads are rare stalls whose count
#: per run swings, and p99.5 moved by ~25% from run to run; on
#: ``churn-fleet`` the first read of each batch replans after DML, 6-14
#: a run, so the 11th slowest read flipped between a replan and a
#: plain read
TAIL_MAX_PCT = 95.0


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def tail(values: Sequence[float]) -> tuple:
    """``(value, percentile)``: the highest percentile with at least
    :data:`TAIL_BEYOND` samples beyond it, at most :data:`TAIL_MAX_PCT`."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail with "
                         f"{TAIL_BEYOND} beyond it")
    idx = min(n - TAIL_BEYOND, math.ceil(n * TAIL_MAX_PCT / 100)) - 1
    return ordered[idx], 100.0 * (idx + 1) / n


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Outcome:
    """Everything one run reports."""

    header: Dict
    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)
    #: client observations that are not failures (recovered retries)
    observed: Counter = field(default_factory=Counter)
    wrong: List[str] = field(default_factory=list)
    #: the traced run's span recorder, written out by the caller
    tracer: Optional[object] = None
    #: rescales wall time to the reference host's speed
    clock: HostClock = field(default_factory=HostClock)

    def add(self, name: str, value: float, unit: str, samples: int,
            note: str = "") -> None:
        self.metrics[name] = Metric(float(value), unit, int(samples), note)

    def latency(self, prefix: str, seconds: Sequence[float]) -> None:
        """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` from latencies."""
        ms = [s * 1e3 for s in seconds]
        self.add(f"{prefix}_p50_ms", median(ms), "ms", len(ms))
        value, pct = tail(ms)
        beyond = len(ms) - round(len(ms) * pct / 100)
        self.add(f"{prefix}_tail_ms", value, "ms", len(ms),
                 f"p{pct:.1f}, {beyond} samples beyond")

    def ratio(self, name: str, hits: float, base: float, base_name: str,
              unit: str = "count") -> None:
        """A ratio plus its base, as two metrics."""
        self.add(name, hits / base if base else 0.0, "ratio", int(base))
        self.add(base_name, base, unit, int(base))

    def fail(self, kind: str) -> None:
        self.failures[kind] += 1

    def check(self, what: str, got, expected) -> None:
        if got != expected:
            self.wrong.append(what)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_header(workload: str, seed: int, seconds: int, trace: int,
               scale: float, shards: int) -> Dict:
    """What makes a run reproducible and comparable."""
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "shards": shards,
        "cpu": cpu or platform.machine(), "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "python": sys.version.split()[0],
    }

