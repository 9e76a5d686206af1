"""Shared pieces of the benchmark: the run outcome, set-up probes, digests."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable

#: Worker processes / connections the benchmark may use: the CPUs this
#: process may run on, not the host's count.
NPROC = len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    layer_table: list[tuple[str, float, float, int]] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> bool:
        """Count one checked operation; record ``message`` if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(message)
        return ok


class SpreadProbes:
    """Fresh-start timings spread over a run, not bunched at its start.

    ``probe()`` takes one sample.  Sample ``k`` of ``count`` falls due
    once the run's work has used ``k / count`` of its seconds, so the
    samples meet the same host conditions as the work they sit beside.
    Time spent probing is kept in ``spent`` so the work clock can leave
    it out.
    """

    def __init__(self, probe: Callable[[], tuple], count: int, seconds: float) -> None:
        self.probe, self.count, self.seconds = probe, count, seconds
        self.samples: list[tuple] = []
        self.spent = 0.0
        self.start = time.perf_counter()

    def poll(self) -> float:
        """Take a sample if one is due; returns the seconds it took."""
        worked = time.perf_counter() - self.start - self.spent
        if len(self.samples) >= self.count or worked < len(self.samples) * self.seconds / self.count:
            return 0.0
        return self._take()

    def finish(self) -> list[tuple]:
        """Take the samples still missing; returns all of them."""
        while len(self.samples) < self.count:
            self._take()
        return self.samples

    def _take(self) -> float:
        t0 = time.perf_counter()
        self.samples.append(self.probe())
        dt = time.perf_counter() - t0
        self.spent += dt
        return dt


def proc_status_kb(field: str, pid: int | str = "self") -> int:
    """One ``kB`` field (``VmRSS``, ``VmHWM``, ...) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


def digest(obj: object) -> str:
    """Short content digest of a JSON value (floats kept at full repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0
