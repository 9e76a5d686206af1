"""Layer clock: times the calls the benchmark makes into each layer.

The program under test carries no benchmark spans.  Instead, for the
length of a traced pass, :class:`LayerClock` swaps each layer's public
entry points (module functions and class methods of ``repro``) for
timing wrappers, and restores the originals afterwards.  Each layer
gets its *self* time -- its wall time minus the time spent in nested
layers -- so the self times of all layers plus the unattributed rest
add up to the traced wall exactly.

The clock is single-threaded by design: the traced passes run their
layers on the calling thread (pool workers are separate processes and
are timed from the parent as one ``harness.execute`` call).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from pathlib import Path

from common import proc_status_kb

_HERE = Path(__file__).resolve().parent


def _layer_targets():
    """``(layer, owner, attribute)`` for every wrapped entry point.

    ``owner`` is a class (the method is swapped on the class) or
    ``None`` for a module-level function, which is swapped in every
    ``repro`` module and benchmark module that holds a reference to it.
    """
    from repro.bandwidth.graph_theoretic import beta_bracket, routing_congestion
    from repro.embedding.lower_bounds import congestion_lower_bound
    from repro.harness.executors import ParallelExecutor, SerialExecutor
    from repro.harness.jobs import Job
    from repro.harness.store import ResultStore
    from repro.harness.sweep import run_sweep
    from repro.routing.measure import measure_bandwidth, measure_bandwidth_many
    from repro.routing.saturation import saturation_sweep
    from repro.routing.simulator import RoutingSimulator
    from repro.routing.strategies import shortest_path_route
    from repro.routing.tables import NextHopTables
    from repro.service.app import QueryService
    from repro.topologies.registry import FamilySpec
    from repro.traffic.distribution import TrafficDistribution, symmetric_traffic

    return [
        ("topologies.build", FamilySpec, "build_with_size"),
        ("routing.tables", NextHopTables, "ensure_dense"),
        ("traffic.build", None, symmetric_traffic),
        ("traffic.sample", TrafficDistribution, "sample_messages"),
        ("traffic.sample", TrafficDistribution, "sampler"),
        ("routing.plan", None, shortest_path_route),
        ("routing.route", RoutingSimulator, "route"),
        ("routing.route", RoutingSimulator, "route_batch"),
        ("routing.measure", None, measure_bandwidth),
        ("routing.measure", None, measure_bandwidth_many),
        ("routing.saturation", None, saturation_sweep),
        ("bandwidth.congestion", None, routing_congestion),
        ("embedding.cut_bound", None, congestion_lower_bound),
        ("bandwidth.bracket", None, beta_bracket),
        ("harness.sweep", None, run_sweep),
        ("harness.job", Job, "run"),
        ("harness.execute", ParallelExecutor, "run"),
        ("harness.execute", SerialExecutor, "run"),
        ("harness.store_get", ResultStore, "get"),
        ("harness.store_put", ResultStore, "put"),
        ("service.handle", QueryService, "handle"),
    ]


def _reset_peak_rss() -> None:
    """Reset this process's peak-RSS mark to its current RSS (Linux)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


class LayerClock:
    """Per-layer self time, inclusive time and call counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Exact work counts from the outermost routing call of a stack.
        self.ticks = 0
        self.packets = 0
        #: Largest RSS growth (MB) seen during one traffic build.
        self.traffic_peak_mb = 0.0
        self._stack: list[list] = []  # [layer, child seconds]

    # -- timing ---------------------------------------------------------------

    def _enter(self, layer: str) -> list:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, dt: float) -> None:
        self._stack.pop()
        layer = frame[0]
        self.self_s[layer] += dt - frame[1]
        self.incl_s[layer] += dt
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += dt

    def _outermost(self, layer: str) -> bool:
        """True when no call of ``layer`` is still open (after exit)."""
        return all(frame[0] != layer for frame in self._stack)

    def wrap(self, layer: str, fn):
        """A timing wrapper of ``fn`` charged to ``layer``."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = clock._enter(layer)
            peak = layer == "traffic.build"
            if peak:
                _reset_peak_rss()
                rss0 = proc_status_kb("VmRSS")
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                clock._exit(frame, dt)
            if peak:
                grown = (proc_status_kb("VmHWM") - rss0) / 1024.0
                clock.traffic_peak_mb = max(clock.traffic_peak_mb, grown)
            if layer == "routing.route" and clock._outermost(layer):
                results = out if isinstance(out, list) else [out]
                clock.ticks += sum(r.total_time for r in results)
                clock.packets += sum(r.num_packets for r in results)
            if layer == "traffic.sample" and fn.__name__ == "sampler":
                return clock.wrap("traffic.sample", out)
            return out

        return timed

    # -- installation ---------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Swap every layer entry point for its timing wrapper."""
        undo: list[tuple[object, str, object]] = []
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (
                name == "repro" or name.startswith("repro.")
                or _HERE in Path(getattr(mod, "__file__", None) or "/").parents
            )
        ]
        try:
            for layer, owner, target in _layer_targets():
                if owner is not None:
                    original = owner.__dict__[target]
                    setattr(owner, target, self.wrap(layer, original))
                    undo.append((owner, target, original))
                    continue
                wrapped = self.wrap(layer, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, target))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    # -- reporting ------------------------------------------------------------

    def table(self, wall: float) -> list[tuple[str, float, float, int]]:
        """``(layer, self seconds, share of wall, calls)`` rows, largest
        first, closed by an ``unattributed`` row so the seconds sum to
        ``wall``."""
        rows = sorted(
            ((name, s, s / wall, self.calls[name]) for name, s in self.self_s.items()),
            key=lambda row: -row[1],
        )
        rest = wall - sum(s for _, s, _, _ in rows)
        rows.append(("unattributed", rest, rest / wall, 0))
        return rows
