"""The three in-process workloads: measure_large, saturate, sweep_small.

Every workload runs *passes* over a fixed work list.  With tracing off,
passes repeat until the run's seconds are used (at least two, so that
``measure_large``, whose pass takes about half a run, still gets a
median of more than one) and the end-to-end metrics are medians over
passes.  With tracing on, untraced
and traced passes alternate (at least one of each): the traced passes
give the per-layer split, the pair gives the tracing overhead.

Library calls use the defaults users get (no ``engine=``), so a change
of the default engine shows up here.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import json
import shutil
import time
from statistics import median
from dataclasses import asdict, dataclass, field
from pathlib import Path

from numpy import percentile
from repro.bandwidth import beta_bracket, measure_bandwidth
from repro.harness import ParallelExecutor, ResultStore, expand_grid, run_sweep
from repro.routing.measure import measure_bandwidth_many
from repro.routing.saturation import saturation_sweep
from repro.topologies import family_spec

from common import NPROC, Outcome, SpreadProbes, digest, peak_rss_mb
from layers import LayerClock

PINNED = Path(__file__).resolve().parent / "pinned.json"
#: Input seeds whose results are pinned; a run's ``--seed`` picks one.
PINNED_SEEDS = 16

# measure_large: cold `repro bandwidth` cells, each once per pass; the
# last one is "heavy".
LARGE_CELLS = (("mesh_2", 1024), ("de_bruijn", 1024), ("xtree", 1024), ("mesh_2", 2048))
SMOKE_LARGE_CELLS = (("mesh_2", 64), ("de_bruijn", 64), ("xtree", 64), ("mesh_2", 128))
HEAVY_CELL = 3

# saturate: rates straddle each family's per-node saturation rate
# (about 0.008 for linear_array and tree, 0.02 for xtree and 0.12 for
# mesh_2 at n=256): the low ladder is idle-dominated, the high one busy.
SAT_FAMILIES = ("linear_array", "tree", "xtree", "mesh_2")
SAT_SIZE, SMOKE_SAT_SIZE = 256, 16
LOW_RATES = (0.001, 0.002, 0.004)
HIGH_RATES = (0.2, 0.4)
MANY_SEEDS = 8

# sweep_small: tiny cells, so dispatch and store I/O weigh like compute.
SWEEP_FAMILIES = ("linear_array", "ring", "tree", "xtree", "mesh_2", "de_bruijn")
SWEEP_SIZES = (16, 32, 64)
SWEEP_SEEDS = 8
SMOKE_SWEEP = (("ring", "mesh_2"), (16,), 2)


@dataclass
class Pass:
    """One pass over a workload's work list."""

    wall: float
    light: list[float]  # per-operation seconds at light load
    heavy: list[float]  # per-operation seconds at heavy load
    records: list = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    total: float = 0.0  # the whole pass as _passes timed it, less ``untimed``
    untimed: float = 0.0  # the benchmark's own housekeeping inside the pass


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    smoke: bool
    work: Path
    #: Fresh-start probes for ``setup_s``, polled between units of work.
    setup: SpreadProbes


def _passes(one_pass, ctx: Context) -> tuple[list[Pass], list[tuple[Pass, LayerClock]]]:
    """Run passes for ``ctx.seconds``: untraced only, or alternating
    untraced/traced when tracing.  Traced entries carry their clock."""
    plain: list[Pass] = []
    traced: list[tuple[Pass, LayerClock]] = []
    start, probed = time.perf_counter(), ctx.setup.spent
    while True:
        ctx.setup.poll()
        gc.collect()
        clock = LayerClock() if ctx.trace and len(traced) < len(plain) else None
        with clock.installed() if clock else contextlib.nullcontext():
            t0 = time.perf_counter()
            p = one_pass(clock)
            p.total = time.perf_counter() - t0 - p.untimed
        if clock:
            traced.append((p, clock))
        else:
            plain.append(p)
        runs = len(plain) + len(traced)
        elapsed = time.perf_counter() - start - (ctx.setup.spent - probed)
        complete = len(traced) == len(plain) if ctx.trace else runs >= 2
        if complete and elapsed + elapsed / runs > ctx.seconds:
            return plain, traced


def _latencies(out: Outcome, plain: list[Pass], q: int) -> None:
    """Light and heavy ``q``-th percentiles: taken per pass, the median
    over passes reported, so one pass slowed by host contention does not
    move them."""
    for prefix, load in (("", "light"), ("heavy_", "heavy")):
        value = median([percentile(getattr(p, load), q) for p in plain])
        out.put(f"{prefix}p{q}_ms", 1e3 * value, "ms")


def _end_to_end(out: Outcome, plain: list[Pass]) -> None:
    out.put("wall_s", median([p.wall for p in plain]), "s")
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.notes["pass_walls_s"] = [round(p.wall, 4) for p in plain]


def clock_metrics(out: Outcome, traced: list[tuple[Pass, LayerClock]]) -> None:
    """Layer metrics read off the clocks: means over the traced passes,
    plus the layer table of the last pass and the unattributed share."""
    k = len(traced)

    def mean(fn) -> float:
        return sum(fn(p, c) for p, c in traced) / k

    def self_s(layer):
        return mean(lambda p, c: c.self_s.get(layer, 0.0))

    for name, layer in (
        ("topologies.build_s", "topologies.build"),
        ("routing.tables_s", "routing.tables"),
        ("traffic.build_s", "traffic.build"),
        ("traffic.sample_s", "traffic.sample"),
        ("routing.plan_s", "routing.plan"),
        ("bandwidth.congestion_s", "bandwidth.congestion"),
        ("embedding.cut_bound_s", "embedding.cut_bound"),
        ("bandwidth.bracket_s", "bandwidth.bracket"),
        ("routing.route_s", "routing.route"),
    ):
        out.put(name, self_s(layer), "s")
    route_s = self_s("routing.route")
    packets = mean(lambda p, c: c.packets)
    out.put("traffic.build_peak_mb", mean(lambda p, c: c.traffic_peak_mb), "MB")
    out.put("routing.ticks", mean(lambda p, c: c.ticks), "count")
    out.put("routing.packets", packets, "count")
    out.put("routing.packets_per_s", packets / route_s if route_s else 0.0, "1/s")
    out.put("routing.route_lo_s", 0.0, "s")
    out.put("routing.route_hi_s", 0.0, "s")
    for name in traced[0][0].layers:
        out.put(name, mean(lambda p, c: p.layers[name]), _unit(name))
    tables = [c.table(p.total) for p, c in traced]
    out.layer_table = tables[-1]
    out.put("unattributed_frac", median([t[-1][2] for t in tables]), "frac")


def _layers(out: Outcome, plain: list[Pass], traced: list[tuple[Pass, LayerClock]]) -> None:
    clock_metrics(out, traced)
    _latencies(out, plain, 50)
    _latencies(out, plain, 99)
    untraced = median([p.total for p in plain])
    traced_wall = median([p.total for p, _ in traced])
    out.put("trace_overhead_frac", (traced_wall - untraced) / untraced, "frac")
    out.notes["passes"] = {"untraced": len(plain), "traced": len(traced)}
    out.notes["traced_wall_s"] = traced_wall


def _unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "frac" if name.endswith(("_rate", "_frac")) else "count"


def _pinned(workload: str, smoke: bool, seed: int) -> list[str] | None:
    table = json.loads(PINNED.read_text())
    return table[workload]["smoke" if smoke else "full"].get(str(seed))


def _check_pinned(out: Outcome, workload: str, ctx: Context, passes: list[Pass]) -> None:
    """Every pass's records must match the pinned digests, cell by cell."""
    seed = ctx.seed % PINNED_SEEDS
    want = _pinned(workload, ctx.smoke, seed)
    for p in passes:
        for cell, record in enumerate(p.records):
            out.check(
                want is not None and cell < len(want) and digest(record) == want[cell],
                f"{workload} input seed {seed} cell {cell} differs from the pinned "
                f"digest: {json.dumps(record)[:300]}",
            )


def reference_spot_check(out: Outcome, seed: int) -> None:
    """One tiny saturation cell must match ``engine="reference"``."""
    machine = family_spec("mesh_2").build_with_size(16)
    kwargs = {"rates": [0.1, 0.5], "duration": 32, "seed": seed}
    default = saturation_sweep(machine, **kwargs)
    reference = saturation_sweep(machine, engine="reference", **kwargs)
    out.check(default == reference, f"saturation on the default engine differs from "
              f"engine='reference' (mesh_2 n=16, seed {seed})")


# -- measure_large --------------------------------------------------------------


def large_cell(family: str, size: int, seed: int) -> dict:
    """One cold ``repro bandwidth`` cell: build, bracket, measure."""
    machine = family_spec(family).build_with_size(size)
    bracket = beta_bracket(machine)
    meas = measure_bandwidth(machine, seed=seed)
    return {
        "family": family,
        "n": machine.num_nodes,
        "bracket": [bracket.lower, bracket.upper],
        "rate": meas.rate,
        "ticks": meas.total_time,
        "messages": meas.num_messages,
    }


def measure_large(out: Outcome, ctx: Context) -> None:
    cells = SMOKE_LARGE_CELLS if ctx.smoke else LARGE_CELLS
    seed = ctx.seed % PINNED_SEEDS

    def one_pass(clock):
        light, heavy, records = [], [], []
        housekeeping = 0.0
        for cell, (family, size) in enumerate(cells):
            t0 = time.perf_counter()
            records.append(large_cell(family, size, seed))
            t1 = time.perf_counter()
            gc.collect()  # free the cell's machine before the next one
            housekeeping += time.perf_counter() - t1 + ctx.setup.poll()
            (heavy if cell == HEAVY_CELL else light).append(t1 - t0)
        return Pass(sum(light) + sum(heavy), light, heavy, records, untimed=housekeeping)

    plain, traced = _passes(one_pass, ctx)
    _check_pinned(out, "measure_large", ctx, plain + [p for p, _ in traced])
    if ctx.trace:
        _layers(out, plain, traced)
    else:
        _end_to_end(out, plain)


# -- saturate -----------------------------------------------------------------


def saturate_family(family: str, size: int, seed: int, clock: LayerClock | None = None):
    """Low- and high-rate sweeps plus a many-seed batch on one fresh machine.

    Returns ``(record, low seconds, high seconds, low route seconds,
    high route seconds)``; the route split needs ``clock``.
    """
    machine = family_spec(family).build_with_size(size)
    # The batch goes first and pays for the machine's next-hop tables,
    # so the two timed sweeps differ only in their offered rates.
    many = measure_bandwidth_many(
        machine, [MANY_SEEDS * seed + i for i in range(MANY_SEEDS)]
    )

    def routed():
        return clock.self_s.get("routing.route", 0.0) if clock else 0.0

    r0, t0 = routed(), time.perf_counter()
    low = saturation_sweep(machine, rates=list(LOW_RATES), seed=seed)
    r1, t1 = routed(), time.perf_counter()
    high = saturation_sweep(machine, rates=list(HIGH_RATES), seed=seed + PINNED_SEEDS)
    r2, t2 = routed(), time.perf_counter()
    record = {
        "family": family,
        "n": machine.num_nodes,
        "low": [asdict(p) for p in low],
        "high": [asdict(p) for p in high],
        "many": [[m.rate, m.total_time, m.max_edge_traffic, m.mean_latency] for m in many],
    }
    return record, t1 - t0, t2 - t1, r1 - r0, r2 - r1


def saturate(out: Outcome, ctx: Context) -> None:
    size = SMOKE_SAT_SIZE if ctx.smoke else SAT_SIZE
    seed = ctx.seed % PINNED_SEEDS

    def one_pass(clock):
        records, low, high = [], [], []
        route_lo = route_hi = wall = housekeeping = 0.0
        for family in SAT_FAMILIES:
            t0 = time.perf_counter()
            record, lo_s, hi_s, lo_route, hi_route = saturate_family(family, size, seed, clock)
            wall += time.perf_counter() - t0
            housekeeping += ctx.setup.poll()
            records.append(record)
            low.append(lo_s)
            high.append(hi_s)
            route_lo += lo_route
            route_hi += hi_route
        layers = {"routing.route_lo_s": route_lo, "routing.route_hi_s": route_hi} if clock else {}
        return Pass(wall, low, high, records, layers, untimed=housekeeping)

    plain, traced = _passes(one_pass, ctx)
    _check_pinned(out, "saturate", ctx, plain + [p for p, _ in traced])
    if ctx.trace:
        _layers(out, plain, traced)
    else:
        _end_to_end(out, plain)


# -- sweep_small -----------------------------------------------------------------


def sweep_jobs(seed: int, smoke: bool):
    families, sizes, seeds = (
        SMOKE_SWEEP if smoke else (SWEEP_FAMILIES, SWEEP_SIZES, SWEEP_SEEDS)
    )
    return expand_grid(
        "measure_bandwidth",
        {
            "family": list(families),
            "size": list(sizes),
            "seed": [seeds * seed + i for i in range(seeds)],
        },
    )


def _canonical(values) -> str:
    return json.dumps(values, sort_keys=True)


def sweep_small(out: Outcome, ctx: Context) -> None:
    jobs = sweep_jobs(ctx.seed, ctx.smoke)
    serial: dict[str, float | str] = {}

    def run_serial():
        t0 = time.perf_counter()
        values = [job.run() for job in jobs]
        serial["compute_s"] = time.perf_counter() - t0
        serial["values"] = _canonical(values)

    if not ctx.trace:
        run_serial()  # the bit-identity reference, outside the timed passes
    counter = itertools.count()

    def one_pass(clock):
        if ctx.trace:
            run_serial()
        root = ctx.work / f"store-{next(counter)}"
        marks: list[float] = []

        def sweep():
            marks.clear()
            t0 = time.perf_counter()
            result = run_sweep(
                jobs,
                executor=ParallelExecutor(max_workers=NPROC),
                store=ResultStore(root),
                progress=lambda _r: marks.append(time.perf_counter()),
            )
            return result, time.perf_counter() - t0, [m - t0 for m in marks]

        cold, cold_s, heavy = sweep()
        gets0 = _calls(clock, "harness.store_get")
        warm, warm_s, light = sweep()
        gets1 = _calls(clock, "harness.store_get")
        t0 = time.perf_counter()
        shutil.rmtree(root)
        housekeeping = time.perf_counter() - t0
        layers = {}
        if clock:
            puts = clock.calls.get("harness.store_put", 0)
            layers = {
                "harness.compute_s": serial["compute_s"],
                "harness.dispatch_s": cold_s - serial["compute_s"] / NPROC,
                "harness.store_put_us": 1e6 * clock.incl_s.get("harness.store_put", 0.0)
                / max(1, puts),
                "harness.store_get_us": 1e6 * (gets1[1] - gets0[1]) / max(1, gets1[0] - gets0[0]),
                "harness.warm_sweep_s": warm_s,
                "harness.cache_hit_rate": warm.cache_hit_rate,
                "harness.retries": cold.num_retries + warm.num_retries,
            }
        records = [
            (cold.num_failed, _canonical(cold.values)),
            (warm.num_failed, warm.cache_hit_rate, _canonical(warm.values)),
        ]
        return Pass(cold_s + warm_s, light, heavy, records, layers, untimed=housekeeping)

    plain, traced = _passes(one_pass, ctx)
    for p in plain + [p for p, _ in traced]:
        (cold_failed, cold_values), (warm_failed, hit_rate, warm_values) = p.records
        out.check(cold_failed == 0, f"{cold_failed} cold sweep cells failed")
        out.check(cold_values == serial["values"],
                  "parallel cold sweep differs from the serial run")
        out.check(warm_failed == 0 and hit_rate == 1.0,
                  f"warm rerun: {warm_failed} failed, cache hit rate {hit_rate}")
        out.check(warm_values == cold_values, "warm rerun differs from the cold sweep")
    if ctx.trace:
        _layers(out, plain, traced)
    else:
        _end_to_end(out, plain)


def _calls(clock: LayerClock | None, layer: str) -> tuple[int, float]:
    if clock is None:
        return 0, 0.0
    return clock.calls.get(layer, 0), clock.incl_s.get(layer, 0.0)


WORKLOADS = {
    "measure_large": measure_large,
    "saturate": saturate,
    "sweep_small": sweep_small,
}
