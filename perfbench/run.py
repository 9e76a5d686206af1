"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see ``BENCHMARK.json`` for why each exists): ``measure_large``,
``saturate``, ``sweep_small`` and ``serve_mixed``.  ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced
run.  ``--smoke`` runs every workload at toy size in a few seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are the run's provenance record and, for traced runs, the
per-layer table.  Exits 2 without a result when the checkout has no
``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Fresh starts timed for ``setup_s`` / ``import.repro_s``, spread over
#: the run.
SETUP_SPAWNS = 5
#: Per-layer metric groups owned by one workload; the others report 0.
OWNED = {"harness": "sweep_small", "service": "serve_mixed", "client": "serve_mixed"}
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import repro; "
    "print(time.perf_counter() - t0, flush=True)"
)


def _environment() -> None:
    """Keep every file the program writes inside the checkout."""
    for sub in ("tmp", "kernels"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    sys.path[:0] = [str(SRC), str(HERE)]


def import_probe() -> tuple[float, float]:
    """Spawn a fresh interpreter that imports repro: ``(ready seconds as
    the parent saw them, import seconds as the child timed them)``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", IMPORT_PROBE], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait() != 0 or not line.strip():
        raise RuntimeError("a fresh interpreter failed to import repro")
    return ready, float(line)


def provenance(args) -> dict:
    import numpy

    from repro.routing.compiled import capability

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_provider": capability()["provider"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="toy sizes, seconds-long run")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {ROOT}; nothing to benchmark", file=sys.stderr)
        return 2
    _environment()

    import inproc
    import serve
    from common import Outcome, SpreadProbes

    workloads = {**inproc.WORKLOADS, **serve.WORKLOADS}
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {sorted(workloads)}", file=sys.stderr)
        return 2

    out = Outcome()
    trace = bool(args.trace)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        # setup_s of serve_mixed is a server's spawn to its first 200
        # from /healthz; everywhere else, and for import.repro_s, it is
        # a fresh interpreter importing repro.
        serving = args.workload == "serve_mixed" and not trace
        probe = serve.server_probe(work) if serving else import_probe
        setup = SpreadProbes(probe, 1 if args.smoke else SETUP_SPAWNS, args.seconds)
        ctx = inproc.Context(args.seed, args.seconds, trace, args.smoke, work, setup)
        # Warm the process (lazy imports, allocator) off the clock.
        inproc.large_cell("mesh_2", 16, 0)
        workloads[args.workload](out, ctx)
        inproc.reference_spot_check(out, args.seed % inproc.PINNED_SEEDS)
        samples = setup.finish()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        out.put("import.repro_s", statistics.median(s[1] for s in samples), "s")
    else:
        out.put("setup_s", statistics.median(s[0] for s in samples), "s")

    declared = _declared()
    wanted = declared["per_layer" if trace else "end_to_end"]
    for metric in wanted:
        name = metric["name"]
        owner = OWNED.get(name.split(".")[0])
        if name not in out.metrics and trace and owner not in (None, args.workload):
            out.put(name, 0.0, metric["unit"])  # that layer does not run here
        if name not in out.metrics:
            out.check(False, f"metric {name} was not measured")
            continue
        if out.metrics[name][1] != metric["unit"]:
            out.check(False, f"{name} measured in {out.metrics[name][1]}, "
                             f"declared {metric['unit']}")

    record = {"provenance": provenance(args), "notes": out.notes, "errors": out.errors}
    print("record " + json.dumps(record, sort_keys=True))
    if trace and out.layer_table:
        print(f"{'layer':<24}{'self s':>12}{'share':>9}{'calls':>9}")
        for layer, seconds, share, calls in out.layer_table:
            print(f"{layer:<24}{seconds:>12.4f}{share:>9.1%}{calls:>9}")
    for message in out.errors:
        print(f"error: {message}", file=sys.stderr)
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
            if name in {m["name"] for m in wanted}
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
