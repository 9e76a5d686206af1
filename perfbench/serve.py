"""The serve_mixed workload: ``repro serve`` driven over HTTP.

The server runs as a subprocess with its defaults and a fresh
``--store``.  The benchmark's own open-loop Poisson client (not
``repro.loadgen``, so a change there cannot move the ruler) sends warm
``/v1/bandwidth`` reads on four families at n=64 plus a cold tail of
fresh seeds, over ``NPROC`` keep-alive connections.  Every latency is
timed from the request's *scheduled* send time, so a stall also delays
the requests queued behind it.  Arrivals are drawn up front from the
seed; the client reports how late it sent (its own lag, not the
server's) and counts arrivals it could not send at all.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import median

from numpy import percentile
from repro.harness import ResultStore
from repro.routing.measure import measure_bandwidth_job
from repro.service.app import QueryService

from common import NPROC, Outcome, proc_status_kb
from inproc import Context, Pass, _passes, clock_metrics

WARM_FAMILIES = ("mesh_2", "de_bruijn", "tree", "butterfly")
WARM_SEEDS = (0, 1, 2, 3)
SIZE = 64
#: Every 20th request (5%) is cold: a fresh seed, so every cache tier
#: misses and the server computes and stores it.  Spacing them evenly
#: keeps their count exact and stops them from bunching by chance; all
#: compute the same cell shape, so the tail reflects the server, not
#: which family a seed happened to draw.
COLD_EVERY = 20
COLD_FAMILY, COLD_SIZE = "mesh_2", 16
#: The fixed closed-loop work list, sent once per segment; ``wall_s`` is
#: its median wall over the segments.  It is warm reads pipelined on one
#: connection, so the server parses, handles and answers them back to
#: back and the list times the front end, the app and the memory tier.
#: Sent one request per round trip over two connections, the list timed
#: wake-ups and GIL hand-offs as much: on a 2-CPU VM its wall ranged
#: 0.14 to 0.65 s from run to run while the in-process workloads moved
#: 1.6-fold.  It leaves out the cold tail: while one handler thread
#: computes, reads on another connection wait on the GIL for a share
#: that depends on timing.
CLOSED_REQUESTS = 1000
#: Offered rates (requests/s) of the mix, fixed as absolute numbers so
#: that every commit is measured at the same load.  On that VM the mix's
#: two-connection closed-loop capacity measured 840 to 2700 requests/s
#: as the VM's speed swung, so the light rate leaves the server mostly
#: idle and the heavy rate keeps it busy a sixth to a half of the time:
#: requests start to queue behind one another and the cold computes.
LIGHT_RPS = 120.0
HEAVY_RPS = 400.0
#: Share of the run's seconds given to each open-loop rate, and the
#: number of segments the run is cut into: each segment sends a
#: light-rate stretch, a heavy-rate stretch and the closed-loop list.
LIGHT_SHARE, HEAVY_SHARE = 0.2, 0.2
SEGMENTS = 16
#: An arrival not sent within this many seconds of its due time is
#: dropped and counted as failed (the generator fell behind).
UNSENT_AFTER_S = 1.0
#: The generator's own p99 send lag above which a run is invalid.
LAG_BOUND_MS = 10.0
#: Cold responses compared against an in-process compute, per run.
COLD_SAMPLES = 8
#: Fresh connects timed for ``service.connect_ms`` (traced runs).
CONNECT_PROBES = 15
REQUEST_TIMEOUT_S = 10.0
#: The client's thread switch interval while it sends.
SWITCH_INTERVAL_S = 0.0005


def _path(family: str, seed: int, size: int = SIZE) -> str:
    return f"/v1/bandwidth?family={family}&size={size}&seed={seed}"


def _expected(family: str, seed: int, size: int = SIZE) -> dict:
    """The service's answer, computed in this process."""
    spec = {"family": family, "size": size, "seed": seed}
    return json.loads(json.dumps(measure_bandwidth_job(spec)))


# -- the server process --------------------------------------------------------


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    ready_s: float

    def peak_rss_mb(self) -> float:
        return proc_status_kb("VmHWM", self.proc.pid) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def server_probe(work: Path):
    """A ``setup_s`` probe: start a server on a fresh store, time spawn
    to ready, stop it."""
    counter = itertools.count()

    def probe() -> tuple[float]:
        server = spawn_server(work / f"setup-store-{next(counter)}", work / "server.log")
        server.stop()
        return (server.ready_s,)

    return probe


def spawn_server(store: Path, log: Path) -> Server:
    """Start ``repro serve`` on an ephemeral port; time spawn to the
    first 200 from ``/healthz``."""
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0", "--store", str(store)],
            stdout=subprocess.PIPE,
            stderr=err,
            text=True,
        )
    try:
        line = proc.stdout.readline()
        if "listening on http://" not in line:
            raise RuntimeError(f"server did not start: {line!r} (see {log})")
        port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.monotonic() + 60
        while True:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    conn.close()
                    break
                conn.close()
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.005)
    except BaseException:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise
    return Server(proc, port, time.perf_counter() - t0)


# -- the client ----------------------------------------------------------------


@dataclass
class Shot:
    """One request as the client saw it (times are perf_counter seconds)."""

    index: int
    due: float = 0.0
    taken: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict | None = None
    error: str | None = None
    unsent: bool = False

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - max(self.due, self.taken)


class Client:
    """One keep-alive connection that reconnects after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, dict | None, str | None]:
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
                )
            self.conn.request("GET", path)
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, None, f"{type(exc).__name__}: {exc}"
        try:
            body = json.loads(raw)
        except ValueError:
            return resp.status, None, "response body is not JSON"
        return resp.status, body, None

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def drive(port: int, paths: list[str], due: list[float]) -> list[Shot]:
    """Send ``paths`` open loop over NPROC connections: each request
    waits for its scheduled time, ``due`` seconds from the start."""
    shots = [Shot(i) for i in range(len(paths))]
    order = itertools.count()
    start = time.perf_counter() + 0.05

    def worker() -> None:
        client = Client(port)
        try:
            for i in order:
                if i >= len(paths):
                    return
                shot = shots[i]
                shot.taken = time.perf_counter()
                shot.due = start + due[i]
                if shot.taken - shot.due > UNSENT_AFTER_S:
                    shot.unsent = True
                    continue
                wait = shot.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                shot.sent = time.perf_counter()
                shot.status, shot.body, shot.error = client.get(paths[i])
                shot.done = time.perf_counter()
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(NPROC)]
    # A sender waking for its due time must not wait out the other
    # thread's full interpreter time slice (5 ms by default).
    switch = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        sys.setswitchinterval(switch)
    return shots


def _read_response(reader) -> tuple[int, bytes]:
    """One HTTP/1.1 response with a ``Content-Length``: (status, body)."""
    status = int(reader.readline().split()[1])
    length = 0
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    return status, reader.read(length)


def pipeline(port: int, paths: list[str]) -> tuple[list[Shot], float]:
    """Send ``paths`` pipelined on one fresh keep-alive connection;
    returns shots and wall.

    All requests are written at once and the answers read in order, so
    the server parses, handles and answers them back to back without
    waiting on the client.  The wall runs from the write (the connection
    is open by then) to the last byte read.
    """
    shots = [Shot(i) for i in range(len(paths))]
    raw = [b""] * len(paths)
    request = b"".join(f"GET {p} HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".encode() for p in paths)
    start = time.perf_counter()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with sock.makefile("rb") as reader:
                start = time.perf_counter()
                sock.sendall(request)
                for shot in shots:
                    shot.status, raw[shot.index] = _read_response(reader)
                    shot.done = time.perf_counter()
    except (OSError, ValueError, IndexError) as exc:
        for shot in shots:
            if not shot.done:
                shot.error = f"{type(exc).__name__}: {exc}"
    for shot in shots:
        shot.due = shot.sent = start
        if shot.done:
            try:
                shot.body = json.loads(raw[shot.index])
            except ValueError:
                shot.error = "response body is not JSON"
    return shots, max(s.done for s in shots) - start


class Mix:
    """The seeded request stream: warm keys plus a cold tail."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.warm = [(f, s) for f in WARM_FAMILIES for s in WARM_SEEDS]
        self.cold_seen: set[int] = set()
        self.cold: dict[str, tuple[str, int]] = {}

    def draw(self, count: int, cold: bool = True) -> list[str]:
        """``count`` request paths; with ``cold``, every ``COLD_EVERY``-th
        is cold."""
        offset = self.rng.randrange(COLD_EVERY)
        paths = []
        for i in range(count):
            if cold and (i + offset) % COLD_EVERY == 0:
                seed = self.rng.randrange(1000, 2**31 - 1)
                while seed in self.cold_seen:
                    seed = self.rng.randrange(1000, 2**31 - 1)
                self.cold_seen.add(seed)
                path = _path(COLD_FAMILY, seed, COLD_SIZE)
                self.cold[path] = (COLD_FAMILY, seed, COLD_SIZE)
            else:
                path = _path(*self.rng.choice(self.warm))
            paths.append(path)
        return paths

    def arrivals(self, rate: float, count: int) -> list[float]:
        """``count`` Poisson arrival offsets (seconds) at ``rate``."""
        t, times = 0.0, []
        for _ in range(count):
            t += self.rng.expovariate(rate)
            times.append(t)
        return times


def _check_shots(out: Outcome, shots: list[Shot], paths: list[str], expected: dict,
                 cold_hits: list[tuple[str, dict]]) -> None:
    """Every request must be a 2xx JSON envelope with the right value."""
    for shot in shots:
        path = paths[shot.index]
        if shot.unsent:
            out.check(False, f"arrival {shot.index} was never sent (generator behind)")
            continue
        body = shot.body
        envelope = (
            200 <= shot.status < 300 and isinstance(body, dict)
            and isinstance(body.get("result"), dict) and isinstance(body.get("meta"), dict)
        )
        if not out.check(envelope, f"{path}: status {shot.status}, error {shot.error}, "
                                   f"body {str(body)[:200]}"):
            continue
        if path in expected:
            out.check(body["result"] == expected[path], f"{path}: wrong result")
        else:
            cold_hits.append((path, body["result"]))


def _lat_ms(shots: list[Shot], q: float) -> float:
    return 1e3 * percentile([s.latency for s in shots if not s.unsent and s.done], q)


# -- the in-process handle() probe (traced runs) --------------------------------


def _handle_probe(out: Outcome, ctx: Context) -> None:
    """Time ``QueryService.handle`` in this process: warm hits and cold
    computes, alternating untraced and traced passes."""
    counter = itertools.count()
    warm_query = {"family": "mesh_2", "size": str(SIZE), "seed": "0"}

    def one_pass(clock):
        k = next(counter)
        service = QueryService(store=ResultStore(ctx.work / f"probe-store-{k}"))
        service.handle("GET", "/v1/bandwidth", warm_query)
        warm, cold = [], []
        for _ in range(300):
            t0 = time.perf_counter()
            status, _ = service.handle("GET", "/v1/bandwidth", warm_query)
            warm.append(time.perf_counter() - t0)
        for j in range(8):
            # The same seeds every pass: each pass has a fresh service
            # and store, so they are cold, and the work counts repeat.
            query = {"family": COLD_FAMILY, "size": str(COLD_SIZE), "seed": str(10**6 + j)}
            t0 = time.perf_counter()
            status, _ = service.handle("GET", "/v1/bandwidth", query)
            cold.append(time.perf_counter() - t0)
            out.check(status == 200, f"in-process cold handle() answered {status}")
        return Pass(sum(warm) + sum(cold), warm, cold)

    plain, traced = _passes(one_pass, ctx)
    clock_metrics(out, traced)
    out.put("service.handle_warm_us", 1e6 * median([s for p in plain for s in p.light]), "us")
    out.put("service.handle_cold_ms", 1e3 * median([s for p in plain for s in p.heavy]), "ms")
    untraced = median([p.total for p in plain])
    out.put("trace_overhead_frac",
            (median([p.total for p, _ in traced]) - untraced) / untraced, "frac")


# -- the workload ----------------------------------------------------------------


def serve_mixed(out: Outcome, ctx: Context) -> None:
    seconds = ctx.seconds
    server = None
    try:
        server = spawn_server(ctx.work / "store", ctx.work / "server.log")
        mix = Mix(ctx.seed)
        expected = {_path(f, s): _expected(f, s) for f, s in mix.warm}
        # Prime the warm keys; these answers are checked too.
        prime = list(expected)
        shots, _ = pipeline(server.port, prime)
        _check_shots(out, shots, prime, expected, [])

        cold_hits: list[tuple[str, dict]] = []
        # Every figure samples the whole run, not one stretch of it.
        phases: dict[str, list[list[Shot]]] = {"light": [], "heavy": []}
        walls = []
        segments = 1 if ctx.smoke else SEGMENTS
        closed = 60 if ctx.smoke else CLOSED_REQUESTS
        for _ in range(segments):
            for name, rate, share in (("light", LIGHT_RPS, LIGHT_SHARE),
                                      ("heavy", HEAVY_RPS, HEAVY_SHARE)):
                count = max(COLD_EVERY, round(rate * share * seconds / segments))
                due = mix.arrivals(rate, count)
                paths = mix.draw(count)
                shots = drive(server.port, paths, due)
                _check_shots(out, shots, paths, expected, cold_hits)
                phases[name].append(shots)
                ctx.setup.poll()
            if not ctx.trace:
                paths = mix.draw(closed, cold=False)
                shots, wall = pipeline(server.port, paths)
                _check_shots(out, shots, paths, expected, cold_hits)
                walls.append(wall)
                ctx.setup.poll()
        client = Client(server.port)
        status, metrics, error = client.get("/metrics")
        client.close()
        out.check(status == 200 and metrics is not None, f"/metrics: {status} {error}")
        connects = []
        for _ in range(CONNECT_PROBES if ctx.trace else 0):
            t0 = time.perf_counter()
            socket.create_connection(("127.0.0.1", server.port), timeout=5).close()
            connects.append(time.perf_counter() - t0)
        server_peak = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()

    for path, result in cold_hits[:COLD_SAMPLES]:
        out.check(result == _expected(*mix.cold[path]),
                  f"{path}: cold result differs from measure_bandwidth_job")

    shots = [s for segs in phases.values() for seg in segs for s in seg]
    sent = [s for s in shots if not s.unsent]
    lag_p99 = 1e3 * percentile([s.lag for s in sent], 99)
    out.check(lag_p99 <= LAG_BOUND_MS,
              f"run invalid: generator send lag p99 {lag_p99:.2f} ms > {LAG_BOUND_MS} ms")
    out.notes["requests"] = {name: sum(map(len, segs)) for name, segs in phases.items()}
    out.notes["closed_walls_s"] = [round(w, 4) for w in walls]

    if not ctx.trace:
        out.put("wall_s", median(walls), "s")
        out.put("peak_rss_mb", server_peak, "MB")
        return

    # Client latencies go with the traced run's per-layer metrics: their
    # spread from run to run is too wide to gate a change on.
    for prefix, name in (("", "light"), ("heavy_", "heavy")):
        pooled = [s for seg in phases[name] for s in seg]
        for q in (50, 99):
            out.put(f"{prefix}p{q}_ms", _lat_ms(pooled, q), "ms")
    app = metrics["endpoints"]["GET /v1/bandwidth"]["latency_ms"]
    cache = metrics["cache"]
    transport = [
        (s.done - s.sent) - s.body["meta"]["seconds"]
        for s in sent if isinstance(s.body, dict) and isinstance(s.body.get("meta"), dict)
    ]
    out.put("service.app_p50_ms", app["p50"], "ms")
    out.put("service.app_p99_ms", app["p99"], "ms")
    out.put("service.transport_p50_ms", 1e3 * median(transport), "ms")
    out.put("service.connect_ms", 1e3 * median(connects), "ms")
    out.put("service.memory_hit_ratio", cache["memory"]["hit_rate"], "frac")
    out.put("service.store_puts", cache["store"]["puts"], "count")
    out.put("service.coalesced", cache["coalesced"], "count")
    out.put("client.send_lag_p99_ms", lag_p99, "ms")
    out.put("client.unsent", len(shots) - len(sent), "count")
    _handle_probe(out, replace(ctx, seconds=0.5 if ctx.smoke else 2.0))


WORKLOADS = {"serve_mixed": serve_mixed}
