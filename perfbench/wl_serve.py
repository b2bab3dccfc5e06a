"""``serve-quick-160``: ``repro serve`` with its defaults under HTTP load.

The server runs as a child process (``python3 -m repro serve --port 0``,
quick cascade, one engine worker, micro-batches of up to 4) with its
working directory and flight dump in a scratch directory.  A
single-process asyncio client holds at most ``nproc`` keep-alive
connections and posts 160x120 synthetic PGM frames:

* an open loop at a fixed offered rate (independent users), each
  request timed from its scheduled send, so a stall also counts against
  the requests queued behind it;
* a closed loop with ``nproc`` connections (callers that wait), whose
  completions per second are the capacity.

The window alternates the two loops ``ROUNDS`` times, so each samples the
whole run.  A host-speed sample (see ``hostspeed.py``) is taken while the
server is idle before and after every loop; each loop's timings are
scaled by the host speed measured around it, and the open loop's offered
rate is fixed at reference host speed, so it loads the server to the
same share of its capacity whatever the host's speed.

Every 200 response's detections, raw count and simulated detection
time are compared with a direct ``FaceDetectionPipeline`` run on the
same payload, and each phase must satisfy sent = 200 + 429 + 5xx +
connection errors exactly.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import (
    CHILD,
    TRACE_BLOCKS,
    BenchError,
    block_gaps,
    latency_metrics,
    median,
    metric,
    peak_rss_mb,
    ratio,
    read_line,
    remove_tree,
    scratch_dir,
    start_child,
    stop_child,
    traced_block,
    tracing_overhead,
)
from hostspeed import HostSpeed

WIDTH, HEIGHT = 160, 120
#: distinct payloads (each is verified once per run against the pipeline)
POOL = 32
#: offered rate of the open loop at reference host speed: about half the
#: closed-loop capacity measured when this workload was defined
OPEN_RATE_RPS = 18.0
SETUP_STARTS = 3
#: the window alternates open and closed loops this many times, so each
#: phase samples the whole run rather than one half of it
ROUNDS = 3
GROUP_THRESHOLD = 0.5
CONNECTIONS = max(1, len(os.sched_getaffinity(0)))


def make_payloads() -> list[bytes]:
    """``POOL`` binary PGM bodies of synthetic two-face scenes.

    The pool is the same for every seed and the seed orders it, so each
    run offers the same mix of cheap and expensive frames and the spread
    between runs is the system's, not the inputs'.
    """
    from repro.video.synthesis import render_scene

    bodies = []
    for i in range(POOL):
        rng = np.random.default_rng([160120, i])
        frame, _ = render_scene(WIDTH, HEIGHT, faces=2, rng=rng)
        pixels = np.clip(np.rint(frame), 0, 255).astype(np.uint8)
        bodies.append(b"P5\n%d %d\n255\n" % (WIDTH, HEIGHT) + pixels.tobytes())
    return bodies


# -- the server child ---------------------------------------------------------


@dataclass
class Server:
    proc: object
    port: int
    setup_s: float
    workdir: Path
    log: object
    totals_path: Path | None = None

    def send_signal(self, sig: int) -> None:
        self.proc.send_signal(sig)

    def stop(self) -> int:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        code = stop_child(self.proc, 30.0)
        self.log.close()
        return code


def start_server(traced: bool) -> Server:
    """Start ``repro serve`` and wait until ``/readyz`` answers 200."""
    workdir = scratch_dir("serve-")
    serve_args = ["serve", "--port", "0", "--flight-dump", str(workdir / "FLIGHT_serve.json")]
    totals = workdir / "totals.json" if traced else None
    if traced:
        args = [str(CHILD), "serve-traced", str(totals), *serve_args]
    else:
        args = ["-m", "repro", *serve_args]
    log = open(workdir / "serve.log", "w")
    start = time.perf_counter()
    proc = start_child(args, cwd=workdir, stderr=log)
    server = Server(proc, 0, 0.0, workdir, log, totals)
    try:
        line = read_line(proc, 120.0)
        if "listening on http://" not in line:
            raise BenchError(f"unexpected server banner {line!r}")
        server.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        while asyncio.run(_get(server.port, "/readyz"))[0] != 200:
            time.sleep(0.005)
        server.setup_s = time.perf_counter() - start
    except BaseException:
        server.stop()
        remove_tree(workdir)
        raise
    return server


# -- the client ---------------------------------------------------------------


class _Conn:
    """One keep-alive HTTP/1.1 client connection."""

    def __init__(self, port: int) -> None:
        self._port = port
        self._reader = None
        self._writer = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self._port)
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: image/x-portable-graymap\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        self._writer.write(head.encode("ascii") + body)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length, close = 0, False
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection":
                close = value.strip().lower() == "close"
        data = await self._reader.readexactly(length)
        if close:
            await self.close()
        return status, data

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except OSError:
                pass
        self._reader = self._writer = None


async def _get(port: int, path: str) -> tuple[int, bytes]:
    conn = _Conn(port)
    try:
        return await conn.request("GET", path)
    except OSError:
        return 0, b""
    finally:
        await conn.close()


@dataclass
class Sample:
    payload: int
    status: int | None  # None: connection error
    body: bytes
    due: float
    sent: float
    done: float


@dataclass
class Phase:
    name: str
    samples: list[Sample] = field(default_factory=list)

    def tally(self) -> dict:
        statuses = [s.status for s in self.samples]
        return {
            "sent": len(statuses),
            "200": statuses.count(200),
            "429": statuses.count(429),
            "5xx": sum(1 for s in statuses if s is not None and s >= 500),
            "conn_err": statuses.count(None),
        }

    def balanced(self) -> bool:
        t = self.tally()
        return t["sent"] == t["200"] + t["429"] + t["5xx"] + t["conn_err"]


async def _send(conn: _Conn, body: bytes) -> tuple[int | None, bytes]:
    try:
        return await conn.request("POST", "/v1/detect", body)
    except (OSError, asyncio.IncompleteReadError, ValueError, IndexError):
        await conn.close()  # reconnects on the next request
        return None, b""


async def open_loop(
    port: int, bodies: list[bytes], order: list[int], first: int, n: int, rate: float
) -> tuple[Phase, float]:
    """Requests ``first .. first+n-1`` at ``rate`` per second, timed from their due times."""
    phase = Phase("open")
    idle: asyncio.Queue = asyncio.Queue()
    conns = [_Conn(port) for _ in range(CONNECTIONS)]
    for c in conns:
        idle.put_nowait(c)
    t0 = time.perf_counter() + 0.05

    async def one(i: int) -> None:
        due = t0 + i / rate
        await asyncio.sleep(max(0.0, due - time.perf_counter()))
        conn = await idle.get()
        payload = order[(first + i) % len(order)]
        sent = time.perf_counter()
        status, data = await _send(conn, bodies[payload])
        phase.samples.append(Sample(payload, status, data, due, sent, time.perf_counter()))
        idle.put_nowait(conn)

    await asyncio.gather(*(one(i) for i in range(n)))
    for c in conns:
        await c.close()
    return phase, t0


async def closed_loop(
    port: int, bodies: list[bytes], order: list[int], counter, seconds: float, on_block=None
) -> tuple[Phase, float]:
    """``CONNECTIONS`` clients, each sending as soon as its reply is in.

    ``counter`` yields the request numbers, continuing across calls.
    """
    phase = Phase("closed")
    start = time.perf_counter()
    deadline = start + seconds

    async def client() -> None:
        conn = _Conn(port)
        while time.perf_counter() < deadline:
            payload = order[next(counter) % len(order)]
            sent = time.perf_counter()
            status, data = await _send(conn, bodies[payload])
            phase.samples.append(Sample(payload, status, data, sent, sent, time.perf_counter()))
        await conn.close()

    async def blocks() -> None:
        for b in range(1, TRACE_BLOCKS):
            await asyncio.sleep(max(0.0, start + b * seconds / TRACE_BLOCKS - time.perf_counter()))
            on_block(b)

    tasks = [client() for _ in range(CONNECTIONS)]
    if on_block is not None:
        tasks.append(blocks())
    await asyncio.gather(*tasks)
    return phase, start


# -- the workload ---------------------------------------------------------------


def expected_results(bodies: list[bytes], used: set[int]) -> dict[int, dict]:
    """What a direct pipeline call returns for each payload that was sent."""
    from repro.detect import FaceDetectionPipeline, grouping
    from repro.video.pnm import parse_pnm
    from repro.zoo import quick_cascade

    pipeline = FaceDetectionPipeline(quick_cascade())
    out = {}
    for i in sorted(used):
        result = pipeline.process_frame(parse_pnm(bodies[i]))
        grouped = grouping.group_detections(result.raw_detections, GROUP_THRESHOLD)
        out[i] = {
            "detections": [
                {"x": d.x, "y": d.y, "size": d.size, "score": d.score} for d in grouped
            ],
            "raw_count": len(result.raw_detections),
            "simulated_detection_s": result.schedule.makespan_s,
        }
    return out


def _wrong(sample: Sample, expected: dict[int, dict]) -> bool:
    got = json.loads(sample.body)
    want = expected[sample.payload]
    return any(got.get(k) != v for k, v in want.items())


def run(seed: int, seconds: float, traced: bool) -> dict:
    bodies = make_payloads()
    order = [int(i) for i in np.random.default_rng(seed).permutation(POOL)]
    speed = HostSpeed()

    setups: list[float] = []
    speed.sample()
    began = time.perf_counter()
    if not traced:
        for _ in range(SETUP_STARTS - 1):
            probe = start_server(False)
            setups.append(probe.setup_s)
            probe.stop()
            remove_tree(probe.workdir)
    server = start_server(traced)
    setups.append(server.setup_s)
    ended = time.perf_counter()
    overhead = None
    tracing = [False]

    def set_traced(on: bool) -> None:
        # SIGUSR1 toggles the launcher's tracing; send it only on a change
        if on != tracing[0]:
            server.send_signal(signal.SIGUSR1)
            tracing[0] = on

    opened, closed = Phase("open"), Phase("closed")
    latencies: list[float] = []  # open-loop latencies (ms, reference speed)
    capacities: list[float] = []  # closed-loop OK req/s per block (reference speed)
    windows = []  # (done, start, seconds) of each closed loop
    per_round = seconds / 2 / ROUNDS
    counter = itertools.count()
    try:
        for _ in range(ROUNDS):
            if traced:
                set_traced(True)  # the open loop is traced throughout
            # the offered rate is fixed at reference speed: slower here
            rate = OPEN_RATE_RPS / speed.sample()
            n = max(1, round(rate * per_round))
            phase, start = asyncio.run(
                open_loop(server.port, bodies, order, len(opened.samples), n, rate)
            )
            opened.samples += phase.samples
            ok = [s for s in phase.samples if s.status == 200]
            end = time.perf_counter()
            speed.sample()
            factor = speed.around(start, end)
            latencies += [(s.done - s.due) * 1e3 / factor for s in ok]

            on_block = None
            if traced:
                set_traced(traced_block(0))

                def on_block(block: int) -> None:
                    set_traced(traced_block(block))

            phase, start = asyncio.run(
                closed_loop(server.port, bodies, order, counter, per_round, on_block)
            )
            closed.samples += phase.samples
            done = [s.done for s in phase.samples if s.status == 200]
            windows.append((done, start, per_round))
            end = time.perf_counter()
            speed.sample()
            factor = speed.around(start, end)
            capacities += [
                factor * len(g) / sum(g) for g in block_gaps(done, start, per_round, 2) if g
            ]
        if traced:
            overhead = tracing_overhead(windows)
        status, stats_body = asyncio.run(_get(server.port, "/stats"))
        if status != 200:
            raise BenchError(f"/stats answered {status}")
        stats = json.loads(stats_body)
        rss = peak_rss_mb(server.proc.pid)
    finally:
        code = server.stop()
    try:
        totals = json.loads(server.totals_path.read_text()) if traced else None
    finally:
        remove_tree(server.workdir)
    setup_factor = speed.around(began, ended)

    # -- correctness and accounting ------------------------------------------
    phases = (opened, closed)
    ok = [s for p in phases for s in p.samples if s.status == 200]
    expected = expected_results(bodies, {s.payload for s in ok})
    wrong = [s for s in ok if _wrong(s, expected)]
    balanced = all(p.balanced() for p in phases)
    attempted = sum(len(p.samples) for p in phases)
    shed = stats["serve"]["admission"]["shed"]
    lines = [
        f"{p.name} loop: {p.tally()}, mean batch size {_mean_batch(p):.3f}" for p in phases
    ]
    lines += [
        f"accounting identity holds: {balanced}; responses checked: {len(ok)}, "
        f"wrong: {len(wrong)}; server exit code: {code}",
        f"shed by reason: {shed}; engine: {stats['serve']['engine']}",
    ]
    if traced and totals["missing"]:
        lines.append(f"entry points not found, so not traced: {totals['missing']}")
    correct = balanced and not wrong and code == 0

    open_ok = [s for s in opened.samples if s.status == 200]
    if not traced:
        lines += [
            f"setup samples (s, as measured): {[round(s, 4) for s in setups]}; "
            f"open-loop latency samples: {len(open_ok)} at {OPEN_RATE_RPS} req/s "
            "at reference speed",
            f"closed-loop capacity per block (req/s, reference speed): "
            f"{[round(c, 3) for c in capacities]}",
            f"host slow-down factors: {[round(f, 3) for f in speed.factors()]}",
        ]
        metrics = {
            "setup_s": metric(median(setups) / setup_factor, "s"),
            "throughput_per_s": metric(median(capacities), "1/s"),
            **latency_metrics(latencies),
            "peak_rss_mb": metric(rss, "MB"),
        }
    else:
        from wl_video import detection_layers

        sims = [json.loads(s.body)["simulated_detection_s"] for s in ok]
        metrics = detection_layers(totals, sim_ms=1e3 * float(np.mean(sims)))
        metrics.update(serve_layers(open_ok, shed))
        metrics["trace.overhead_ratio"] = metric(overhead, "ratio")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": metrics,
        "lines": lines,
        "engine": {
            "backend": stats["backend"]["active"],
            "workers": stats["serve"]["engine"]["workers"],
            "sharding": stats["serve"]["engine"]["sharding"],
        },
    }


def _mean_batch(phase: Phase) -> float:
    sizes = [json.loads(s.body)["timing"]["batch_size"] for s in phase.samples if s.status == 200]
    return ratio(sum(sizes), len(sizes))


def serve_layers(samples: list[Sample], shed: dict) -> dict:
    """Mean per-request legs from each response's ``timing`` block.

    ``queue_wait`` runs from admission to dispatch and so contains
    ``batch_form``; the disjoint legs are queue wait, infer and serialize,
    and ``serve.http_ms`` is the client's latency from its send minus them.
    """
    legs = ("queue_wait_s", "batch_form_s", "infer_s", "serialize_s")
    sums = dict.fromkeys(legs, 0.0)
    batch = http = lag = 0.0
    for s in samples:
        timing = json.loads(s.body)["timing"]
        for leg in legs:
            sums[leg] += timing[leg] or 0.0
        inside = sum(timing[leg] or 0.0 for leg in ("queue_wait_s", "infer_s", "serialize_s"))
        batch += timing["batch_size"] or 0
        http += (s.done - s.sent) - inside
        lag += s.sent - s.due
    n = len(samples)
    return {
        "serve.queue_wait_ms": metric(1e3 * ratio(sums["queue_wait_s"], n), "ms"),
        "serve.batch_form_ms": metric(1e3 * ratio(sums["batch_form_s"], n), "ms"),
        "serve.infer_ms": metric(1e3 * ratio(sums["infer_s"], n), "ms"),
        "serve.serialize_ms": metric(1e3 * ratio(sums["serialize_s"], n), "ms"),
        "serve.batch_size": metric(ratio(batch, n), "count"),
        "serve.http_ms": metric(1e3 * ratio(http, n), "ms"),
        "serve.shed": metric(sum(shed.values()), "count"),
        "serve.generator_lag_ms": metric(1e3 * ratio(lag, n), "ms"),
    }
