"""``video-paper-480``: decoded Table II trailers through the paper cascade.

The paper's offline use.  Ten synthetic trailers at 480x270 are encoded
once, ahead of timing, to the mock H.264 bitstream.  The timed window
decodes them (``repro.video.decoded_stream``), detects through the
``DetectionEngine`` streaming API (``process_frames``, the form of
``run`` that does not hold every result) with the paper cascade and
engine defaults, and groups each frame's detections.

The ten decoder sessions are interleaved round-robin, so every stretch
of the timed window sees all ten trailers in equal measure; the seed
only permutes their order within a round.  Every frame is checked
against a digest of raw detections, grouped detections and simulated
makespan committed in ``expected.json``.

The timed window runs as ``SEGMENTS`` segments; the engine drains at the
end of each, and a host-speed sample (see ``hostspeed.py``) is taken
before the first and after every segment, so each segment's timings are
scaled by the host speed measured around it.
"""

from __future__ import annotations

import hashlib
import json
import time

import numpy as np

from common import (
    CHILD,
    HERE,
    TRACE_BLOCKS,
    BenchError,
    latency_metrics,
    median,
    metric,
    peak_rss_mb,
    ratio,
    reset_peak_rss,
    timed_setup,
    traced_block,
    tracing_overhead,
)
from hostspeed import HostSpeed

WIDTH, HEIGHT = 480, 270
FRAMES_PER_TRAILER = 8
#: trailer timeline step between pool frames (crosses scene cuts)
STEP = 6
GROUP_THRESHOLD = 0.5
SETUP_PROBES = 3
#: the timed window runs as this many segments, each drained and bracketed
#: by host-speed samples; the rate is the median segment's
SEGMENTS = 5


def warmup_frame() -> np.ndarray:
    """The deterministic frame every set-up pushes through the engine once."""
    ramp = np.linspace(0.0, 255.0, WIDTH, dtype=np.float32)
    return np.tile(ramp, (HEIGHT, 1))


def build_engine():
    """Zoo load, pipeline, engine and one warm-up frame: the set-up."""
    from repro.detect import DetectionEngine, FaceDetectionPipeline
    from repro.zoo import paper_cascade

    pipeline = FaceDetectionPipeline(paper_cascade())
    engine = DetectionEngine(pipeline)
    for _ in engine.process_frames([warmup_frame()]):
        pass
    return engine


def encode_pool() -> list:
    """One mock-H.264 bitstream per Table II trailer (untimed input)."""
    from repro.video import TRAILERS, encode_video, trailer_frames

    return [
        encode_video(
            [f for f, _ in trailer_frames(spec, WIDTH, HEIGHT, FRAMES_PER_TRAILER, step=STEP)]
        )
        for spec in TRAILERS
    ]


def frame_digest(raw, grouped, makespan_s: float) -> str:
    h = hashlib.sha256()
    for d in raw:
        h.update(f"r{d.x!r},{d.y!r},{d.size!r},{d.score!r};".encode())
    for d in grouped:
        h.update(f"g{d.x!r},{d.y!r},{d.size!r},{d.score!r};".encode())
    h.update(f"m{makespan_s!r}".encode())
    return h.hexdigest()[:24]


def load_expected() -> dict:
    data = json.loads((HERE / "expected.json").read_text())["video-paper-480"]
    if (data["width"], data["height"], data["frames_per_trailer"], data["step"]) != (
        WIDTH,
        HEIGHT,
        FRAMES_PER_TRAILER,
        STEP,
    ):
        raise BenchError("expected.json was made for another video pool")
    return data["digests"]


class _Source:
    """Round-robin over the trailers' decoder sessions, one segment at a time."""

    def __init__(self, streams: list, order: list[int]) -> None:
        self._packets = self._round_robin(streams, order)
        self.keys: list[str] = []
        self.yielded_at: list[float] = []

    @staticmethod
    def _round_robin(streams: list, order: list[int]):
        from repro.video import decoded_stream

        while True:
            sessions = [(t, decoded_stream(streams[t])) for t in order]
            for _ in range(FRAMES_PER_TRAILER):
                for trailer, session in sessions:
                    packet = next(session)
                    yield f"{trailer}:{packet.index}", packet.luma

    def until(self, deadline: float):
        """Decoded frames until ``deadline``; the next call resumes the stream."""
        while time.perf_counter() < deadline:
            key, luma = next(self._packets)
            self.keys.append(key)
            self.yielded_at.append(time.perf_counter())
            yield luma


def _process(engine, source: _Source, seconds: float, on_block=None):
    """Drive the engine for ``seconds`` and drain it; returns per-frame records."""
    from repro.detect import grouping

    records = []
    emitted_at = []
    start = time.perf_counter()
    block_len = seconds / TRACE_BLOCKS
    for result in engine.process_frames(source.until(start + seconds)):
        grouped = grouping.group_detections(result.raw_detections, GROUP_THRESHOLD)
        now = time.perf_counter()
        emitted_at.append(now)
        records.append((result.raw_detections, grouped, result.schedule.makespan_s))
        if on_block is not None:
            on_block(min(TRACE_BLOCKS - 1, int((now - start) / block_len)))
    return start, records, emitted_at


def run(seed: int, seconds: float, traced: bool) -> dict:
    from layers import LayerTrace, install_detection

    speed = HostSpeed()
    setups = []
    if not traced:
        speed.sample()
        began = time.perf_counter()
        setups = [timed_setup([str(CHILD), "probe-video"]) for _ in range(SETUP_PROBES)]
        ended = time.perf_counter()
        speed.sample()
        setup_factor = speed.around(began, ended)

    trace = LayerTrace(enabled=False)
    if traced:
        install_detection(trace)
    engine = build_engine()
    records, emitted_at, segments = [], [], []
    try:
        expected = load_expected()
        streams = encode_pool()
        order = [int(t) for t in np.random.default_rng(seed).permutation(len(streams))]
        source = _Source(streams, order)
        reset_peak_rss()

        if traced:
            trace.reset(keep_prefix="zoo.")  # drop the warm-up frame

            def on_block(block: int) -> None:
                trace.enabled = traced_block(block)

            start, records, emitted_at = _process(engine, source, seconds, on_block)
            trace.enabled = False
        else:
            speed.sample()
            for _ in range(SEGMENTS):
                start, done, emitted = _process(engine, source, seconds / SEGMENTS)
                speed.sample()
                segments.append((start, len(records), len(done)))
                records += done
                emitted_at += emitted
        rss = peak_rss_mb()
    finally:
        engine.close()
        trace.restore()

    # -- correctness and accounting ------------------------------------------
    n = len(records)
    keys = source.keys
    mismatches = [
        k for k, (raw, grouped, makespan) in zip(keys, records)
        if expected.get(k) != frame_digest(raw, grouped, makespan)
    ]
    accounting_ok = n == len(keys) and n >= 1
    correct = accounting_ok and not mismatches
    lines = [
        f"video-paper-480: {n} frames in, {n} out, in order: {accounting_ok}; "
        f"digest mismatches: {len(mismatches)} {mismatches[:5]}",
        f"engine: backend={engine.backend.name} workers={engine.workers} "
        f"sharding={engine.sharding.value}",
    ]

    if not traced:
        # per segment: frames per second and each frame's latency from
        # decoded to result, both scaled to reference host speed
        rates, latencies, raw_rates = [], [], []
        for start, first, count in segments:
            if not count:
                continue
            end = emitted_at[first + count - 1]
            factor = speed.around(start, end)
            raw_rates.append(count / (end - start))
            rates.append(raw_rates[-1] * factor)
            latencies += [
                (emitted_at[i] - source.yielded_at[i]) * 1e3 / factor
                for i in range(first, first + count)
            ]
        metrics = {
            "setup_s": metric(median(setups) / setup_factor, "s"),
            "throughput_per_s": metric(median(rates), "1/s"),
            **latency_metrics(latencies),
            "peak_rss_mb": metric(rss, "MB"),
        }
        lines += [
            f"setup samples (s, as measured): {[round(s, 4) for s in setups]}; "
            f"latency samples: {n}",
            f"segment rates (frames/s, as measured): {[round(r, 3) for r in raw_rates]}",
            f"host slow-down factors: {[round(f, 3) for f in speed.factors()]}",
        ]
    else:
        sim_ms = 1e3 * float(np.mean([makespan for _, _, makespan in records]))
        metrics = detection_layers(trace.totals(), sim_ms=sim_ms)
        metrics["trace.overhead_ratio"] = metric(
            tracing_overhead([(emitted_at, start, seconds)]), "ratio"
        )
    return {
        "correct": correct,
        "attempted": len(keys),
        "failed": len(keys) - n,
        "metrics": metrics,
        "lines": lines,
        "engine": {
            "backend": engine.backend.name,
            "workers": engine.workers,
            "sharding": engine.sharding.value,
        },
    }


def detection_layers(totals: dict, *, sim_ms: float) -> dict:
    """Per-frame detection-layer metrics from :meth:`LayerTrace.totals`."""
    busy, own, calls, counts = (totals[k] for k in ("busy", "self_busy", "calls", "counts"))
    frames = calls.get("detect.frame", 0)
    windows = counts.get("backend.windows", 0)

    def per_frame(table: dict, key: str, scale: float = 1.0) -> float:
        return scale * ratio(table.get(key, 0), frames)

    def per_call_ms(key: str) -> float:
        return 1e3 * ratio(busy.get(key, 0.0), calls.get(key, 0))

    def per_window(key: str) -> float:
        return ratio(counts.get(key, 0), windows)

    frame_busy = busy.get("detect.frame", 0.0)
    frame_self = own.get("detect.frame", 0.0)
    schedule_s = busy.get("gpusim.schedule", 0.0)
    values = {
        "video.decode_ms": (per_call_ms("video.decode"), "ms"),
        "image.pyramid_ms": (per_frame(busy, "image.pyramid", 1e3), "ms"),
        "image.pyramid_calls": (per_frame(calls, "image.pyramid"), "count"),
        "backend.integral_ms": (per_frame(busy, "backend.integral", 1e3), "ms"),
        "backend.integral_calls": (per_frame(calls, "backend.integral"), "count"),
        "backend.cascade_ms": (per_frame(busy, "backend.cascade", 1e3), "ms"),
        "backend.cascade_calls": (per_frame(calls, "backend.cascade"), "count"),
        "backend.windows": (per_frame(counts, "backend.windows"), "count"),
        "backend.mean_stages": (per_window("backend.stages"), "count"),
        "backend.stage1_reject_ratio": (per_window("backend.stage1_rejects"), "ratio"),
        "backend.accept_ratio": (per_window("backend.accepted"), "ratio"),
        "gpusim.schedule_ms": (per_frame(busy, "gpusim.schedule", 1e3), "ms"),
        "gpusim.launches": (per_frame(counts, "gpusim.launches"), "count"),
        "gpusim.blocks": (per_frame(counts, "gpusim.blocks"), "count"),
        "gpusim.us_per_block": (1e6 * ratio(schedule_s, counts.get("gpusim.blocks", 0)), "us"),
        "gpusim.sim_ms_per_frame": (sim_ms, "ms"),
        "detect.frame_ms": (per_frame(busy, "detect.frame", 1e3), "ms"),
        "detect.launch_ms": (per_frame(busy, "detect.launch", 1e3), "ms"),
        "detect.kernel_ms": (per_frame(own, "detect.kernel", 1e3), "ms"),
        "detect.collect_ms": (per_frame(busy, "detect.collect", 1e3), "ms"),
        "detect.raw_detections": (per_frame(counts, "detect.raw_detections"), "count"),
        "detect.group_ms": (per_call_ms("detect.group"), "ms"),
        "detect.self_ms": (per_frame(own, "detect.frame", 1e3), "ms"),
        "zoo.load_ms": (per_call_ms("zoo.load"), "ms"),
        "trace.coverage_ratio": (ratio(frame_busy - frame_self, frame_busy), "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def probe() -> None:
    """Set-up probe: build, warm, say ``ready`` (the parent times it)."""
    engine = build_engine()
    print("ready", flush=True)
    engine.close()
