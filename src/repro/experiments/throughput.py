"""Wall-clock throughput: serial ``process_frame`` vs the sharded engine.

The paper's headline number is end-to-end frames/second (Table II sustains
70 fps on 1080p trailers).  The simulator reports *simulated* GPU seconds;
this harness measures the complementary quantity — real host seconds per
frame — across three execution paths over the same frames:

* ``serial``     — a naive ``process_frame`` loop (the baseline);
* ``threads``    — the :class:`~repro.detect.engine.DetectionEngine`
  thread pool (GIL-bound; overlaps only the NumPy regions that release
  the GIL);
* ``processes``  — the process-sharded engine: persistent worker
  processes, shared-memory frame transport, true multi-core scaling.

Methodology (single shared-core boxes are noisy, so this is deliberate):

* the frame set is materialised once and shared by every path;
* every path is warmed before timing — the serial pass doubles as the
  byte-identity reference, the engines run one full pass each so worker
  state (workspaces, pyramid plans, spawned worker processes) is built
  outside the timed region, exactly as it would be mid-video;
* the three paths alternate within each round (serial, threads,
  processes) so drift hits all of them equally; ``warmup`` initial
  rounds are recorded but excluded from scoring;
* each path scores the **median** of its timed rounds with the IQR as
  the spread estimate — medians are robust to the 2x outlier rounds
  that best-of-N silently hid, and the artifact keeps every raw round
  so regressions in *variance* are visible across PRs, not just
  regressions in the point estimate.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro import zoo
from repro.detect.engine import DetectionEngine, ShardingMode, batch_report
from repro.detect.pipeline import FaceDetectionPipeline, FrameResult, PipelineConfig
from repro.errors import ConfigurationError
from repro.gpusim.batch import BatchReport
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.obs.tracer import Tracer
from repro.utils.provenance import provenance
from repro.utils.tables import format_table
from repro.video.stream import synthetic_stream

__all__ = [
    "ModeTiming",
    "ThroughputResult",
    "run_throughput",
    "BENCH_SCHEMA_VERSION",
]

#: ``BENCH_throughput.json`` schema: 3 adds the serial/threads/processes
#: mode comparison with median + IQR scoring and warmup rounds; 4 adds
#: the compute device and probe path; 5 drops them again (both backends
#: are CPU-only, so the backend name alone identifies a series)
BENCH_SCHEMA_VERSION = 5

#: quarter-1080p: the paper's 1920x1080 trailer frames scaled by 4 per axis
#: (aspect preserved) so the suite runs in seconds on one CPU core
_DEFAULT_WIDTH = 480
_DEFAULT_HEIGHT = 270

_CASCADES = {
    "quick": zoo.quick_cascade,
    "paper": zoo.paper_cascade,
    "opencv": zoo.opencv_like_cascade,
}


@dataclass
class ModeTiming:
    """Timed rounds of one execution path, median/IQR scored."""

    rounds: list[float] = field(default_factory=list)
    warmup_rounds: list[float] = field(default_factory=list)

    @property
    def median_s(self) -> float:
        return statistics.median(self.rounds) if self.rounds else 0.0

    @property
    def iqr_s(self) -> float:
        """Interquartile range of the timed rounds (inclusive quartiles;
        0.0 with fewer than two rounds)."""
        if len(self.rounds) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.rounds, n=4, method="inclusive")
        return q3 - q1

    def fps(self, frames: int) -> float:
        median = self.median_s
        return frames / median if median > 0 else 0.0

    def to_dict(self, frames: int) -> dict:
        return {
            "rounds_s": list(self.rounds),
            "warmup_rounds_s": list(self.warmup_rounds),
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "fps": self.fps(frames),
        }


@dataclass
class ThroughputResult:
    """Outcome of one serial / threads / processes wall-clock comparison."""

    width: int
    height: int
    frames: int
    workers: int
    trials: int
    warmup: int
    cascade: str
    backend: str
    #: the primary (headline) engine mode: "threads" or "processes"
    mode: str
    serial: ModeTiming
    threads: ModeTiming
    processes: ModeTiming
    #: per-path byte-identity against the serial reference
    identity: dict[str, bool]
    report: BatchReport
    #: observability snapshot of a post-timing instrumented engine pass
    metrics: dict | None = None

    @property
    def identical(self) -> bool:
        """Every measured path produced byte-identical detections."""
        return all(self.identity.values())

    def timing(self, mode: str) -> ModeTiming:
        return {
            "serial": self.serial,
            "threads": self.threads,
            "processes": self.processes,
        }[mode]

    @property
    def serial_s(self) -> float:
        return self.serial.median_s

    @property
    def batched_s(self) -> float:
        return self.timing(self.mode).median_s

    @property
    def serial_fps(self) -> float:
        return self.serial.fps(self.frames)

    @property
    def batched_fps(self) -> float:
        return self.timing(self.mode).fps(self.frames)

    def speedup_of(self, mode: str) -> float:
        median = self.timing(mode).median_s
        return self.serial.median_s / median if median > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Primary-mode median wall-clock fps over serial median fps."""
        return self.speedup_of(self.mode)

    def to_dict(self) -> dict:
        """The ``BENCH_throughput.json`` payload."""
        return {
            "experiment": "throughput",
            "schema_version": BENCH_SCHEMA_VERSION,
            "provenance": provenance(backend=self.backend, mode=self.mode),
            "frame_width": self.width,
            "frame_height": self.height,
            "frames": self.frames,
            "workers": self.workers,
            "trials": self.trials,
            "warmup": self.warmup,
            "cascade": self.cascade,
            "backend": self.backend,
            "mode": self.mode,
            "modes": {
                "serial": self.serial.to_dict(self.frames),
                "threads": {
                    **self.threads.to_dict(self.frames),
                    "speedup": self.speedup_of("threads"),
                },
                "processes": {
                    **self.processes.to_dict(self.frames),
                    "speedup": self.speedup_of("processes"),
                },
            },
            "serial_s": self.serial_s,
            "batched_s": self.batched_s,
            "serial_fps": self.serial_fps,
            "batched_fps": self.batched_fps,
            "speedup": self.speedup,
            "identical_detections": self.identical,
            "identity": dict(self.identity),
            "batch_report": self.report.to_dict(),
            "metrics": self.metrics,
        }

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON artifact; returns the resolved path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def format_table(self) -> str:
        def row(label: str, mode: str) -> list:
            t = self.timing(mode)
            return [
                label,
                round(t.median_s, 3),
                round(t.iqr_s, 3),
                round(t.fps(self.frames), 2),
                round(self.speedup_of(mode), 2),
            ]

        rows = [
            row("serial process_frame", "serial"),
            row(f"threads engine ({self.workers} workers)", "threads"),
            row(f"processes engine ({self.workers} workers)", "processes"),
        ]
        table = format_table(
            ["path", "median s", "IQR s", "fps", "speedup"],
            rows,
            title=(
                f"Throughput — {self.frames} x {self.width}x{self.height} synthetic "
                f"frames, {self.cascade} cascade, {self.backend} backend "
                f"(median of {self.trials} rounds, {self.warmup} warmup, "
                f"{os.cpu_count() or 1} cores, primary mode: {self.mode})"
            ),
        )
        sim = self.report.simulated_fps
        return table + (
            f"\ndetections byte-identical: {self.identical} "
            f"(threads: {self.identity.get('threads')}, "
            f"processes: {self.identity.get('processes')}, "
            f"traced: {self.identity.get('traced')})"
            f"\nsimulated device throughput: {sim:.1f} fps"
        )


def _detection_key(result: FrameResult) -> tuple:
    return tuple((d.x, d.y, d.size, d.score) for d in result.raw_detections)


def _identical(reference: list[FrameResult], candidate: list[FrameResult]) -> bool:
    return len(reference) == len(candidate) and all(
        _detection_key(r) == _detection_key(c) for r, c in zip(reference, candidate)
    )


def run_throughput(
    *,
    frames: int = 10,
    workers: int = 4,
    width: int = _DEFAULT_WIDTH,
    height: int = _DEFAULT_HEIGHT,
    trials: int = 3,
    warmup: int = 1,
    cascade: str = "paper",
    faces: int = 2,
    seed: int = 0,
    backend: str | None = None,
    mode: ShardingMode | str = ShardingMode.THREADS,
    fastpath: str | None = None,
) -> ThroughputResult:
    """Measure serial vs thread-sharded vs process-sharded wall-clock fps.

    ``mode`` names the *primary* engine path the headline ``speedup``
    and the instrumented metrics pass use (``auto`` resolves against the
    host, exactly as the engine would); all three paths are always
    timed, so the artifact records the full comparison either way.
    ``backend`` names the compute backend every path runs on (``None``
    defers to ``REPRO_BACKEND`` / the ``reference`` default); ``fastpath``
    selects the two-tier fast-path policy the same way (``None`` defers
    to ``REPRO_FASTPATH`` / off).
    """
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")
    if cascade not in _CASCADES:
        raise ConfigurationError(
            f"unknown cascade {cascade!r}; choose from {sorted(_CASCADES)}"
        )
    primary = ShardingMode.coerce(mode).resolve(workers)

    lumas = [
        packet.luma
        for packet in synthetic_stream(width, height, frames, faces=faces, seed=seed)
    ]
    pipeline = FaceDetectionPipeline(
        _CASCADES[cascade](seed=0),
        config=PipelineConfig(backend=backend, fastpath=fastpath),
    )
    thread_engine = DetectionEngine(pipeline, workers=workers, sharding="threads")
    process_engine = DetectionEngine(pipeline, workers=workers, sharding="processes")

    try:
        # Warm every path: the serial pass doubles as the reference output
        # for the identity checks; each engine pass builds its worker
        # state (workspaces / spawned processes) before the timed region.
        reference = [pipeline.process_frame(luma) for luma in lumas]
        threaded = list(thread_engine.process_frames(iter(lumas)))
        processed = list(process_engine.process_frames(iter(lumas)))
        identity = {
            "threads": _identical(reference, threaded),
            "processes": _identical(reference, processed),
        }

        serial_t, threads_t, processes_t = ModeTiming(), ModeTiming(), ModeTiming()
        results = processed
        for round_index in range(warmup + trials):
            timed = round_index >= warmup

            start = time.perf_counter()
            for luma in lumas:
                pipeline.process_frame(luma)
            elapsed = time.perf_counter() - start
            (serial_t.rounds if timed else serial_t.warmup_rounds).append(elapsed)

            start = time.perf_counter()
            list(thread_engine.process_frames(iter(lumas)))
            elapsed = time.perf_counter() - start
            (threads_t.rounds if timed else threads_t.warmup_rounds).append(elapsed)

            start = time.perf_counter()
            results = list(process_engine.process_frames(iter(lumas)))
            elapsed = time.perf_counter() - start
            (processes_t.rounds if timed else processes_t.warmup_rounds).append(elapsed)
    finally:
        thread_engine.close()
        process_engine.close()

    primary_timing = {
        ShardingMode.THREADS: threads_t,
        ShardingMode.PROCESSES: processes_t,
    }[primary]
    report = batch_report(results, wall_s=primary_timing.median_s)

    # One extra fully instrumented pass *after* the timed rounds, on the
    # primary mode: the metrics snapshot (per-stage busy seconds,
    # frame-latency percentiles, queue depth — merged across worker
    # processes under process sharding) rides along in the JSON artifact
    # without perturbing the timed region.  It doubles as another
    # identity check: tracing must not change a single output byte.
    tracer = Tracer()
    registry = MetricsRegistry()
    with DetectionEngine(
        pipeline,
        workers=workers,
        sharding=primary,
        tracer=tracer,
        metrics=registry,
    ) as traced_engine:
        traced = list(traced_engine.process_frames(iter(lumas)))
    identity["traced"] = _identical(reference, traced)
    metrics = build_snapshot(registry, tracer, backend=pipeline.backend.name)

    return ThroughputResult(
        width=width,
        height=height,
        frames=frames,
        workers=workers,
        trials=trials,
        warmup=warmup,
        cascade=cascade,
        backend=pipeline.backend.name,
        mode=primary.value,
        serial=serial_t,
        threads=threads_t,
        processes=processes_t,
        identity=identity,
        report=report,
        metrics=metrics,
    )
