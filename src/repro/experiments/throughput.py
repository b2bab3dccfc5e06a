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

Methodology follows :mod:`repro.experiments.harness`: the frame set is
materialised once and shared by every path; every path is warmed before
timing — the serial pass doubles as the byte-identity reference, the
engines run one full pass each so worker state (workspaces, pyramid
plans, spawned worker processes) is built outside the timed region,
exactly as it would be mid-video; the three paths alternate within each
round (serial, threads, processes) and score the median of their timed
rounds with the IQR as spread — medians are robust to the 2x outlier
rounds that best-of-N silently hid.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro import zoo
from repro.detect.engine import DetectionEngine, ShardingMode, batch_report
from repro.detect.fastpath import FastpathPolicy
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.experiments.harness import (
    Comparison,
    ModeTiming,
    check_inputs,
    identical,
    instrumented_pass,
    time_rounds,
)
from repro.gpusim.batch import BatchReport
from repro.utils.tables import format_table
from repro.video.stream import synthetic_stream

__all__ = [
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


@dataclass
class ThroughputResult(Comparison):
    """Outcome of one serial / threads / processes wall-clock comparison."""

    experiment = "throughput"
    schema_version = BENCH_SCHEMA_VERSION
    baseline = "serial"

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
    #: "serial", "threads" and "processes", in timing order
    timings: dict[str, ModeTiming]
    #: per-path byte-identity against the serial reference
    identity: dict[str, bool]
    report: BatchReport
    #: observability snapshot of a post-timing instrumented engine pass
    metrics: dict | None = None

    @property
    def identical(self) -> bool:
        """Every measured path produced byte-identical detections."""
        return all(self.identity.values())

    @property
    def serial_fps(self) -> float:
        return self.timings["serial"].fps(self.frames)

    @property
    def speedup(self) -> float:
        """Primary-mode median wall-clock fps over serial median fps."""
        return self.speedup_of(self.mode)

    def to_dict(self) -> dict:
        """The ``BENCH_throughput.json`` payload."""
        return {
            **self.header(backend=self.backend, mode=self.mode),
            "frame_width": self.width,
            "frame_height": self.height,
            "frames": self.frames,
            "workers": self.workers,
            "trials": self.trials,
            "warmup": self.warmup,
            "cascade": self.cascade,
            "backend": self.backend,
            "mode": self.mode,
            "modes": self.paths_dict(self.frames),
            "serial_s": self.timings["serial"].median_s,
            "batched_s": self.timings[self.mode].median_s,
            "serial_fps": self.serial_fps,
            "batched_fps": self.timings[self.mode].fps(self.frames),
            "speedup": self.speedup,
            "identical_detections": self.identical,
            "identity": dict(self.identity),
            "batch_report": self.report.to_dict(),
            "metrics": self.metrics,
        }

    def format_table(self) -> str:
        labels = {
            "serial": "serial process_frame",
            "threads": f"threads engine ({self.workers} workers)",
            "processes": f"processes engine ({self.workers} workers)",
        }
        table = format_table(
            ["path", "median s", "IQR s", "fps", "speedup"],
            self.path_rows(labels, self.frames),
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


def run_throughput(
    *,
    frames: int = 10,
    workers: int = 4,
    width: int = _DEFAULT_WIDTH,
    height: int = _DEFAULT_HEIGHT,
    trials: int = 3,
    warmup: int = 1,
    cascade: zoo.CascadeName = "paper",
    faces: int = 2,
    seed: int = 0,
    backend: str | None = None,
    mode: ShardingMode | str = ShardingMode.THREADS,
    fastpath: FastpathPolicy | str | None = None,
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
    check_inputs(frames=frames, trials=trials, warmup=warmup, cascade=cascade)
    primary = ShardingMode.coerce(mode).resolve(workers)

    lumas = [
        packet.luma
        for packet in synthetic_stream(width, height, frames, faces=faces, seed=seed)
    ]
    pipeline = FaceDetectionPipeline(
        zoo.resolve_model(cascade)[0],
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
            "threads": identical(reference, threaded),
            "processes": identical(reference, processed),
        }
        timings = time_rounds(
            {
                "serial": lambda: [pipeline.process_frame(luma) for luma in lumas],
                "threads": lambda: list(thread_engine.process_frames(iter(lumas))),
                "processes": lambda: list(process_engine.process_frames(iter(lumas))),
            },
            trials=trials,
            warmup=warmup,
        )
    finally:
        thread_engine.close()
        process_engine.close()

    report = batch_report(
        timings["processes"].last, wall_s=timings[primary.value].median_s
    )

    # The instrumented pass runs the primary mode: its metrics snapshot
    # (per-stage busy seconds, frame-latency percentiles, queue depth —
    # merged across worker processes under process sharding) rides along
    # in the artifact.  It doubles as another identity check: tracing
    # must not change a single output byte.
    traced, metrics = instrumented_pass(
        pipeline, lumas, workers=workers, sharding=primary
    )
    identity["traced"] = identical(reference, traced)

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
        timings=timings,
        identity=identity,
        report=report,
        metrics=metrics,
    )
