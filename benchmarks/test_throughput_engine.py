"""Wall-clock throughput benchmark: sharded engine vs serial loop.

Asserts the tentpole claims: on >= 8 synthetic quarter-1080p frames with
>= 4 workers the thread-sharded :class:`~repro.detect.engine.
DetectionEngine` sustains >= 1.5x the wall-clock fps of a naive
``process_frame`` loop, and on a host with >= 4 cores the
process-sharded engine sustains >= 3.0x — both with byte-identical
detections.  Writes the ``BENCH_throughput.json`` artifact that CI
uploads.

Knobs (all environment variables, the CI jobs set them):

* ``REPRO_BENCH_SMOKE=1`` — shrink the workload and skip the fps-ratio
  gates; shared CI runners do not provide stable enough wall clocks for
  a ratio gate, so smoke mode checks the machinery (identity, artifact
  schema, all three timed paths) and leaves the perf gates to the full
  local run.
* ``REPRO_BENCH_MODE`` — primary sharding mode for the headline speedup
  (``threads`` default; the process smoke job sets ``processes``).
* ``REPRO_BENCH_OUTPUT`` — artifact path (mode-tagged in CI so the
  thread and process artifacts upload side by side).
"""

import json
import os

import pytest

from repro.experiments import harness
from repro.experiments.throughput import BENCH_SCHEMA_VERSION, run_throughput

pytestmark = pytest.mark.bench

#: quarter-1080p geometry (1920x1080 / 4 per axis)
_WIDTH, _HEIGHT = 480, 270


def test_throughput_engine(report):
    smoke = harness.smoke()
    mode = os.environ.get("REPRO_BENCH_MODE", "threads")
    result = run_throughput(
        frames=8 if smoke else 12,
        workers=4,
        width=_WIDTH,
        height=_HEIGHT,
        trials=2 if smoke else 3,
        warmup=0 if smoke else 1,
        cascade="quick" if smoke else "paper",
        mode=mode,
    )
    report(result.format_table())

    path = result.write_json(harness.artifact_path("BENCH_throughput.json"))
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "throughput"
    assert payload["frames"] == result.frames
    assert payload["batch_report"]["frames"] == result.frames
    assert payload["batch_report"]["simulated_fps"] > 0

    # provenance: bench trajectory points must be comparable across PRs,
    # and points from different compute backends / sharding modes must
    # stay separate series
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    prov = payload["provenance"]
    assert {
        "git_sha", "timestamp_utc", "python", "numpy", "platform", "cpu_count"
    } <= set(prov)
    assert payload["backend"] == result.backend
    assert prov["backend"] == result.backend
    assert prov["mode"] == payload["mode"] == result.mode
    assert payload["mode"] in ("threads", "processes")  # auto resolves
    assert payload["workers"] == 4
    assert (payload["frame_width"], payload["frame_height"]) == (_WIDTH, _HEIGHT)

    # all three paths are timed every run, with per-round data and
    # median + IQR scoring (variance is a tracked quantity, not noise)
    modes = payload["modes"]
    for name in ("serial", "threads", "processes"):
        stats = modes[name]
        assert len(stats["rounds_s"]) == result.trials
        assert len(stats["warmup_rounds_s"]) == result.warmup
        assert stats["median_s"] > 0
        assert stats["iqr_s"] >= 0
        assert stats["fps"] > 0
    assert modes["threads"]["speedup"] > 0
    assert modes["processes"]["speedup"] > 0

    # the embedded observability snapshot of the instrumented pass
    metrics = payload["metrics"]
    assert metrics["backend"]["active"] == result.backend
    assert result.backend in metrics["backend"]["registered"]
    assert metrics["counters"]["engine.frames"] == result.frames
    assert metrics["histograms"]["engine.frame_latency_s"]["count"] == result.frames
    assert metrics["histograms"]["engine.frame_latency_s"]["p95"] > 0
    assert metrics["stage_busy_seconds"]["cascade"] > 0
    assert metrics["max_queue_depth"] >= 1

    # functional identity is non-negotiable in every mode
    assert result.identical, (
        f"sharded detections differ from serial ones: {result.identity}"
    )
    assert result.workers >= 4
    assert result.frames >= 8

    # the speedup gates are meaningful only where the cores exist — even
    # GIL-released NumPy regions need a second core to overlap onto; a
    # 1-core container runs every path for identity and schema but
    # cannot speak to scaling
    if not smoke:
        if (os.cpu_count() or 1) >= 2:
            assert result.speedup_of("threads") >= 1.5, (
                f"thread-sharded engine reached only "
                f"{result.speedup_of('threads'):.2f}x serial fps "
                f"(serial {result.serial_fps:.2f} fps)"
            )
        if (os.cpu_count() or 1) >= 4:
            assert result.speedup_of("processes") >= 3.0, (
                f"process-sharded engine reached only "
                f"{result.speedup_of('processes'):.2f}x serial fps on a "
                f"{os.cpu_count()}-core host"
            )
