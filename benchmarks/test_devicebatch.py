"""Device-batch benchmark: cross-frame launch fusion vs per-frame dispatch.

Drives :func:`~repro.experiments.devicebatch.run_devicebatch` over one
synthetic trailer and asserts the device-batch tentpole: detections are
byte-identical at every batch width, the transfer accounting closes
(``transfers + transfers_saved`` equals the width-1 crossing count), and
the per-frame amortised wall clock improves monotonically from width 1
to 8, reaching >= 1.2x at width 8.  Writes the ``BENCH_devicebatch.json``
artifact that CI uploads and ``repro bench check`` validates.

Knobs (environment variables, the CI jobs set them):

* ``REPRO_BENCH_SMOKE=1`` — shrink the workload and skip the wall-clock
  gates; shared CI runners do not provide stable enough wall clocks for
  a ratio gate, so smoke mode checks the machinery (byte identity,
  artifact schema, transfer accounting) and leaves the perf gates to
  the full local run.
* ``REPRO_BENCH_OUTPUT`` — artifact path (default
  ``BENCH_devicebatch.json``).
"""

import json

import pytest

from repro.experiments import harness
from repro.experiments.devicebatch import (
    DEVICEBATCH_BENCH_SCHEMA_VERSION,
    run_devicebatch,
)

pytestmark = pytest.mark.bench


def test_devicebatch_amortisation(report):
    smoke = harness.smoke()
    result = run_devicebatch(
        trailer="50/50",
        frames=16 if smoke else 48,
        width=96,
        height=96,
        batch_sizes=(1, 4, 8) if smoke else (1, 4, 8, 16),
        trials=2 if smoke else 3,
        warmup=1,
        cascade="quick",
    )
    report(result.format_table())

    path = result.write_json(harness.artifact_path("BENCH_devicebatch.json"))
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "devicebatch"
    assert payload["schema_version"] == DEVICEBATCH_BENCH_SCHEMA_VERSION

    prov = payload["provenance"]
    assert {
        "git_sha", "timestamp_utc", "python", "numpy", "platform", "cpu_count"
    } <= set(prov)
    assert prov["backend"] == payload["backend"] == result.backend
    assert payload["warmup"] == 1

    # every width is timed every run, median + IQR scored, and reports
    # its own accounting columns
    batches = payload["batches"]
    assert set(batches) == {str(b) for b in result.batch_sizes}
    for b in result.batch_sizes:
        stats = batches[str(b)]
        assert len(stats["rounds_s"]) == result.trials
        assert len(stats["warmup_rounds_s"]) == result.warmup
        assert stats["median_s"] > 0
        assert stats["per_frame_ms"] > 0
        assert stats["speedup_vs_1"] > 0
        assert stats["batched_frames"] == result.frames
        assert stats["transfers"] > 0
    assert batches["1"]["speedup_vs_1"] == 1.0

    # byte identity across widths is non-negotiable: the fused kernels
    # are elementwise over stacked lanes, not an approximation
    assert payload["identical_detections"], "device batching changed detections"

    # transfer accounting: width 1 crosses per frame and fuses nothing;
    # wider batches must cross once per site per batch, and the saved
    # column must close the books exactly
    assert payload["transfer_accounting_ok"]
    assert batches["1"]["fused_batches"] == 0
    assert batches["1"]["transfers_saved"] == 0
    for b in result.batch_sizes:
        if b > 1:
            assert batches[str(b)]["fused_batches"] > 0
            assert batches[str(b)]["transfers_saved"] > 0
            assert batches[str(b)]["transfers"] < batches["1"]["transfers"]

    # the embedded observability snapshot of the widest instrumented pass
    metrics = payload["metrics"]
    assert metrics["counters"]["engine.batched_frames"] == result.frames
    assert metrics["batching"]["device_batches"] >= 1
    assert metrics["batching"]["batch_size_max"] <= max(result.batch_sizes)

    # wall-clock gates only where they are meaningful: the full local
    # run, not a shared smoke runner
    if not smoke:
        assert payload["monotonic_1_to_8"], (
            "per-frame wall clock did not improve monotonically 1->8: "
            + str({b: round(batches[str(b)]["per_frame_ms"], 3) for b in result.batch_sizes})
        )
        assert batches["8"]["speedup_vs_1"] >= 1.2, (
            f"batch 8 reached only {batches['8']['speedup_vs_1']:.2f}x the "
            f"per-frame baseline"
        )
