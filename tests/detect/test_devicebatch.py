"""Device-batch goldens: fused cross-frame execution vs per-frame truth.

The batch executor's contract is that ``batch_across_frames`` is purely
an execution strategy: the same frames must produce byte-identical
detections with batching on or off, on every sharding mode (serial,
threads, processes), through both ``process_frames`` and
``submit_batch``.  The ``vectorized`` backend is the identity surface;
the ``arrayapi`` backend (``exactness="tolerance"``) is held to the
detection-level IoU/score gate instead.  Unit tests pin the engine's
frame grouping, the launch-fusion helpers and the transfer accounting the
``BENCH_devicebatch.json`` columns are built from.
"""

import numpy as np
import pytest

from repro.backend.oracle import ToleranceSpec, _diff_detections
from repro.detect.devicebatch import (
    TransferStats,
    concat_launches,
    fuse_uniform_launch,
)
from repro.detect.engine import DetectionEngine, _iter_groups, batch_report
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.image.filtering import filtering_launch
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def cascade():
    return quick_cascade(seed=0)


@pytest.fixture(scope="module")
def pipeline(cascade):
    return FaceDetectionPipeline(
        # fastpath pinned off: fastpath workspaces are inherently
        # sequential (temporal delta cache) and opt out of fusion, so
        # these goldens must not inherit REPRO_FASTPATH from the env
        cascade, config=PipelineConfig(backend="vectorized", fastpath="off")
    )


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(96, 96, faces=1, rng=rng_for(11, "devicebatch-test", i))[0]
        for i in range(8)
    ]


@pytest.fixture(scope="module")
def reference(pipeline, frames):
    """Per-frame truth from the unbatched serial path."""
    workspace = pipeline.make_workspace()
    return [workspace.process_frame(f) for f in frames]


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


def _assert_identical(reference, candidate):
    assert len(reference) == len(candidate)
    for ref, got in zip(reference, candidate):
        assert _detections(ref) == _detections(got)


class TestBatchPlan:
    """The engine's one grouping rule (``_iter_groups``)."""

    @staticmethod
    def _groups(shapes, max_batch):
        frames = [np.zeros(shape, dtype=np.float32) for shape in shapes]
        return [
            (start, len(lumas), lumas[0].shape)
            for start, lumas in _iter_groups(frames, max_batch)
        ]

    def test_groups_consecutive_same_shapes(self):
        shapes = [(96, 96)] * 5 + [(48, 48)] * 2 + [(96, 96)]
        assert self._groups(shapes, max_batch=8) == [
            (0, 5, (96, 96)),
            (5, 2, (48, 48)),
            (7, 1, (96, 96)),
        ]

    def test_caps_at_max_batch(self):
        groups = self._groups([(64, 64)] * 10, max_batch=4)
        assert [count for _, count, _ in groups] == [4, 4, 2]
        assert [list(range(start, start + count)) for start, count, _ in groups] == [
            [0, 1, 2, 3], [4, 5, 6, 7], [8, 9]
        ]

    def test_rejects_bad_max_batch(self, pipeline):
        with pytest.raises(ConfigurationError):
            DetectionEngine(pipeline, batch_across_frames=True, device_batch=0)


class TestTransferStats:
    def test_saved_is_per_frame_minus_fused(self):
        stats = TransferStats(
            frames=4, batches=1, fused_batches=1,
            h2d=10, d2h=10, per_frame_h2d=40, per_frame_d2h=40,
        )
        assert stats.saved == 60
        assert stats.as_dict()["saved"] == 60

    def test_merge_accumulates(self):
        a = TransferStats(frames=2, batches=1, h2d=5, d2h=5,
                          per_frame_h2d=10, per_frame_d2h=10)
        b = TransferStats(frames=3, batches=1, fused_batches=1, h2d=5, d2h=5,
                          per_frame_h2d=15, per_frame_d2h=15)
        a.merge(b)
        assert (a.frames, a.batches, a.fused_batches) == (5, 2, 1)
        assert a.saved == (10 + 15) * 2 - 20


class TestLaunchFusion:
    def test_fuse_uniform_launch_tiles_by_n(self):
        base = filtering_launch(96, 96, stream=1, tag="filter")
        fused = fuse_uniform_launch(base, 4)
        assert fused.config.grid_blocks == base.config.grid_blocks * 4
        assert fused.work.warp_instructions.shape[0] == base.config.grid_blocks * 4
        assert np.array_equal(
            fused.work.warp_instructions[: base.config.grid_blocks],
            base.work.warp_instructions,
        )
        assert fused.stream == base.stream
        assert fused.tag == base.tag

    def test_fuse_n1_is_equivalent(self):
        base = filtering_launch(64, 64, stream=2)
        fused = fuse_uniform_launch(base, 1)
        assert fused.config.grid_blocks == base.config.grid_blocks
        assert np.array_equal(
            fused.work.warp_instructions, base.work.warp_instructions
        )

    def test_concat_launches(self):
        a = filtering_launch(96, 96, stream=1)
        b = filtering_launch(96, 96, stream=1)
        merged = concat_launches([a, b])
        assert merged.config.grid_blocks == a.config.grid_blocks * 2
        assert merged.work.warp_instructions.shape[0] == a.config.grid_blocks * 2
        assert concat_launches([a]) is a
        with pytest.raises(ConfigurationError):
            concat_launches([])


class TestIdentityVectorized:
    """Same frames, batching on vs off: byte-identical on every path."""

    def test_inline_serial(self, pipeline, frames, reference):
        with DetectionEngine(
            pipeline, workers=0, batch_across_frames=True, device_batch=4
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        _assert_identical(reference, results)
        assert all(r.device_batch == 4 for r in results)

    def test_threads(self, pipeline, frames, reference):
        with DetectionEngine(
            pipeline, workers=2, batch_across_frames=True, device_batch=4
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        _assert_identical(reference, results)

    def test_processes(self, pipeline, frames, reference):
        with DetectionEngine(
            pipeline,
            workers=2,
            sharding="processes",
            batch_across_frames=True,
            device_batch=4,
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        _assert_identical(reference, results)
        assert all(r.worker.startswith("pid ") for r in results)

    def test_submit_batch(self, pipeline, frames, reference):
        with DetectionEngine(
            pipeline, workers=2, batch_across_frames=True, device_batch=4
        ) as engine:
            futures = engine.submit_batch(frames)
            results = [f.result(timeout=60) for f in futures]
        _assert_identical(reference, results)

    def test_submit_batch_degrades_without_batch_mode(
        self, pipeline, frames, reference
    ):
        with DetectionEngine(pipeline, workers=0) as engine:
            futures = engine.submit_batch(frames[:3])
            results = [f.result(timeout=60) for f in futures]
        _assert_identical(reference[:3], results)
        assert all(r.device_batch is None for r in results)

    def test_mixed_shapes_split_groups(self, pipeline):
        frames = []
        for i in range(6):
            side = 96 if i % 2 == 0 else 64
            frames.append(
                render_scene(side, side, faces=1, rng=rng_for(3, "db-mixed", i))[0]
            )
        workspace = pipeline.make_workspace()
        reference = [workspace.process_frame(f) for f in frames]
        with DetectionEngine(
            pipeline, workers=0, batch_across_frames=True, device_batch=4
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        _assert_identical(reference, results)
        # alternating shapes break every run: no group exceeds one frame,
        # so every frame takes the per-frame fallback and nothing fuses —
        # correctness must not depend on fusion firing
        assert all(r.device_batch is None for r in results)


class TestAccounting:
    def test_batch_report_counts_shared_schedules_once(self, pipeline, frames):
        with DetectionEngine(
            pipeline, workers=0, batch_across_frames=True, device_batch=4
        ) as engine:
            results = list(engine.process_frames(iter(frames)))
        report = batch_report(results)
        # 8 frames in device batches of 4 -> 2 distinct fused schedules,
        # each aggregated once (BatchReport.frames counts aggregated
        # schedules, one per fused batch here — not once per frame)
        assert report.frames == 2
        assert report.simulated_seconds > 0

    def test_metrics_batching_block(self, pipeline, frames):
        registry = MetricsRegistry()
        with DetectionEngine(
            pipeline,
            workers=0,
            metrics=registry,
            batch_across_frames=True,
            device_batch=4,
        ) as engine:
            list(engine.process_frames(iter(frames)))
        snap = build_snapshot(registry)
        batching = snap["batching"]
        assert batching["batched_frames"] == len(frames)
        assert batching["device_batches"] == 2
        assert batching["fused_batches"] == 2
        assert batching["mean_batch_size"] == 4.0
        assert batching["batch_size_max"] == 4
        # accounting identity: fused crossings + saved == per-frame crossings
        counters = snap["counters"]
        transfers = counters["engine.device_transfers"]
        saved = counters["engine.device_transfers_saved"]
        assert saved > 0
        registry2 = MetricsRegistry()
        with DetectionEngine(
            pipeline,
            workers=0,
            metrics=registry2,
            batch_across_frames=True,
            device_batch=1,
        ) as engine:
            list(engine.process_frames(iter(frames)))
        unfused = registry2.snapshot()["counters"]["engine.device_transfers"]
        assert transfers + saved == unfused


class TestArrayApiTolerance:
    def test_batched_arrayapi_within_detection_gate(self, cascade, frames):
        """The tolerance-backend golden: batched arrayapi detections must
        match its own per-frame output under the PR 8 detection gate
        (IoU + score delta) — the acceptance contract a non-bit-exact
        accelerator backend is held to."""
        pipeline = FaceDetectionPipeline(
            cascade, config=PipelineConfig(backend="arrayapi", fastpath="off")
        )
        workspace = pipeline.make_workspace()
        per_frame = [workspace.process_frame(f) for f in frames]
        with DetectionEngine(
            pipeline, workers=0, batch_across_frames=True, device_batch=4
        ) as engine:
            batched = list(engine.process_frames(iter(frames)))
        spec = ToleranceSpec()
        mismatches: list[str] = []
        for i, (ref, got) in enumerate(zip(per_frame, batched)):
            _diff_detections(
                mismatches,
                f"frame {i}",
                _detections(ref),
                _detections(got),
                spec,
            )
        assert not mismatches, "\n".join(mismatches[:10])
