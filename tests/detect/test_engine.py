"""Tests for the batched throughput engine.

The contract under test: the engine is a *pure reordering of work* — its
functional output is byte-identical to serial ``process_frame``, its
output order is the input order regardless of completion order, and its
memory footprint is bounded by the backpressure window.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.detect.devicebatch import BatchExecution
from repro.detect.engine import DetectionEngine, batch_report
from repro.detect.pipeline import FaceDetectionPipeline
from repro.errors import ConfigurationError
from repro.gpusim.scheduler import ExecutionMode
from repro.utils.rng import rng_for
from repro.video.stream import synthetic_stream
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def pipeline():
    return FaceDetectionPipeline(quick_cascade(seed=0))


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(120, 90, faces=1, rng=rng_for(11, "engine-test", i))[0]
        for i in range(5)
    ]


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


class TestDeterminism:
    def test_batched_identical_to_serial(self, pipeline, frames):
        reference = [pipeline.process_frame(f) for f in frames]
        engine = DetectionEngine(pipeline, workers=2)
        # two passes: fresh workspaces, then reused ones
        for _ in range(2):
            batched = list(engine.process_frames(iter(frames)))
            assert len(batched) == len(reference)
            for ref, out in zip(reference, batched):
                assert _detections(out) == _detections(ref)
                assert out.schedule.makespan_s == ref.schedule.makespan_s
                for kr, ko in zip(ref.kernel_results, out.kernel_results):
                    assert np.array_equal(kr.depth_map, ko.depth_map)
                    assert np.array_equal(kr.margin_map, ko.margin_map)
                    assert np.array_equal(kr.sigma_map, ko.sigma_map)

    def test_vectorized_backend_identical_through_engine(self, pipeline, frames):
        from repro.detect.pipeline import PipelineConfig

        vec_pipeline = FaceDetectionPipeline(
            quick_cascade(seed=0), config=PipelineConfig(backend="vectorized")
        )
        assert vec_pipeline.backend.name == "vectorized"
        reference = [pipeline.process_frame(f) for f in frames]
        engine = DetectionEngine(vec_pipeline, workers=2)
        batched = list(engine.process_frames(iter(frames)))
        for ref, out in zip(reference, batched):
            assert _detections(out) == _detections(ref)
            for kr, ko in zip(ref.kernel_results, out.kernel_results):
                assert kr.depth_map.tobytes() == ko.depth_map.tobytes()
                assert kr.margin_map.tobytes() == ko.margin_map.tobytes()
                assert kr.score_map.tobytes() == ko.score_map.tobytes()

    def test_workspace_reuse_is_stateless(self, pipeline, frames):
        workspace = pipeline.make_workspace()
        first = workspace.process_frame(frames[0])
        workspace.process_frame(frames[1])  # different content in between
        again = workspace.process_frame(frames[0])
        assert _detections(again) == _detections(first)
        assert again.schedule.makespan_s == first.schedule.makespan_s

    def test_mode_override(self, pipeline, frames):
        engine = DetectionEngine(pipeline, workers=1)
        serial = list(engine.process_frames(frames[:2], mode=ExecutionMode.SERIAL))
        conc = list(engine.process_frames(frames[:2], mode=ExecutionMode.CONCURRENT))
        for s, c in zip(serial, conc):
            assert s.schedule.mode is ExecutionMode.SERIAL
            assert c.schedule.mode is ExecutionMode.CONCURRENT
            assert _detections(s) == _detections(c)

    def test_accepts_frame_packets(self, pipeline):
        packets = list(synthetic_stream(120, 90, 3, seed=5))
        engine = DetectionEngine(pipeline, workers=2)
        from_packets = list(engine.process_frames(iter(packets)))
        from_lumas = list(engine.process_frames(iter(p.luma for p in packets)))
        for a, b in zip(from_packets, from_lumas):
            assert _detections(a) == _detections(b)


class _ScrambledEngine(DetectionEngine):
    """Engine whose workers finish in deliberately inverted order."""

    def __init__(self, pipeline, **kwargs):
        super().__init__(pipeline, **kwargs)
        self.started = []
        self._lock2 = threading.Lock()

    def _process_group(self, workspace, lumas, mode):
        (luma,) = lumas
        index = int(luma[0, 0])
        with self._lock2:
            self.started.append(index)
        # earlier frames sleep longer, so completion order inverts
        time.sleep(0.05 * (4 - index) / 4)
        return BatchExecution(results=[index], schedule=None)


class TestOrdering:
    def test_output_order_under_inverted_completion(self, pipeline):
        engine = _ScrambledEngine(pipeline, workers=4)
        frames = [np.full((48, 48), i, dtype=np.float32) for i in range(4)]
        out = list(engine.process_frames(iter(frames)))
        assert out == [0, 1, 2, 3]
        assert sorted(engine.started) == [0, 1, 2, 3]

    def test_backpressure_bounds_in_flight(self, pipeline):
        engine = _ScrambledEngine(pipeline, workers=2, queue_depth=1)
        pulled = []

        def source():
            for i in range(8):
                pulled.append(i)
                yield np.full((48, 48), i % 4, dtype=np.float32)

        results = engine.process_frames(source())
        first = next(results)
        assert first == 0
        # the source may only ever run max_in_flight ahead of consumption
        assert len(pulled) <= engine.max_in_flight + 1
        list(results)
        assert len(pulled) == 8

    def test_max_in_flight(self, pipeline):
        assert DetectionEngine(pipeline, workers=3, queue_depth=2).max_in_flight == 5
        assert DetectionEngine(pipeline, workers=0, queue_depth=2).max_in_flight == 3


class TestWorkerCounts:
    @pytest.mark.parametrize("workers", [0, 1, os.cpu_count() or 1])
    def test_all_worker_counts_agree(self, pipeline, frames, workers):
        reference = [pipeline.process_frame(f) for f in frames[:3]]
        engine = DetectionEngine(pipeline, workers=workers)
        out = list(engine.process_frames(iter(frames[:3])))
        for ref, got in zip(reference, out):
            assert _detections(got) == _detections(ref)

    def test_default_workers_is_cpu_count(self, pipeline):
        engine = DetectionEngine(pipeline)
        assert engine.workers == (os.cpu_count() or 1)

    def test_invalid_configuration_rejected(self, pipeline):
        with pytest.raises(ConfigurationError):
            DetectionEngine(pipeline, workers=-1)
        with pytest.raises(ConfigurationError):
            DetectionEngine(pipeline, queue_depth=-1)


class TestBatchReport:
    def test_run_aggregates(self, pipeline, frames):
        engine = DetectionEngine(pipeline, workers=2)
        run = engine.run(iter(frames[:3]))
        report = run.report
        assert report.frames == 3
        expected = sum(r.schedule.makespan_s for r in run.results)
        assert report.simulated_seconds == pytest.approx(expected)
        assert report.simulated_fps == pytest.approx(3 / expected)
        fractions = report.stage_fractions()
        assert set(fractions) >= {"integral", "cascade", "display"}
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_rejection_totals(self, pipeline, frames):
        engine = DetectionEngine(pipeline, workers=0)
        run = engine.run(iter(frames[:2]))
        n_stages = pipeline.cascade.num_stages
        expected = sum(
            r.rejection_matrix(n_stages).sum(axis=0) for r in run.results
        )
        assert np.array_equal(run.report.rejections_by_depth, expected)
        # almost everything dies in the first stages (Fig. 7 shape)
        total = run.report.rejections_by_depth.sum()
        assert run.report.rejections_by_depth[0] > 0.5 * total

    def test_wall_fps(self, pipeline, frames):
        results = [pipeline.process_frame(f) for f in frames[:2]]
        report = batch_report(results, wall_s=0.5)
        assert report.wall_fps == pytest.approx(4.0)
        assert batch_report(results).wall_fps is None

    def test_to_dict_round_trips_via_json(self, pipeline, frames):
        import json

        run = DetectionEngine(pipeline, workers=0).run(iter(frames[:2]))
        payload = json.loads(json.dumps(run.report.to_dict()))
        assert payload["frames"] == 2
        assert payload["simulated_fps"] > 0
        assert isinstance(payload["rejections_by_depth"], list)
