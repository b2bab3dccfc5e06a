"""Tests for the engine's long-lived ``submit()`` / ``drain()`` hook.

The contract: submitted frames resolve to results byte-identical to
serial ``process_frame``, and feeding the engine across many calls never
rebuilds executors or per-worker workspaces — the regression the serving
micro-batcher depends on (one pool for the whole server lifetime, not
one per batch).
"""

import numpy as np
import pytest

from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def pipeline():
    return FaceDetectionPipeline(quick_cascade(seed=0))


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(120, 90, faces=1, rng=rng_for(23, "engine-submit", i))[0]
        for i in range(4)
    ]


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


class TestSubmit:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_submit_matches_serial(self, pipeline, frames, workers):
        reference = [pipeline.process_frame(f) for f in frames]
        with DetectionEngine(pipeline, workers=workers) as engine:
            futures = [engine.submit(f) for f in frames]
            engine.drain()
            for ref, future in zip(reference, futures):
                assert future.done()
                assert _detections(future.result()) == _detections(ref)

    def test_submit_accepts_frame_packets(self, pipeline, frames):
        from repro.video.stream import FramePacket

        with DetectionEngine(pipeline, workers=1) as engine:
            packet = FramePacket(index=0, luma=frames[0])
            result = engine.submit(packet).result()
        assert _detections(result) == _detections(pipeline.process_frame(frames[0]))

    def test_submit_error_lands_in_future(self, pipeline):
        with DetectionEngine(pipeline, workers=1) as engine:
            future = engine.submit(np.zeros((3,), dtype=np.float32))
            with pytest.raises(Exception):
                future.result()
            engine.drain()

    def test_drain_idles_immediately_when_nothing_outstanding(self, pipeline):
        with DetectionEngine(pipeline, workers=1) as engine:
            engine.drain()


class TestPersistentPools:
    def test_thread_pool_survives_across_calls(self, pipeline, frames):
        with DetectionEngine(pipeline, workers=2) as engine:
            list(engine.process_frames(iter(frames)))
            pool = engine._executor
            assert pool is not None
            list(engine.process_frames(iter(frames)))
            engine.submit(frames[0]).result()
            assert engine._executor is pool
        assert engine._executor is None  # close() tears it down

    def test_workspaces_cached_across_calls(self, pipeline, frames, monkeypatch):
        built = []
        real = FaceDetectionPipeline.make_workspace

        def counting(self, tracer=None, stream="default"):
            workspace = real(self, tracer=tracer, stream=stream)
            built.append(workspace)
            return workspace

        monkeypatch.setattr(FaceDetectionPipeline, "make_workspace", counting)
        with DetectionEngine(pipeline, workers=2) as engine:
            list(engine.process_frames(iter(frames)))
            first_pass = len(built)
            assert first_pass <= 2
            # the second pass and the submit hook must only reuse
            list(engine.process_frames(iter(frames)))
            engine.submit(frames[0]).result()
            engine.drain()
            assert len(built) == first_pass

    def test_close_is_idempotent_and_engine_recovers(self, pipeline, frames):
        engine = DetectionEngine(pipeline, workers=1)
        try:
            engine.submit(frames[0]).result()
            engine.close()
            engine.close()
            # lazily rebuilt after close
            result = engine.submit(frames[0]).result()
            assert _detections(result) == _detections(pipeline.process_frame(frames[0]))
        finally:
            engine.close()
