"""Process-sharding tests: real worker processes, real shared memory.

Everything the threaded engine guarantees must survive the jump across
the process boundary: byte-identical output, input-order emission under
scrambled completion (injected per-frame delays), bounded in-flight
window, and a *loud* failure — :class:`~repro.errors.WorkerCrashError`,
never a hang — when a worker dies mid-batch.

Fault injection rides on the ``REPRO_ENGINE_TEST_*`` environment
variables (inherited by spawn workers), so the faults happen inside
genuine pool processes, not monkeypatched stand-ins.
"""

import os

import numpy as np
import pytest

from repro.detect.engine import DetectionEngine, ShardingMode
from repro.detect.pipeline import FaceDetectionPipeline
from repro.detect.shard import CRASH_INDEX_ENV, DELAY_ENV
from repro.errors import ConfigurationError, WorkerCrashError
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
        render_scene(96, 72, faces=1, rng=rng_for(13, "proc-engine-test", i))[0]
        for i in range(5)
    ]


@pytest.fixture(scope="module")
def engine(pipeline):
    """One persistent process-sharded engine shared by the module.

    Spawn startup costs ~1s per worker; sharing the pool across tests
    also exercises the persistence claim (state survives between runs).
    """
    with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
        yield engine


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


class TestIdentity:
    def test_byte_identical_to_serial(self, pipeline, frames, engine):
        reference = [pipeline.process_frame(f) for f in frames]
        # two passes: cold pool+ring, then warm (persistent workers)
        for _ in range(2):
            sharded = list(engine.process_frames(iter(frames)))
            assert len(sharded) == len(reference)
            for ref, out in zip(reference, sharded):
                assert _detections(out) == _detections(ref)
                assert out.schedule.makespan_s == ref.schedule.makespan_s
                for kr, ko in zip(ref.kernel_results, out.kernel_results):
                    assert kr.depth_map.tobytes() == ko.depth_map.tobytes()
                    assert kr.margin_map.tobytes() == ko.margin_map.tobytes()
                    assert kr.sigma_map.tobytes() == ko.sigma_map.tobytes()

    def test_accepts_frame_packets(self, pipeline, engine):
        packets = list(synthetic_stream(96, 72, 3, seed=5))
        reference = [pipeline.process_frame(p.luma) for p in packets]
        out = list(engine.process_frames(iter(packets)))
        for ref, got in zip(reference, out):
            assert _detections(got) == _detections(ref)


class TestOrdering:
    def test_ordered_output_under_scrambled_completion(
        self, pipeline, frames, monkeypatch
    ):
        # frame 0 sleeps longest inside its worker, so completion order
        # inverts; emission order must not
        monkeypatch.setenv(DELAY_ENV, "0:0.30,1:0.15,2:0.05")
        with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
            reference = [pipeline.process_frame(f) for f in frames[:4]]
            out = list(engine.process_frames(iter(frames[:4])))
        assert [_detections(r) for r in out] == [_detections(r) for r in reference]

    def test_backpressure_bounds_source_readahead(self, pipeline, frames, engine):
        pulled = []

        def source():
            for i in range(8):
                pulled.append(i)
                yield frames[i % len(frames)]

        results = engine.process_frames(source())
        next(results)
        # the source may only ever run max_in_flight ahead of consumption
        assert len(pulled) <= engine.max_in_flight + 1
        assert len(list(results)) == 7
        assert len(pulled) == 8

    def test_ring_occupancy_never_exceeds_bound(self, pipeline, frames, engine):
        # drain fully, then the ring must be back to all-free: every slot
        # acquired at submit was released at emit
        list(engine.process_frames(iter(frames)))
        ring = engine._executor.ring
        assert ring is not None
        assert ring.free_slots == ring.slots
        assert ring.slots == engine.max_in_flight


class TestCrashSurfacing:
    def test_worker_crash_raises_not_hangs(self, pipeline, frames, monkeypatch):
        monkeypatch.setenv(CRASH_INDEX_ENV, "2")
        with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                list(engine.process_frames(iter(frames)))

            # the engine recovers: next run lazily rebuilds pool + ring
            monkeypatch.delenv(CRASH_INDEX_ENV)
            reference = [pipeline.process_frame(f) for f in frames[:2]]
            out = list(engine.process_frames(iter(frames[:2])))
            assert [_detections(r) for r in out] == [
                _detections(r) for r in reference
            ]

    def test_crash_error_is_configuration_free(self, pipeline, frames, monkeypatch):
        # a crash on the very first frame (initializer ran, frame 0 dies)
        monkeypatch.setenv(CRASH_INDEX_ENV, "0")
        with DetectionEngine(pipeline, workers=1, sharding="processes") as engine:
            with pytest.raises(WorkerCrashError):
                list(engine.process_frames(iter(frames[:2])))


class TestCrashMidBatch:
    def test_crash_inside_device_batch(self, pipeline, frames, monkeypatch):
        # frame 2 is a lane inside the first device batch of 4
        monkeypatch.setenv(CRASH_INDEX_ENV, "2")
        with DetectionEngine(
            pipeline,
            workers=2,
            sharding="processes",
            batch_across_frames=True,
            device_batch=4,
        ) as engine:
            with pytest.raises(WorkerCrashError, match="worker process died"):
                list(engine.process_frames(iter(frames)))

            # submit_batch rebuilds the pool; lane 2 dies again and every
            # future of that batch resolves with the crash, none hangs
            futures = engine.submit_batch(frames[:4])
            for future in futures:
                with pytest.raises(WorkerCrashError):
                    future.result(timeout=60)

            monkeypatch.delenv(CRASH_INDEX_ENV)
            reference = [pipeline.process_frame(f) for f in frames]
            out = list(engine.process_frames(iter(frames)))
            assert [_detections(r) for r in out] == [
                _detections(r) for r in reference
            ]


class TestModeSelection:
    def test_auto_resolution_follows_cores(self, pipeline):
        resolved = ShardingMode.AUTO.resolve(4)
        if (os.cpu_count() or 1) >= 2:
            assert resolved is ShardingMode.PROCESSES
        else:
            assert resolved is ShardingMode.THREADS
        # zero/one worker never pays process overhead
        assert ShardingMode.AUTO.resolve(0) is ShardingMode.THREADS
        assert ShardingMode.AUTO.resolve(1) is ShardingMode.THREADS

    def test_coerce(self):
        assert ShardingMode.coerce("processes") is ShardingMode.PROCESSES
        assert ShardingMode.coerce("THREADS") is ShardingMode.THREADS
        assert ShardingMode.coerce(ShardingMode.AUTO) is ShardingMode.AUTO
        with pytest.raises(ConfigurationError, match="sharding"):
            ShardingMode.coerce("fork-bomb")

    def test_engine_exposes_requested_and_resolved(self, pipeline):
        engine = DetectionEngine(pipeline, workers=4, sharding="auto")
        assert engine.requested_sharding is ShardingMode.AUTO
        assert engine.sharding in (ShardingMode.THREADS, ShardingMode.PROCESSES)

    def test_unknown_start_method_rejected(self, pipeline):
        with pytest.raises(ConfigurationError, match="start method"):
            DetectionEngine(
                pipeline, workers=2, sharding="processes", start_method="teleport"
            )

    def test_workers_zero_stays_inline(self, pipeline, frames):
        # sharding=processes with workers=0 degrades to the inline path
        engine = DetectionEngine(pipeline, workers=0, sharding="processes")
        reference = pipeline.process_frame(frames[0])
        (out,) = list(engine.process_frames(iter(frames[:1])))
        assert _detections(out) == _detections(reference)


class TestObservability:
    def test_traced_run_merges_worker_spans_and_metrics(self, pipeline, frames):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        registry = MetricsRegistry()
        with DetectionEngine(
            pipeline, workers=2, sharding="processes",
            tracer=tracer, metrics=registry,
        ) as engine:
            reference = [pipeline.process_frame(f) for f in frames[:4]]
            out = list(engine.process_frames(iter(frames[:4])))
        # tracing must not change a single output byte
        assert [_detections(r) for r in out] == [_detections(r) for r in reference]

        spans = tracer.spans()
        names = {s.name for s in spans}
        assert {"frame", "integral", "cascade"} <= names
        # worker spans come back pid-tagged: one Chrome lane per process
        lanes = {s.thread_name for s in spans if s.name == "frame"}
        assert lanes and all(lane.startswith("pid ") for lane in lanes)
        frame_args = sorted(
            s.args["frame"] for s in spans if s.name == "frame"
        )
        assert frame_args == [0, 1, 2, 3]

        assert registry.counter("engine.frames").value == 4
        assert registry.histogram("engine.frame_latency_s").count == 4
        assert registry.histogram("engine.queue_wait_s").count == 4

    def test_chrome_trace_exports_pid_lanes(self, pipeline, frames):
        from repro.obs.chrome import engine_trace_events
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with DetectionEngine(
            pipeline, workers=2, sharding="processes", tracer=tracer
        ) as engine:
            results = list(engine.process_frames(iter(frames[:3])))
        events = engine_trace_events(tracer, results)
        assert events
        tids = {
            e["tid"] for e in events if e.get("ph") == "X" and e.get("cat") == "engine"
        }
        assert tids  # at least one worker-pid lane made it to the export


class TestSubmitAcrossProcesses:
    def test_submit_matches_serial(self, pipeline, frames, engine):
        reference = [pipeline.process_frame(f) for f in frames]
        futures = [engine.submit(f) for f in frames]
        engine.drain()
        for ref, future in zip(reference, futures):
            assert future.done()
            assert _detections(future.result()) == _detections(ref)

    def test_submit_overflow_falls_back_to_pickle(self, pipeline, frames, engine):
        # more outstanding submissions than ring slots: the extras ship
        # inline rather than raising, and every result is still correct
        reference = _detections(pipeline.process_frame(frames[0]))
        futures = [engine.submit(frames[0]) for _ in range(engine.max_in_flight + 3)]
        engine.drain()
        assert all(_detections(f.result()) == reference for f in futures)
