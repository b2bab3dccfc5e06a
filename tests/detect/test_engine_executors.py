"""Executor parity: one engine core, the same results and metrics.

Every executor (inline, thread pool, process pool) runs the same
group primitive, with frames grouped one at a time or into device
batches.  On the same frames every combination must give serial
``process_frame`` detections and the same per-frame metric counts;
only device-batched engines record ``engine.device_*`` counters.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline
from repro.obs.metrics import MetricsRegistry
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade

EXECUTORS = {
    "inline": {"workers": 0},
    "threads": {"workers": 2, "sharding": "threads"},
    "processes": {"workers": 2, "sharding": "processes"},
}
GROUPING = {
    "per-frame": {},
    "device_batch=4": {"batch_across_frames": True, "device_batch": 4},
}


@pytest.fixture(scope="module")
def pipeline():
    return FaceDetectionPipeline(quick_cascade(seed=0))


@pytest.fixture(scope="module")
def frames():
    return [
        render_scene(96, 96, faces=1, rng=rng_for(17, "executor-parity", i))[0]
        for i in range(8)
    ]


def _detections(result):
    return [(d.x, d.y, d.size, d.score) for d in result.raw_detections]


@pytest.mark.parametrize("grouping", sorted(GROUPING))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_executor_parity(pipeline, frames, executor, grouping):
    registry = MetricsRegistry()
    with DetectionEngine(
        pipeline, metrics=registry, **EXECUTORS[executor], **GROUPING[grouping]
    ) as engine:
        results = list(engine.process_frames(iter(frames)))

    assert [_detections(r) for r in results] == [
        _detections(pipeline.process_frame(f)) for f in frames
    ]
    counters = registry.snapshot()["counters"]
    assert counters["engine.frames"] == 8
    assert registry.histogram("engine.frame_latency_s").count == 8
    if not GROUPING[grouping]:
        assert not any(name.startswith("engine.device_") for name in counters)
        return
    assert counters["engine.device_batches"] == 2
    # closed books: paid crossings + saved ones == the per-frame path's
    single = pipeline.make_workspace().process_batch(frames[:1]).transfers
    per_frame = (single.per_frame_h2d + single.per_frame_d2h) * len(frames)
    paid = counters["engine.device_transfers"]
    assert paid + counters["engine.device_transfers_saved"] == per_frame


def test_concurrent_submitters_share_the_ring(pipeline, frames):
    """Many threads submitting at once: every lane's ring slot comes back.

    Slots are taken by submitting threads and returned by the pool's
    completion callbacks; a lost update to the ring's free list would
    leave a slot leaked (or handed out twice) after the drain.
    """
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with DetectionEngine(pipeline, workers=2, sharding="processes") as engine:
            reference = [_detections(pipeline.process_frame(f)) for f in frames]
            with ThreadPoolExecutor(max_workers=4) as submitters:
                batches = list(
                    submitters.map(lambda _: engine.submit_batch(frames), range(4))
                )
            engine.drain()
            for futures in batches:
                assert [_detections(f.result(timeout=60)) for f in futures] == reference
            ring = engine._executor.ring
            assert ring.free_slots == ring.slots
    finally:
        sys.setswitchinterval(interval)
