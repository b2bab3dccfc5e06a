"""Pickle round-trips for everything that crosses the process boundary.

Process sharding ships objects through ``spawn`` workers: the
:class:`~repro.detect.pipeline.PipelineSpec` rides in the pool
initializer, :class:`~repro.video.shm.SlotTicket` and
:class:`~repro.detect.shard.ShardReply` cross per group, and traced
runs ship :class:`~repro.obs.tracer.Span` lists back.  A single stored
lambda or open handle anywhere in those graphs turns into an opaque
``BrokenProcessPool`` at runtime — these tests pin the pickling
contract where the failure is legible instead.
"""

import pickle

import numpy as np
import pytest

from repro import zoo
from repro.detect.devicebatch import BatchExecution
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig, PipelineSpec
from repro.detect.shard import ShardReply
from repro.obs.tracer import Span
from repro.video.shm import SlotTicket
from repro.video.stream import synthetic_stream


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_pipeline_config_roundtrip():
    config = PipelineConfig(backend="vectorized")
    restored = roundtrip(config)
    assert restored == config


def test_cascade_roundtrip():
    cascade = zoo.quick_cascade(seed=0)
    restored = roundtrip(cascade)
    assert restored.num_stages == cascade.num_stages
    assert restored.stage_sizes() == cascade.stage_sizes()
    assert restored.window == cascade.window


def test_frame_packet_roundtrip():
    packet = next(iter(synthetic_stream(64, 48, 1, faces=1, seed=3)))
    restored = roundtrip(packet)
    assert restored.index == packet.index
    np.testing.assert_array_equal(restored.luma, packet.luma)
    assert restored.annotations == packet.annotations


def test_slot_ticket_roundtrip():
    ticket = SlotTicket(
        ring_name="psm_test", slot=2, offset=4096, shape=(48, 64), dtype="uint8"
    )
    assert roundtrip(ticket) == ticket


def _span_fields(span):
    return (
        span.name, span.cat, span.start_us, span.dur_us,
        span.thread_id, span.thread_name, span.args,
    )


def test_span_roundtrip():
    span = Span(
        name="frame", cat="engine", start_us=500.0, dur_us=250.0,
        thread_id=1234, thread_name="pid 1234", args={"frame": 7},
    )
    restored = roundtrip(span)
    assert _span_fields(restored) == _span_fields(span)


def test_pipeline_spec_roundtrip_builds_identical_pipeline():
    """The initializer payload must rebuild a byte-identical pipeline."""
    pipeline = FaceDetectionPipeline(zoo.quick_cascade(seed=0))
    spec = roundtrip(pipeline.spec())
    rebuilt = spec.build()

    luma = next(iter(synthetic_stream(96, 72, 1, faces=1, seed=5))).luma
    original = pipeline.process_frame(luma)
    mirrored = rebuilt.process_frame(luma)
    assert [
        (d.x, d.y, d.size, d.score) for d in original.raw_detections
    ] == [(d.x, d.y, d.size, d.score) for d in mirrored.raw_detections]


def test_frame_result_roundtrip():
    pipeline = FaceDetectionPipeline(zoo.quick_cascade(seed=0))
    luma = next(iter(synthetic_stream(96, 72, 1, faces=1, seed=5))).luma
    result = pipeline.process_frame(luma)
    restored = roundtrip(result)
    assert [
        (d.x, d.y, d.size, d.score) for d in restored.raw_detections
    ] == [(d.x, d.y, d.size, d.score) for d in result.raw_detections]
    assert len(restored.levels) == len(result.levels)
    assert restored.detection_time_s == result.detection_time_s


def test_shard_reply_roundtrip():
    pipeline = FaceDetectionPipeline(zoo.quick_cascade(seed=0))
    luma = next(iter(synthetic_stream(96, 72, 1, faces=1, seed=5))).luma
    reply = ShardReply(
        index=3,
        execution=BatchExecution(results=[pipeline.process_frame(luma)], schedule=None),
        pid=4321,
        queue_wait_s=0.001,
        latency_s=0.25,
        spans=[
            Span(
                name="frame", cat="engine", start_us=0.0, dur_us=250.0,
                thread_id=4321, thread_name="pid 4321", args={"frame": 3},
            )
        ],
    )
    restored = roundtrip(reply)
    assert restored.index == reply.index
    assert restored.pid == reply.pid
    assert [_span_fields(s) for s in restored.spans] == [
        _span_fields(s) for s in reply.spans
    ]
    (restored_result,) = restored.execution.results
    (result,) = reply.execution.results
    assert len(restored_result.raw_detections) == len(result.raw_detections)


def test_pickled_payloads_are_small_except_pixels():
    """Per-frame control traffic stays tiny: the pixels ride in shm."""
    ticket = SlotTicket(
        ring_name="psm_test", slot=0, offset=0, shape=(270, 480), dtype="uint8"
    )
    assert len(pickle.dumps(ticket)) < 1024


@pytest.mark.parametrize("mode", ["threads", "processes", "auto"])
def test_sharding_mode_roundtrip(mode):
    from repro.detect.engine import ShardingMode

    value = ShardingMode.coerce(mode)
    assert roundtrip(value) is value
