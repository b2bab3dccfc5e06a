"""Chrome-trace exporter: JSON validity, track layout, profiler bridge."""

import json

import pytest

from repro import FaceDetector
from repro.detect.pipeline import FaceDetectionPipeline
from repro.errors import ReproError
from repro.gpusim.profiler import CommandLineProfiler
from repro.obs.capture import run_trace
from repro.obs.chrome import (
    GPUSIM_PID,
    HOST_PID,
    span_events,
    validate_chrome_events,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer
from repro.utils.rng import rng_for
from repro.video.synthesis import render_scene
from repro.zoo import quick_cascade


@pytest.fixture(scope="module")
def capture():
    pipeline = FaceDetectionPipeline(quick_cascade(seed=0))
    return run_trace(frames=3, workers=2, width=120, height=90, pipeline=pipeline)


def _complete(events, pid=None):
    return [e for e in events if e.get("ph") == "X" and (pid is None or e["pid"] == pid)]


class TestValidator:
    def test_accepts_good_events(self):
        validate_chrome_events(
            [{"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1, "name": "a"}]
        )

    @pytest.mark.parametrize(
        "bad",
        [
            [{"ts": 0.0}],  # no phase
            [{"ph": "X", "ts": 0.0, "dur": 1.0, "pid": 1, "tid": 1}],  # no name
            [{"ph": "X", "ts": 0.0, "pid": 1, "tid": 1, "name": "a"}],  # no dur
            [{"ph": "X", "ts": 0.0, "dur": -1.0, "pid": 1, "tid": 1, "name": "a"}],
            ["not-an-object"],
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ReproError):
            validate_chrome_events(bad)

    def test_rejects_unserialisable(self):
        with pytest.raises(ReproError):
            validate_chrome_events([{"ph": "X", "ts": object()}])


class TestEngineTrace:
    def test_required_fields_on_every_event(self, capture):
        validate_chrome_events(capture.events)
        for event in _complete(capture.events):
            assert event["dur"] >= 0.0
            assert isinstance(event["tid"], int)

    def test_host_spans_per_worker_thread(self, capture):
        host = _complete(capture.events, HOST_PID)
        assert {e["name"] for e in host} >= {
            "frame", "integral", "cascade", "grouping", "schedule",
            "pyramid.antialias", "pyramid.scale",
        }
        # two workers -> two distinct host tracks
        assert len({e["tid"] for e in host}) == 2

    def test_sim_kernels_one_track_per_stream(self, capture):
        sim = _complete(capture.events, GPUSIM_PID)
        assert sim, "no simulated kernel events exported"
        streams = {t.stream for r in capture.results for t in r.schedule.timeline.traces}
        assert {e["tid"] for e in sim} == streams
        assert len(streams) > 1  # distinct per-stream tracks
        names = {e["name"] for e in sim}
        assert any(n.startswith("cascade_s") for n in names)

    def test_frames_anchored_at_host_frame_spans(self, capture):
        anchors = {
            s.args["frame"]: s.start_us
            for s in capture.tracer.spans()
            if s.name == "frame"
        }
        assert set(anchors) == {0, 1, 2}
        for event in _complete(capture.events, GPUSIM_PID):
            frame = event["args"]["frame"]
            assert event["ts"] >= anchors[frame] - 1e-3

    def test_snapshot_records_backend_and_registry(self, capture):
        info = capture.snapshot["backend"]
        assert info["active"] == capture.backend
        assert {"reference", "vectorized"} <= set(info["registered"])

    def test_backend_selection_reaches_snapshot(self):
        cap = run_trace(
            frames=2, workers=1, width=96, height=72, backend="vectorized"
        )
        assert cap.backend == "vectorized"
        assert cap.snapshot["backend"]["active"] == "vectorized"

    def test_write_round_trips(self, capture, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", capture.events)
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == len(capture.events)


class TestSpanEvents:
    def test_deterministic_tid_mapping(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        events = span_events(tracer.spans())
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in meta} == {"process_name", "thread_name"}
        (x,) = _complete(events)
        assert x["tid"] == 1 and x["pid"] == HOST_PID


class TestProfilerBridge:
    @pytest.fixture(scope="class")
    def schedule(self):
        detector = FaceDetector.pretrained("quick", seed=0)
        frame, _ = render_scene(120, 90, faces=1, rng=rng_for(5, "profiler-trace"))
        return detector.detect(frame).frame.schedule

    def test_to_chrome_trace_is_valid_and_matches_timeline(self, schedule, tmp_path):
        profiler = CommandLineProfiler(schedule)
        events = profiler.to_chrome_trace()
        validate_chrome_events(events)
        complete = _complete(events)
        assert len(complete) == len(schedule.timeline.traces)
        by_name = {(e["name"], e["tid"]): e for e in complete}
        for t in schedule.timeline.traces:
            event = by_name[(t.name, t.stream)]
            assert event["ts"] == pytest.approx(t.start_s * 1e6, abs=1e-3)
            assert event["dur"] == pytest.approx(t.duration_s * 1e6, abs=1e-3)
        path = profiler.write_chrome_trace(tmp_path / "kernels.json")
        assert json.loads(path.read_text())["traceEvents"]

    def test_table_rows_internally_consistent(self, schedule):
        """The rounding-drift fix: duration column == end - start, always."""
        profiler = CommandLineProfiler(schedule)
        text = profiler.concurrent_kernel_trace()
        rows = [
            line.split()
            for line in text.splitlines()
            if line and line.split()[0].startswith(("cascade", "filter", "scaling",
                                                    "integral", "transpose", "display"))
        ]
        assert rows
        for row in rows:
            start, end, dur = float(row[2]), float(row[3]), float(row[4])
            assert dur == pytest.approx(round(end - start, 2), abs=1e-9)
