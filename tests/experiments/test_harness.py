"""The shared bench mechanics every BENCH driver runs on."""

import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments import harness


class TestTimeRounds:
    def test_paths_alternate_in_order_and_warmup_is_split_off(self):
        calls = []

        def path(name):
            def run():
                calls.append(name)
                return len(calls)

            return run

        timings = harness.time_rounds(
            {"serial": path("serial"), "threads": path("threads")}, trials=2, warmup=1
        )
        assert calls == ["serial", "threads"] * 3
        assert list(timings) == ["serial", "threads"]
        for timing in timings.values():
            assert len(timing.warmup_rounds) == 1
            assert len(timing.rounds) == 2
            assert all(t >= 0 for t in timing.rounds)
        assert timings["threads"].last == 6

    def test_median_and_iqr(self):
        timing = harness.ModeTiming(rounds=[1.0, 3.0, 2.0, 10.0])
        assert timing.median_s == 2.5
        assert timing.iqr_s == pytest.approx(4.75 - 1.75)
        assert timing.fps(5) == 2.0
        assert harness.ModeTiming(rounds=[1.0]).iqr_s == 0.0


class TestCheckInputs:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"frames": 0}, "frames must be positive"),
            ({"trials": 0}, "trials must be positive"),
            ({"warmup": -1}, "warmup must be >= 0"),
            (
                {"cascade": "resnet"},
                "unknown cascade 'resnet'; choose from ['opencv', 'paper', 'quick']",
            ),
        ],
    )
    def test_messages(self, kwargs, message):
        good = {"frames": 1, "trials": 1, "warmup": 0, "cascade": "quick"}
        with pytest.raises(ConfigurationError) as err:
            harness.check_inputs(**{**good, **kwargs})
        assert str(err.value) == message


class TestArtifacts:
    def test_header_and_writer(self, tmp_path):
        class Result(harness.BenchArtifact):
            experiment = "demo"
            schema_version = 3

            def to_dict(self):
                return {**self.header(backend="reference", mode="threads"), "x": 1}

        path = Result().write_json(tmp_path / "BENCH_demo.json")
        text = path.read_text()
        assert text.endswith("}\n")
        payload = json.loads(text)
        assert list(payload) == ["experiment", "schema_version", "provenance", "x"]
        assert payload["schema_version"] == 3
        assert payload["provenance"]["backend"] == "reference"
        assert payload["provenance"]["mode"] == "threads"

    def test_env_contract(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
        monkeypatch.delenv("REPRO_BENCH_OUTPUT", raising=False)
        assert harness.smoke() is False
        assert harness.artifact_path("BENCH_x.json") == Path("BENCH_x.json")
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
        monkeypatch.setenv("REPRO_BENCH_OUTPUT", "elsewhere.json")
        assert harness.smoke() is True
        assert harness.artifact_path("BENCH_x.json") == Path("elsewhere.json")
