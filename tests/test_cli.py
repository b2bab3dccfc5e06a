"""Tests for the command-line interface."""

import ast
import functools
import importlib
import inspect
import os
import re
import shlex
import subprocess
import sys
import typing
from enum import Enum
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main, read_pnm, write_ppm
from repro.experiments.benchcheck import run_bench_check
from repro.errors import ReproError


class TestPnmIO:
    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 255, (10, 12, 3), dtype=np.uint8)
        path = tmp_path / "x.ppm"
        write_ppm(path, rgb)
        gray = read_pnm(path)
        assert gray.shape == (10, 12)
        expected = 0.299 * rgb[..., 0] + 0.587 * rgb[..., 1] + 0.114 * rgb[..., 2]
        np.testing.assert_allclose(gray, expected.astype(np.float32), atol=0.5)

    def test_pgm_read(self, tmp_path):
        path = tmp_path / "x.pgm"
        pixels = np.arange(12, dtype=np.uint8).reshape(3, 4)
        path.write_bytes(b"P5 4 3 255\n" + pixels.tobytes())
        np.testing.assert_array_equal(read_pnm(path), pixels)

    def test_pgm_with_comment(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([1, 2, 3, 4]))
        np.testing.assert_array_equal(read_pnm(path), [[1, 2], [3, 4]])

    def test_rejects_ascii_pnm(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_bytes(b"P2 2 2 255\n1 2 3 4")
        with pytest.raises(ReproError):
            read_pnm(path)


class TestCommands:
    def test_trailers(self, capsys):
        assert main(["trailers"]) == 0
        out = capsys.readouterr().out
        assert "50/50" in out
        assert "The Dictator" in out

    def test_info(self, capsys):
        import repro

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX 470" in out
        assert "profile" in out
        assert f"repro {repro.__version__}" in out

    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "55660" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "fig99"])
        assert excinfo.value.code == 2

    def test_trace(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "trace",
                    "--frames", "2",
                    "--workers", "2",
                    "--width", "120",
                    "--height", "90",
                    "--output", str(trace_path),
                    "--metrics-output", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "traced 2 frames on 2 workers" in out
        assert "host stage busy time" in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["counters"]["engine.frames"] == 2
        assert "stage_busy_seconds" in snapshot

    def test_detect_demo_scene(self, capsys, tmp_path):
        out_path = tmp_path / "annotated.ppm"
        code = main(
            ["detect", "--width", "192", "--height", "144", "--faces", "1",
             "--output", str(out_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "detections" in out
        assert out_path.exists()
        assert read_pnm(out_path).shape == (144, 192)

    def test_detect_on_pgm(self, capsys, tmp_path):
        from repro.utils.rng import rng_for
        from repro.video.synthesis import render_scene

        frame, _ = render_scene(160, 120, faces=1, rng=rng_for(3, "cli"))
        path = tmp_path / "scene.pgm"
        path.write_bytes(
            "P5 160 120 255\n".encode() + frame.astype(np.uint8).tobytes()
        )
        assert main(["detect", str(path)]) == 0
        assert "simulated GPU time" in capsys.readouterr().out

    def test_train_small_cascade(self, capsys, tmp_path):
        out_path = tmp_path / "tiny.json"
        code = main(
            ["train", "--output", str(out_path), "--stages", "2,3",
             "--faces", "60", "--pool", "150", "--seed", "5"]
        )
        assert code == 0
        from repro.haar.cascade import Cascade

        cascade = Cascade.load(out_path)
        assert cascade.stage_sizes() == [2, 3]


class TestZooCommands:
    def test_zoo_list_empty_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_zoo_gc_empty_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "gc"]) == 0
        assert "nothing to collect" in capsys.readouterr().out

    def test_train_unknown_recipe_is_an_error(self, capsys):
        assert main(["train", "--recipe", "nonexistent"]) == 1
        assert "unknown recipe" in capsys.readouterr().err

    def test_zoo_show_unknown_model_is_an_error(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["zoo", "show", "nonexistent"]) == 1
        assert "no published versions" in capsys.readouterr().err

    def test_zoo_list_and_show_published_model(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.zoo import TrainingRecipe, train_model

        micro = TrainingRecipe(
            name="micro", stage_sizes=(2, 3), algorithm="gentle",
            min_hit_rate=0.99, n_faces=60, pool_size=150,
        )
        _, manifest = train_model(micro, seed=5)

        assert main(["zoo", "list"]) == 0
        out = capsys.readouterr().out
        assert "micro" in out and manifest.version in out

        assert main(["zoo", "show", "micro"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["version"] == manifest.version
        assert shown["content_digest"] == manifest.content_digest


_REPO = Path(__file__).resolve().parents[1]
_WALL_CLOCK = ("throughput", "fastpath", "devicebatch", "serving", "swap")

#: the flags each ``repro bench`` experiment offers besides --output/--help
_FLAGS = {
    "throughput": "frames workers width height trials warmup cascade backend "
    "mode fastpath",
    "fastpath": "trailer frames width height hold trials warmup cascade "
    "backend tile min-sigma",
    "devicebatch": "trailer frames width height batch-sizes trials warmup "
    "cascade backend",
    "serving": "requests concurrency width height cascade backend workers "
    "max-batch max-delay-s",
    "swap": "model swap-to requests concurrency width height backend workers "
    "max-batch max-delay-s",
    "check": "baselines tolerance",
    "table2": "",
}


class _StubResult:
    ok = True

    def __init__(self, calls: dict) -> None:
        self.calls = calls

    def format_table(self) -> str:
        return "stub"

    format_report = format_table

    def write_json(self, path):
        self.calls["output"] = str(path)
        return path


@pytest.fixture
def drivers(monkeypatch, tmp_path):
    """Every bench driver replaced by a recorder of its keyword arguments.

    The stand-ins wrap the real drivers, so the subparsers still read the
    real signatures.
    """
    monkeypatch.chdir(tmp_path)
    calls: dict[str, dict] = {}

    def stub(name, real):
        @functools.wraps(real)
        def record(*args, **kwargs):
            calls[name] = {"args": args, "kwargs": kwargs}
            return _StubResult(calls[name])

        return record

    for name in _WALL_CLOCK:
        module = importlib.import_module(f"repro.experiments.{name}")
        real = getattr(module, f"run_{name}")
        monkeypatch.setattr(module, f"run_{name}", stub(name, real))
    from repro.experiments import benchcheck

    monkeypatch.setattr(
        benchcheck, "run_bench_check", stub("check", benchcheck.run_bench_check)
    )
    return calls


def _signature_defaults(run, names) -> dict:
    params = inspect.signature(run).parameters
    out = {}
    for name in names:
        default = params[name].default
        out[name] = default.value if isinstance(default, Enum) else default
    return out


class TestBenchParsers:
    @pytest.mark.parametrize("experiment", _WALL_CLOCK)
    def test_defaults_match_driver_signature(self, drivers, experiment):
        assert main(["bench", experiment]) == 0
        kwargs = drivers[experiment]["kwargs"]
        module = importlib.import_module(f"repro.experiments.{experiment}")
        run = inspect.unwrap(getattr(module, f"run_{experiment}"))
        assert kwargs == _signature_defaults(run, kwargs)
        assert drivers[experiment]["output"] == f"BENCH_{experiment}.json"

    def test_check_defaults_match_driver_signature(self, drivers):
        assert main(["bench", "check"]) == 0
        kwargs = drivers["check"]["kwargs"]
        assert kwargs == _signature_defaults(
            run_bench_check, ("baselines_dir", "tolerance")
        )

    @pytest.mark.parametrize("experiment", sorted(_FLAGS))
    def test_each_experiment_takes_only_its_own_flags(self, capsys, experiment):
        with pytest.raises(SystemExit):
            main(["bench", experiment, "--help"])
        offered = set(re.findall(r"--([a-z-]+)", capsys.readouterr().out))
        expected = {*_FLAGS[experiment].split(), "help"}
        if experiment in _WALL_CLOCK:
            expected.add("output")
        assert offered == expected

    def test_explicit_values_equal_to_old_sentinels_reach_the_driver(self, drivers):
        argv = "bench fastpath --cascade paper --frames 10 --width 480 --height 270"
        assert main(argv.split()) == 0
        kwargs = drivers["fastpath"]["kwargs"]
        assert (kwargs["cascade"], kwargs["frames"]) == ("paper", 10)
        assert (kwargs["width"], kwargs["height"]) == (480, 270)

        assert main(["bench", "serving", "--workers", "4"]) == 0
        assert drivers["serving"]["kwargs"]["workers"] == 4

        assert main("bench swap --requests 96 --model paper".split()) == 0
        assert drivers["swap"]["kwargs"]["requests"] == 96
        assert drivers["swap"]["kwargs"]["model"] == "paper"

    def test_typed_flags(self, drivers):
        assert main("bench devicebatch --batch-sizes 1,8 --backend reference".split()) == 0
        kwargs = drivers["devicebatch"]["kwargs"]
        assert kwargs["batch_sizes"] == (1, 8)
        assert kwargs["backend"] == "reference"
        assert main(["bench", "serving", "--max-delay-s", "0.01"]) == 0
        assert drivers["serving"]["kwargs"]["max_delay_s"] == 0.01
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "throughput", "--cascade", "nope"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            main(["bench", "serving", "--max-delay-ms", "4"])

    def test_optional_flags_parse_in_their_pre_3_11_hint_form(self):
        # before 3.11, get_type_hints turns ``X | None = None`` into
        # typing.Optional[X]; the flag must still parse as X
        from repro.cli import _flag_spec
        from repro.detect.fastpath import FastpathPolicy

        assert _flag_spec(typing.Optional[int], None) == {"type": int, "default": None}
        policy = typing.Optional[typing.Union[FastpathPolicy, str]]
        assert _flag_spec(policy, None)["choices"] == [m.value for m in FastpathPolicy]

    def test_an_experiment_imports_only_its_own_driver(self):
        probe = (
            "import sys; from repro.cli import build_parser; "
            "build_parser().parse_args(['bench', 'devicebatch']); "
            "print(sorted(m for m in sys.modules if m.startswith('repro.experiments.')))"
        )
        src = Path(inspect.getfile(build_parser)).parents[1]
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        ).stdout
        loaded = ast.literal_eval(out)
        assert "repro.experiments.devicebatch" in loaded
        for other in set(_WALL_CLOCK) - {"devicebatch"}:
            assert f"repro.experiments.{other}" not in loaded

    def test_documented_bench_and_trace_commands_parse(self):
        import yaml

        documented = re.compile(r"python -m repro (bench|trace) ")
        lines = [
            line
            for line in (_REPO / "README.md").read_text().splitlines()
            if documented.search(line)
        ]
        workflow = yaml.safe_load((_REPO / ".github/workflows/ci.yml").read_text())
        for job in workflow["jobs"].values():
            for step in job.get("steps", []):
                lines += [
                    line
                    for line in str(step.get("run", "")).splitlines()
                    if documented.search(line)
                ]
        assert len(lines) >= 10
        parser = build_parser()
        for line in lines:
            argv = shlex.split(line.split("python -m repro", 1)[1], comments=True)
            assert parser.parse_args(argv).command in ("bench", "trace"), line

    def test_tiny_devicebatch_run_passes_check(self, capsys, tmp_path, monkeypatch):
        # run from an empty directory: the committed baselines gate the CI
        # workload (batch width 8), which this tiny sweep does not run
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "BENCH_tiny.json"
        argv = "bench devicebatch --frames 4 --width 96 --height 96 --batch-sizes 1,2"
        assert main([*argv.split(), "--trials", "1", "--warmup", "0", "--output", str(out)]) == 0
        assert f"benchmark artifact -> {out}" in capsys.readouterr().out
        assert main(["bench", "check", str(out)]) == 0
