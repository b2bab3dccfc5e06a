"""Validate the CI pipeline definition.

``actionlint`` is not a baked-in dependency, so the tier-1 gate is a
structural check: the workflow must parse as YAML and contain the jobs
the repo's quality gates depend on (lint, test matrix, vectorized-backend
test pass, benchmark smoke) with the exact tier-1 pytest invocation.
"""

import ast
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="PyYAML needed to parse the workflow")

_WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"


@pytest.fixture(scope="module")
def workflow():
    assert _WORKFLOW.is_file(), "CI workflow .github/workflows/ci.yml is missing"
    return yaml.safe_load(_WORKFLOW.read_text())


def _steps_text(job: dict) -> str:
    return "\n".join(str(step.get("run", "")) for step in job["steps"])


def test_triggers(workflow):
    # YAML 1.1 parses the bare key `on` as boolean True
    triggers = workflow.get("on", workflow.get(True))
    assert triggers is not None, "workflow has no trigger block"
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]


def test_jobs_present(workflow):
    assert {
        "lint", "test", "test-vectorized", "test-arrayapi",
        "test-fastpath", "bench", "serve-smoke",
    } <= set(workflow["jobs"])


def test_concurrency_cancels_superseded_runs(workflow):
    """Pushes to the same ref must cancel the in-flight run."""
    group = workflow["concurrency"]
    assert group["cancel-in-progress"] is True
    assert "github.ref" in str(group["group"])


def test_every_job_has_a_timeout(workflow):
    """A hung step must fail its job, not hold the runner for hours."""
    for name, job in workflow["jobs"].items():
        minutes = job.get("timeout-minutes")
        assert isinstance(minutes, int) and 0 < minutes <= 60, (
            f"{name}: missing or unreasonable timeout-minutes"
        )


def test_lint_job_runs_ruff(workflow):
    text = _steps_text(workflow["jobs"]["lint"])
    assert "ruff check" in text
    assert "ruff format --check" in text


def test_test_job_matrix_and_command(workflow):
    job = workflow["jobs"]["test"]
    versions = job["strategy"]["matrix"]["python-version"]
    assert versions == ["3.10", "3.11", "3.12"]
    assert "PYTHONPATH=src python -m pytest -x -q" in _steps_text(job)


def test_vectorized_backend_job(workflow):
    """The tier-1 suite must also run once under REPRO_BACKEND=vectorized."""
    text = _steps_text(workflow["jobs"]["test-vectorized"])
    assert "REPRO_BACKEND=vectorized" in text
    assert "PYTHONPATH=src python -m pytest -x -q" in text


def test_arrayapi_backend_job(workflow):
    """The tier-1 suite must also run once under REPRO_BACKEND=arrayapi."""
    text = _steps_text(workflow["jobs"]["test-arrayapi"])
    assert "REPRO_BACKEND=arrayapi" in text
    assert "PYTHONPATH=src python -m pytest -x -q" in text


def test_process_sharding_runs_under_spawn_in_tier1():
    """The tier-1 matrix covers process sharding under spawn semantics.

    No separate CI job pins ``REPRO_START_METHOD=spawn``: spawn is the
    engine's default start method, and the process-sharding tests sit
    under the tier-1 ``testpaths``, so every ``test`` matrix entry runs
    them with spawn workers.
    """
    from repro.detect.engine import DEFAULT_START_METHOD

    assert DEFAULT_START_METHOD == "spawn"
    pyproject = _WORKFLOW.parents[2] / "pyproject.toml"
    line = next(
        line for line in pyproject.read_text().splitlines()
        if line.startswith("testpaths")
    )
    testpaths = ast.literal_eval(line.split("=", 1)[1].strip())
    target = Path("tests/detect/test_engine_processes.py")
    assert (pyproject.parent / target).is_file()
    assert any(target.is_relative_to(path) for path in testpaths)


def test_fastpath_job(workflow):
    """The full tier-1 suite must run under the exact fast path (the
    byte-identity oracle mode), and the fast-path bench smoke must
    publish + validate its artifact."""
    job = workflow["jobs"]["test-fastpath"]
    text = _steps_text(job)
    assert "REPRO_FASTPATH=exact" in text
    assert "PYTHONPATH=src python -m pytest -x -q" in text
    assert "benchmarks/test_fastpath.py" in text
    assert "REPRO_BENCH_SMOKE=1" in text
    assert "repro bench check BENCH_fastpath.json" in text
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    assert uploads["BENCH_fastpath"]["path"] == "BENCH_fastpath.json"
    assert uploads["BENCH_fastpath"].get("if-no-files-found") == "error"


def test_bench_artifacts_are_checked(workflow):
    """Every job that produces BENCH_*.json must run ``repro bench
    check`` over what it produced, so a schema or invariant break fails
    the producing job directly."""
    bench = _steps_text(workflow["jobs"]["bench"])
    assert "repro bench check" in bench
    for artifact in (
        "BENCH_throughput.json",
        "BENCH_throughput-vectorized.json",
        "BENCH_throughput-processes.json",
        "BENCH_throughput-arrayapi.json",
    ):
        assert artifact in bench
    serve = _steps_text(workflow["jobs"]["serve-smoke"])
    assert "repro bench check" in serve
    assert "BENCH_serving.json" in serve
    assert "BENCH_serving-loadtest.json" in serve
    assert "BENCH_log_overhead.json" in serve


def test_serve_smoke_always_drains_the_server(workflow):
    """The CLI round trip must SIGTERM + wait the server even when the
    loadtest fails, then fail the step on the loadtest's own status —
    otherwise a failing loadtest leaks the background server."""
    job = workflow["jobs"]["serve-smoke"]
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "repro loadtest" in str(step.get("run", ""))
    )
    assert "|| STATUS=$?" in script
    assert "kill -TERM" in script
    assert "wait" in script
    assert 'exit "$STATUS"' in script
    # the drain must come after the status capture, never before
    assert script.index("|| STATUS=$?") < script.index("kill -TERM")


def test_pip_caching(workflow):
    for name in (
        "lint", "test", "test-vectorized", "test-arrayapi",
        "test-fastpath", "bench", "serve-smoke",
    ):
        setup = next(
            step
            for step in workflow["jobs"][name]["steps"]
            if "setup-python" in str(step.get("uses", ""))
        )
        assert setup["with"]["cache"] == "pip", f"{name}: pip cache not enabled"


def test_bench_job_smoke_and_artifact(workflow):
    job = workflow["jobs"]["bench"]
    text = _steps_text(job)
    assert "REPRO_BENCH_SMOKE=1" in text
    assert "benchmarks/test_throughput_engine.py" in text
    # the smoke bench runs once per backend, and each run's artifact is
    # uploaded under a backend-tagged name
    assert "REPRO_BACKEND=vectorized" in text
    assert "REPRO_BENCH_OUTPUT=BENCH_throughput-vectorized.json" in text
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    assert uploads["BENCH_throughput-reference"]["path"] == "BENCH_throughput.json"
    assert (
        uploads["BENCH_throughput-vectorized"]["path"]
        == "BENCH_throughput-vectorized.json"
    )
    # the process-sharding smoke run uploads its own mode-tagged artifact
    assert "REPRO_BENCH_MODE=processes" in text
    assert "REPRO_BENCH_OUTPUT=BENCH_throughput-processes.json" in text
    assert (
        uploads["BENCH_throughput-processes"]["path"]
        == "BENCH_throughput-processes.json"
    )
    # the arrayapi smoke drives the CLI directly, exercising the
    # --backend/--device surface and the schema-v4 provenance fields
    assert "--backend arrayapi" in text
    assert "--device list" in text
    assert (
        uploads["BENCH_throughput-arrayapi"]["path"]
        == "BENCH_throughput-arrayapi.json"
    )
    for name in (
        "BENCH_throughput-reference",
        "BENCH_throughput-vectorized",
        "BENCH_throughput-processes",
        "BENCH_throughput-arrayapi",
    ):
        assert uploads[name].get("if-no-files-found") == "error"


def test_serve_smoke_job(workflow):
    """The serving stack must be exercised end to end in CI: the serve
    test suite, the smoke-mode serving benchmark, and a real
    ``repro serve`` process driven by ``repro loadtest`` then drained
    with SIGTERM."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "tests/serve" in text
    assert "REPRO_BENCH_SMOKE=1" in text
    assert "benchmarks/test_serving.py" in text
    assert "repro serve" in text
    assert "repro loadtest" in text
    assert "kill -TERM" in text, "the CLI round trip must drain via SIGTERM"
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    serving = uploads["BENCH_serving"]
    assert "BENCH_serving.json" in str(serving["path"])
    assert "BENCH_serving-loadtest.json" in str(serving["path"])
    assert "BENCH_log_overhead.json" in str(serving["path"])
    assert serving.get("if-no-files-found") == "error"


def test_serve_smoke_observability(workflow):
    """The CLI round trip must exercise the observability surface: JSON
    structured logs captured to a file, a ``/debug/flight`` dump fetched
    before the drain, exactly-once request accounting checked by grepping
    the log, the log-overhead bench validated, and the log + flight dump
    published as artifacts."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "benchmarks/test_log_overhead.py" in text
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "repro loadtest" in str(step.get("run", ""))
    )
    assert "--log-format json" in script
    assert "2> serve.log" in script
    # flight dump comes from the live server, before the SIGTERM drain
    assert "/debug/flight" in script
    assert script.index("/debug/flight") < script.index("kill -TERM")
    # exactly-once accounting: requests logged == requests sent
    assert "--requests 24" in script
    assert 'grep -c \'"event": "request"\' serve.log' in script
    assert '-ne 24' in script
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    obs = uploads["serve-observability"]
    assert "serve.log" in str(obs["path"])
    assert "FLIGHT_serve-smoke.json" in str(obs["path"])
    assert obs.get("if-no-files-found") == "error"


def test_serve_smoke_hot_swap(workflow):
    """The serve-smoke job must exercise the zero-downtime hot-swap end
    to end against a real ``repro serve`` process: pre-train both zoo
    models (so the swap window is load-warm-flip, never a bootstrap run),
    swap quick -> quick_baseline mid-loadtest via POST /v1/models/swap,
    verify the flip in /stats, and publish + validate BENCH_swap.json."""
    job = workflow["jobs"]["serve-smoke"]
    text = _steps_text(job)
    assert "repro train --recipe quick" in text
    assert "repro train --recipe quick_baseline" in text
    assert "repro bench swap" in text
    script = next(
        str(step.get("run", ""))
        for step in job["steps"]
        if "/v1/models/swap" in str(step.get("run", ""))
    )
    assert "--model quick" in script
    assert '"model": "quick_baseline"' in script
    # the swap fires while the loadtest is in flight, and the server is
    # always drained afterwards regardless of the verdict
    assert script.index("repro loadtest") < script.index("/v1/models/swap")
    assert script.index("/v1/models/swap") < script.index("kill -TERM")
    assert 'exit "$STATUS"' in script
    # the flip + zero-failure gate reads /stats and the loadtest artifact
    assert "/stats" in script
    assert "quick_baseline@" in script
    assert 'load["errors"] == 0' in script
    # BENCH_swap.json goes through the same bench-check + upload path as
    # every other serving artifact
    assert "BENCH_swap.json" in _steps_text(job)
    uploads = {
        step["with"]["name"]: step["with"]
        for step in job["steps"]
        if "upload-artifact" in str(step.get("uses", ""))
    }
    assert "BENCH_swap.json" in str(uploads["BENCH_serving"]["path"])
    assert "swap-serve.log" in str(uploads["serve-observability"]["path"])


def test_bench_job_records_and_uploads_trace(workflow):
    """The bench smoke job must run ``repro trace`` and upload its output."""
    job = workflow["jobs"]["bench"]
    trace_step = next(
        (step for step in job["steps"] if "repro trace" in str(step.get("run", ""))),
        None,
    )
    assert trace_step is not None, "no 'repro trace' step in the bench job"
    assert "TRACE_engine.json" in trace_step["run"]
    uploads = [
        step for step in job["steps"] if "upload-artifact" in str(step.get("uses", ""))
    ]
    trace_upload = next(
        (step for step in uploads if "TRACE_engine.json" in str(step["with"]["path"])),
        None,
    )
    assert trace_upload is not None, "trace output is not uploaded as an artifact"
    assert "TRACE_metrics.json" in str(trace_upload["with"]["path"])
    assert trace_upload["with"].get("if-no-files-found") == "error"
