"""Wall-clock serving benchmark: micro-batched vs unbatched requests.

Drives :func:`~repro.experiments.serving.run_serving` — a live
:class:`~repro.serve.server.DetectionServer` on loopback, closed-loop
clients at fixed concurrency — and asserts the serving tentpole: the
micro-batcher coalescing concurrent requests into engine batches
sustains >= 1.3x the OK-requests/second of the same server degenerated
to one frame per dispatch, with every HTTP response byte-identical to a
direct pipeline call.  Writes the ``BENCH_serving.json`` artifact that
CI uploads.

Knobs (environment variables, the CI jobs set them):

* ``REPRO_BENCH_SMOKE=1`` — shrink the workload and skip the rps-ratio
  gate; shared CI runners do not provide stable enough wall clocks for
  a ratio gate, so smoke mode checks the machinery (identity, artifact
  schema, admission/batcher accounting) and leaves the perf gate to the
  full local run.
* ``REPRO_BENCH_OUTPUT`` — artifact path (default ``BENCH_serving.json``).
"""

import json
import os

import pytest

from repro.experiments import harness
from repro.experiments.serving import BENCH_SERVING_SCHEMA_VERSION, run_serving

pytestmark = pytest.mark.bench


def test_serving_batched_vs_unbatched(report):
    smoke = harness.smoke()
    result = run_serving(
        requests=24 if smoke else 96,
        concurrency=4 if smoke else 8,
        width=96,
        height=96,
        frames=4 if smoke else 6,
        cascade="quick",
        max_batch=8,
        max_delay_s=0.004,
    )
    report(result.format_table())

    path = result.write_json(harness.artifact_path("BENCH_serving.json"))
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "serving"
    assert payload["schema_version"] == BENCH_SERVING_SCHEMA_VERSION

    # provenance: serving trajectory points must be comparable across
    # PRs and separable by backend / sharding mode
    prov = payload["provenance"]
    assert {
        "git_sha", "timestamp_utc", "python", "numpy", "platform", "cpu_count"
    } <= set(prov)
    assert prov["backend"] == result.backend
    assert prov["mode"] == result.sharding

    workload = payload["workload"]
    assert workload["requests"] == result.requests
    assert workload["concurrency"] == result.concurrency
    assert workload["max_batch"] == result.max_batch

    # both runs completed every request: nothing hung, nothing 500'd
    for name in ("batched", "unbatched"):
        run = payload["runs"][name]
        assert run["errors"] == 0
        assert set(run["status_counts"]) <= {"200", "429"}, (
            f"{name} run produced non-2xx/429 statuses: {run['status_counts']}"
        )
        assert run["status_counts"]["200"] >= 1
        lat = run["latency"]
        assert 0 < lat["p50_s"] <= lat["p95_s"] <= lat["max_s"]
        server = run["server"]
        assert server["admission"]["admitted"] >= run["status_counts"]["200"]
        assert server["state"] == "ready"

    # the batched server really batched; the unbatched one really didn't
    assert payload["runs"]["batched"]["server"]["batcher"]["max_batch"] == 8
    assert payload["runs"]["unbatched"]["server"]["batcher"]["max_batch"] == 1

    # headline numbers the bench trajectory tracks
    assert payload["fps"] == result.fps > 0
    assert payload["latency"]["p50_s"] > 0
    assert payload["latency"]["p95_s"] >= payload["latency"]["p50_s"]
    assert payload["speedup"] == result.speedup > 0

    # the serving contract is non-negotiable in every mode: responses
    # must match a direct FaceDetectionPipeline call byte for byte
    assert result.identical_responses, (
        "served responses differ from the direct pipeline"
    )
    assert payload["identical_responses"] is True

    # the rps-ratio gate is meaningful only where the cores exist: with
    # one core the engine cannot overlap batch members, so batching only
    # amortises the executor hop (~50us against a multi-ms frame) and
    # the ratio is noise around 1.0.  A >= 2-core host gives the
    # batcher real parallelism to expose.
    if not smoke and (os.cpu_count() or 1) >= 2:
        assert result.speedup >= 1.3, (
            f"micro-batched serving reached only {result.speedup:.2f}x "
            f"unbatched rps (batched {result.batched.rps:.2f} rps, "
            f"unbatched {result.unbatched.rps:.2f} rps) at "
            f"concurrency {result.concurrency} on this host"
        )
