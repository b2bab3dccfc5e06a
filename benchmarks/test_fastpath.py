"""Fast-path benchmark: pruning + delta cache vs the exact baseline.

Drives :func:`~repro.experiments.fastpath.run_fastpath` over a synthetic
Table II trailer stream (held-frame pulldown cadence) and asserts the
fast-path tentpole: ``exact`` is byte-identical to the baseline on cold
and warm passes, and ``fast`` sustains >= 1.3x the baseline wall clock
at >= 0.99 recall vs ``exact``.  Writes the ``BENCH_fastpath.json``
artifact that CI uploads.

Knobs (environment variables, the CI jobs set them):

* ``REPRO_BENCH_SMOKE=1`` — shrink the workload and skip the
  speedup/recall gates; shared CI runners do not provide stable enough
  wall clocks for a ratio gate, so smoke mode checks the machinery
  (exact identity, artifact schema, counter accounting) and leaves the
  perf gates to the full local run.
* ``REPRO_BENCH_OUTPUT`` — artifact path (default ``BENCH_fastpath.json``).
"""

import json

import pytest

from repro.experiments import harness
from repro.experiments.fastpath import FASTPATH_BENCH_SCHEMA_VERSION, run_fastpath

pytestmark = pytest.mark.bench


def test_fastpath_speedup(report):
    smoke = harness.smoke()
    result = run_fastpath(
        trailer="50/50",
        frames=12 if smoke else 24,
        width=256 if smoke else 320,
        height=192 if smoke else 240,
        trials=2 if smoke else 3,
        # warmup stays >= 1 even in smoke mode: the first pass builds the
        # plans and populates the temporal caches, and timing it would
        # skew the smoke rounds the accounting assertions read
        warmup=1,
        cascade="quick",
    )
    report(result.format_table())

    path = result.write_json(harness.artifact_path("BENCH_fastpath.json"))
    payload = json.loads(path.read_text())
    assert payload["experiment"] == "fastpath"
    assert payload["schema_version"] == FASTPATH_BENCH_SCHEMA_VERSION

    # provenance: fast-path trajectory points must be comparable across
    # PRs and separable by backend
    prov = payload["provenance"]
    assert {
        "git_sha", "timestamp_utc", "python", "numpy", "platform", "cpu_count"
    } <= set(prov)
    assert prov["backend"] == payload["backend"] == result.backend

    # all three policies are timed every run, median + IQR scored
    policies = payload["policies"]
    for name in ("off", "exact", "fast"):
        stats = policies[name]
        assert len(stats["rounds_s"]) == result.trials
        assert len(stats["warmup_rounds_s"]) == result.warmup
        assert stats["median_s"] > 0
        assert stats["iqr_s"] >= 0
        assert stats["fps"] > 0
    assert policies["exact"]["speedup"] > 0
    assert policies["fast"]["speedup"] > 0
    assert payload["speedup"] == policies["fast"]["speedup"] > 0
    assert payload["speedup_vs_exact"] > 0
    assert payload["hold"] == result.hold

    # exact-mode byte identity is non-negotiable, cold cache and warm
    assert result.identical_exact, (
        f"exact fast path diverged from the baseline: {result.identity}"
    )

    # counter accounting: the delta cache must actually be reusing work
    # on a warm trailer stream (backgrounds are bit-stable within scenes)
    fast_stats = payload["fast_stats"]
    assert fast_stats["anchors"] > 0
    assert fast_stats["anchors_evaluated"] < fast_stats["anchors"]
    assert fast_stats["anchors_carried"] > 0
    # held frames are bit-identical repeats: whole-frame reuse must fire
    assert fast_stats["frames_reused"] > 0
    assert (
        fast_stats["anchors_evaluated"]
        + fast_stats["anchors_carried"]
        + fast_stats["anchors_pruned"]
        <= fast_stats["anchors"]
    )
    # exact never prunes: every anchor is either evaluated or carried
    # from a bit-identical predecessor
    exact_stats = payload["exact_stats"]
    assert exact_stats["anchors_pruned"] == 0
    assert (
        exact_stats["anchors_evaluated"] + exact_stats["anchors_carried"]
        == exact_stats["anchors"]
    )
    assert 0.0 <= exact_stats["proposal_recall"] <= 1.0

    # the embedded observability snapshot of the instrumented fast pass
    metrics = payload["metrics"]
    assert metrics["counters"]["fastpath.frames"] == result.total_frames
    assert metrics["counters"]["fastpath.anchors"] > 0
    assert "fastpath_evaluated_fraction" in metrics

    # wall-clock gates only where they are meaningful: the full local
    # run, not a shared smoke runner
    if not smoke:
        assert payload["recall"] >= 0.99, (
            f"fast policy recall {payload['recall']:.4f} vs exact"
        )
        assert payload["speedup"] >= 1.3, (
            f"fast policy reached only {payload['speedup']:.2f}x the baseline "
            f"wall clock at recall {payload['recall']:.4f}"
        )
