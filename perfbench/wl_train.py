"""``train-quick``: the ``quick`` recipe trained from scratch, seed 0.

The only workload for ``boosting``, ``data`` and ``zoo.publish``.  Every
training runs in its own child process with a fresh ``ModelStore``
under a throwaway ``REPRO_CACHE_DIR``, so no checkpoint resume, legacy
blob adoption or in-process cache can shorten it.  The trained cascade's
content digest must equal the recipe's known seed-0 digest.

A training cannot be cut short, so a run starts another while at least
half of one still fits the window.  The recipe and its seed are fixed
(the digest check needs a known answer); ``--seed`` changes nothing a
training computes.

A host-speed sample (see ``hostspeed.py``) is taken before the set-up
probes and after them and after every training, while no child runs;
each timing is scaled by the host speed measured around it.
"""

from __future__ import annotations

import json
import time

from common import (
    CHILD,
    HERE,
    BenchError,
    median,
    metric,
    ratio,
    read_line,
    remove_tree,
    scratch_dir,
    start_child,
    stop_child,
    timed_setup,
)
from hostspeed import HostSpeed

#: extra set-up-only probes per run (each training's own set-up counts too)
SETUP_PROBES = 2
TRAIN_TIMEOUT_S = 150.0


def expected_digest() -> str:
    return json.loads((HERE / "expected.json").read_text())["train-quick"]["content_digest"]


def _train_once(traced: bool) -> tuple[float, dict]:
    """One training child: returns ``(setup_s, result)``."""
    cache = scratch_dir("train-")
    try:
        args = [str(CHILD), "train", str(cache)] + (["--trace"] if traced else [])
        start = time.perf_counter()
        proc = start_child(args)
        try:
            if read_line(proc, 60.0) != "ready":
                raise BenchError("training child did not report ready")
            setup_s = time.perf_counter() - start
            result = json.loads(read_line(proc, TRAIN_TIMEOUT_S))
        finally:
            code = stop_child(proc)
        if code != 0:
            raise BenchError(f"training child exited with {code}")
        return setup_s, result
    finally:
        remove_tree(cache)


def _probe() -> float:
    cache = scratch_dir("probe-")
    try:
        return timed_setup([str(CHILD), "probe-train", str(cache)])
    finally:
        remove_tree(cache)


def run(seed: int, seconds: float, traced: bool) -> dict:
    expected = expected_digest()
    results: list[dict] = []
    setups: list[float] = []  # at reference host speed
    speed = HostSpeed()
    if traced:
        # one untraced and one traced training: the traced one gives the
        # layers, the pair gives the tracing overhead
        results = [_train_once(flag)[1] for flag in (False, True)]
    else:
        speed.sample()
        began = time.perf_counter()
        probes = [_probe() for _ in range(SETUP_PROBES)]
        ended = time.perf_counter()
        speed.sample()
        setups = [p / speed.around(began, ended) for p in probes]
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            setup_s, result = _train_once(False)
            ended = time.perf_counter()
            speed.sample()
            factor = speed.around(began, ended)
            setups.append(setup_s / factor)
            result["train_ref_s"] = result["train_s"] / factor
            results.append(result)
            elapsed = time.perf_counter() - start
            # a training cannot be cut short: start another only while at
            # least half of one more still fits the window
            if elapsed + (ended - began) / 2 > seconds:
                break

    digests = [r["content_digest"] for r in results]
    wrong = [d for d in digests if d != expected]
    fresh = all(r["source"] == "trained" for r in results)
    correct = not wrong and fresh and len(results) >= 1
    lines = [
        f"train-quick: {len(results)} trainings, digests match: {not wrong}, "
        f"all trained from scratch: {fresh}",
        f"train_s samples (as measured): {[round(r['train_s'], 3) for r in results]}",
    ]
    rounds = results[0]["rounds"]
    if not traced:
        train_ms = median([1e3 * r["train_ref_s"] for r in results])
        lines += [
            f"setup samples (s, reference speed): {[round(s, 4) for s in setups]}",
            f"host slow-down factors: {[round(f, 3) for f in speed.factors()]}",
        ]
        metrics = {
            "setup_s": metric(median(setups), "s"),
            "throughput_per_s": metric(rounds / train_ms * 1e3, "1/s"),
            # one sample per training: both percentiles are the median
            "latency_p50_ms": metric(train_ms, "ms"),
            "latency_p80_ms": metric(train_ms, "ms"),
            "peak_rss_mb": metric(max(r["peak_rss_mb"] for r in results), "MB"),
        }
    else:
        untraced, traced_run = results
        if traced_run["totals"]["missing"]:
            missing = traced_run["totals"]["missing"]
            lines.append(f"entry points not found, so not traced: {missing}")
        metrics = training_layers(traced_run["totals"], traced_run["train_s"])
        metrics["trace.overhead_ratio"] = metric(
            traced_run["train_s"] / untraced["train_s"] - 1.0, "ratio"
        )
    return {
        "correct": correct,
        "attempted": len(results),
        "failed": len(wrong),
        "metrics": metrics,
        "lines": lines,
    }


def training_layers(totals: dict, train_s: float) -> dict:
    """Training-layer metrics from the traced child's :meth:`LayerTrace.totals`."""
    busy, calls, counts = totals["busy"], totals["calls"], totals["counts"]
    covered = totals["root_busy"]

    def seconds(layer: str) -> float:
        return busy.get(layer, 0.0)

    values = {
        "boosting.fit_s": (seconds("boosting.fit"), "s"),
        "boosting.responses_s": (seconds("boosting.responses"), "s"),
        "boosting.stumps_s": (seconds("boosting.stumps"), "s"),
        "boosting.rounds": (counts.get("boosting.rounds", 0), "count"),
        "boosting.bootstrap_s": (seconds("boosting.bootstrap"), "s"),
        "boosting.bootstrap_eval_s": (seconds("boosting.bootstrap_eval"), "s"),
        "boosting.negatives_s": (seconds("boosting.negatives"), "s"),
        "boosting.negative_yield_ratio": (
            ratio(counts.get("boosting.hard_negatives", 0), counts.get("boosting.candidates", 0)),
            "ratio",
        ),
        "boosting.self_s": (max(0.0, train_s - covered), "s"),
        "data.faces_s": (seconds("data.faces"), "s"),
        "haar.pool_s": (seconds("haar.pool"), "s"),
        "zoo.evaluate_s": (seconds("zoo.evaluate"), "s"),
        "zoo.checkpoint_s": (seconds("zoo.checkpoint"), "s"),
        "zoo.publish_ms": (1e3 * ratio(seconds("zoo.publish"), calls.get("zoo.publish", 0)), "ms"),
        "trace.coverage_ratio": (ratio(covered, train_s), "ratio"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}
