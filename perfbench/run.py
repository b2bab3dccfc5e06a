"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--workload all`` runs the three in turn and fails if any of them does.

Workloads (see README.md for what each should and should not move):

* ``video-paper-480`` — decoded Table II trailers, paper cascade, engine;
* ``serve-quick-160`` — ``repro serve`` under open- and closed-loop HTTP load;
* ``train-quick`` — the ``quick`` recipe trained from scratch.

With ``--trace 0`` the last stdout line is a JSON object carrying every
end-to-end metric declared in ``BENCHMARK.json``; with ``--trace 1`` it
carries every per-layer metric, measured by wrapping the program's layer
entry points from outside.
Every timing is scaled to reference host speed by a calibration kernel
timed around each stretch of work (``hostspeed.py``); the raw figures are
printed above the result line.
Runs whose outputs are wrong, or whose request/frame accounting does
not balance, print ``"correct": false`` and exit 1.

Before the first run in a checkout the ``paper`` and ``quick`` models
are trained once into ``.bench_build/repro-cache`` (a few minutes,
untimed); later runs load them warm.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import CACHE, CHILD, ROOT, BenchError, adopt_env, require_program, run_child

WORKLOADS = ("video-paper-480", "serve-quick-160", "train-quick")


def prepare_zoo() -> None:
    """Train any missing ``paper``/``quick`` model once, before timing."""
    from repro.zoo import ModelStore, recipe_for

    store = ModelStore(CACHE / "zoo")
    missing = [m for m in ("paper", "quick") if not store.has(m, recipe_for(m).version(0))]
    if missing:
        print(f"perfbench: training {missing} into {CACHE} (one-off)", file=sys.stderr)
        run_child([str(CHILD), "prepare"], timeout_s=840.0)


def provenance(engine: dict | None) -> dict:
    from repro.backend.registry import default_backend_name
    from repro.utils.provenance import git_sha

    return {
        "backend": (engine or {}).get("backend", default_backend_name()),
        "engine_workers": (engine or {}).get("workers"),
        "sharding": (engine or {}).get("sharding"),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def complete(metrics: dict, catalogue: dict[str, str]) -> dict:
    """Every catalogued metric, in catalogue order; absent layers read 0.

    A layer a workload never enters (boosting under video, serve under
    training) reports 0 — that is the prediction "no change" made
    visible.  Unknown names or units are a bug in the benchmark.
    """
    unknown = {k for k in metrics if k not in catalogue}
    wrong_units = {k for k, v in metrics.items() if k in catalogue and v["unit"] != catalogue[k]}
    if unknown or wrong_units:
        raise BenchError(f"uncatalogued metrics {sorted(unknown)} / units {sorted(wrong_units)}")
    return {
        name: metrics.get(name, {"value": 0.0, "unit": unit})
        for name, unit in catalogue.items()
    }


def run_all(argv: list[str]) -> int:
    """``--workload all``: every workload in its own process, in turn.

    Each prints its metrics and result line as usual; the exit code is
    the worst of theirs, so one failed check fails the whole command.
    """
    codes = []
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        child = subprocess.run([sys.executable, __file__, "--workload", name, *argv])
        codes.append(child.returncode)
    return max(codes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(
            ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        )

    try:
        require_program()
        adopt_env()
        prepare_zoo()
        if args.workload == "video-paper-480":
            import wl_video as workload
        elif args.workload == "serve-quick-160":
            import wl_serve as workload
        else:
            import wl_train as workload
        started = time.perf_counter()
        result = workload.run(args.seed, args.seconds, bool(args.trace))
        wall = time.perf_counter() - started
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        section = declared["per_layer" if args.trace else "end_to_end"]
        metrics = complete(result["metrics"], {m["name"]: m["unit"] for m in section})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    for line in result["lines"]:
        print(line)
    print(f"provenance: {json.dumps(provenance(result.get('engine')))}")
    print(f"run wall time: {wall:.1f}s")
    if args.trace:
        print(
            "note: layer times are busy time summed over threads; with the "
            "video engine's 2 workers they can add up to more than wall time"
        )
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
