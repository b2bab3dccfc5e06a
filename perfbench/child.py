"""Child-process entry points of the benchmark.

``python3 perfbench/child.py <command>`` with the scrubbed environment
set up by :func:`common.scrubbed_env`:

* ``prepare`` — train any missing ``paper``/``quick`` zoo model (untimed);
* ``probe-video`` / ``probe-train <cache>`` — one set-up, then print
  ``ready``;
* ``train <cache> [--trace]`` — print ``ready`` once a fresh store
  exists, train the ``quick`` recipe into it, print a JSON result;
* ``serve-traced <totals.json> <repro serve args...>`` — run ``repro
  serve`` with the detection layers wrapped.  Tracing starts off;
  SIGUSR1 toggles it.  The totals are written when the server drains.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from pathlib import Path

from common import adopt_env


def prepare() -> None:
    from repro.zoo import load_or_train

    for name in ("quick", "paper"):
        start = time.perf_counter()
        _, manifest = load_or_train(name, seed=0)
        print(
            f"perfbench: zoo {name}@{manifest.version} ready "
            f"({time.perf_counter() - start:.1f}s)",
            file=sys.stderr,
        )
    print("done", flush=True)


def fresh_store(cache: str):
    """The train-quick set-up: a throwaway store under its own cache dir."""
    os.environ["REPRO_CACHE_DIR"] = cache
    from repro.zoo.store import ModelStore

    return ModelStore(Path(cache) / "zoo")


def train(cache: str, traced: bool) -> None:
    from layers import LayerTrace, install_training

    trace = LayerTrace(enabled=traced)
    if traced:
        install_training(trace)
    store = fresh_store(cache)
    print("ready", flush=True)

    from repro.zoo import train_model

    start = time.perf_counter()
    cascade, manifest = train_model("quick", seed=0, store=store)
    train_s = time.perf_counter() - start
    trace.restore()
    print(
        json.dumps(
            {
                "train_s": train_s,
                "content_digest": manifest.content_digest,
                "source": manifest.source,
                "rounds": sum(len(s.classifiers) for s in cascade.stages),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "totals": trace.totals() if traced else None,
            }
        ),
        flush=True,
    )


def serve_traced(totals_path: str, argv: list[str]) -> int:
    from layers import LayerTrace, install_detection
    from repro.cli import main

    trace = LayerTrace(enabled=False)
    install_detection(trace)

    def toggle(signum, frame) -> None:
        trace.enabled = not trace.enabled

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return main(argv)
    finally:
        trace.restore()
        Path(totals_path).write_text(json.dumps(trace.totals()))


def main(argv: list[str]) -> int:
    adopt_env()
    command, rest = argv[0], argv[1:]
    if command == "prepare":
        prepare()
    elif command == "probe-video":
        from wl_video import probe

        probe()
    elif command == "probe-train":
        fresh_store(rest[0])
        print("ready", flush=True)
    elif command == "train":
        train(rest[0], "--trace" in rest[1:])
    elif command == "serve-traced":
        return serve_traced(rest[0], rest[1:])
    else:
        print(f"perfbench child: unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
