"""Bench mechanics shared by every ``BENCH_*.json`` driver.

The wall-clock drivers (:mod:`~repro.experiments.throughput`,
:mod:`~repro.experiments.fastpath`, :mod:`~repro.experiments.devicebatch`)
compare several execution paths over the same frames.  Single shared-core
boxes are noisy, so they all follow one methodology, implemented here:

* every path is warmed before timing, outside the timed region;
* :func:`time_rounds` alternates the paths within each round, so drift
  hits all of them equally; ``warmup`` initial rounds are recorded but
  excluded from scoring;
* each path scores the **median** of its timed rounds with the IQR as
  the spread estimate (:class:`ModeTiming`), and the artifact keeps
  every raw round so regressions in variance stay visible.

Every artifact — those three plus :mod:`~repro.experiments.serving` and
:mod:`~repro.experiments.swap` — opens with the same header
(:func:`artifact_header`: experiment tag, schema version, provenance) and
is written by :meth:`BenchArtifact.write_json`.  :func:`smoke` and
:func:`artifact_path` read the ``REPRO_BENCH_SMOKE`` /
``REPRO_BENCH_OUTPUT`` contract the CI bench steps set.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar, TypeVar

from repro.detect.engine import DetectionEngine
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import build_snapshot
from repro.obs.tracer import Tracer
from repro.utils.provenance import provenance
from repro.zoo import check_cascade

__all__ = [
    "ModeTiming",
    "BenchArtifact",
    "Comparison",
    "artifact_header",
    "artifact_path",
    "check_inputs",
    "identical",
    "instrumented_pass",
    "smoke",
    "time_rounds",
    "write_artifact",
]

Key = TypeVar("Key")


@dataclass
class ModeTiming:
    """Timed rounds of one execution path, median/IQR scored."""

    rounds: list[float] = field(default_factory=list)
    warmup_rounds: list[float] = field(default_factory=list)
    #: what the path returned in its final round
    last: object = field(default=None, repr=False, compare=False)

    @property
    def median_s(self) -> float:
        return statistics.median(self.rounds) if self.rounds else 0.0

    @property
    def iqr_s(self) -> float:
        """Interquartile range of the timed rounds (inclusive quartiles;
        0.0 with fewer than two rounds)."""
        if len(self.rounds) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.rounds, n=4, method="inclusive")
        return q3 - q1

    def fps(self, frames: int) -> float:
        median = self.median_s
        return frames / median if median > 0 else 0.0

    def to_dict(self, frames: int) -> dict:
        return {
            "rounds_s": list(self.rounds),
            "warmup_rounds_s": list(self.warmup_rounds),
            "median_s": self.median_s,
            "iqr_s": self.iqr_s,
            "fps": self.fps(frames),
        }


def time_rounds(
    paths: dict[Key, Callable[[], object]], *, trials: int, warmup: int
) -> dict[Key, ModeTiming]:
    """Time ``warmup + trials`` rounds of every path, alternating them.

    Each round runs the paths in ``paths`` order; the first ``warmup``
    rounds land in ``warmup_rounds``.  A path must finish its work
    before returning (materialise generators inside it).
    """
    timings = {name: ModeTiming() for name in paths}
    for round_index in range(warmup + trials):
        for name, run in paths.items():
            timing = timings[name]
            start = time.perf_counter()
            timing.last = run()
            elapsed = time.perf_counter() - start
            scored = round_index >= warmup
            (timing.rounds if scored else timing.warmup_rounds).append(elapsed)
    return timings


def _detection_key(result) -> tuple:
    """A frame's raw detections, exactly: position, size and score."""
    return tuple((d.x, d.y, d.size, d.score) for d in result.raw_detections)


def identical(reference: list, candidate: list) -> bool:
    """Byte identity of two runs' per-frame detections."""
    return len(reference) == len(candidate) and all(
        _detection_key(r) == _detection_key(c) for r, c in zip(reference, candidate)
    )


def check_inputs(*, frames: int, trials: int, warmup: int, cascade: str) -> None:
    """The workload checks every timed driver shares."""
    if frames <= 0:
        raise ConfigurationError("frames must be positive")
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    if warmup < 0:
        raise ConfigurationError("warmup must be >= 0")
    check_cascade(cascade)


def artifact_header(
    experiment: str,
    schema_version: int,
    *,
    backend: str | None = None,
    mode: str | None = None,
) -> dict:
    """The keys every ``BENCH_*.json`` artifact opens with."""
    return {
        "experiment": experiment,
        "schema_version": schema_version,
        "provenance": provenance(backend=backend, mode=mode),
    }


def write_artifact(path: str | Path, payload: dict) -> Path:
    """Write one JSON artifact; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


class BenchArtifact:
    """A bench result whose ``to_dict()`` is its ``BENCH_*.json`` payload.

    Subclasses name their ``experiment`` tag and ``schema_version`` and
    open ``to_dict()`` with :meth:`header`.
    """

    experiment: ClassVar[str]
    schema_version: ClassVar[int]

    def header(self, *, backend: str | None = None, mode: str | None = None) -> dict:
        return artifact_header(
            self.experiment, self.schema_version, backend=backend, mode=mode
        )

    def write_json(self, path: str | Path) -> Path:
        """Write the JSON artifact; returns the path."""
        return write_artifact(path, self.to_dict())


class Comparison(BenchArtifact):
    """A bench result that times several paths against a ``baseline`` one.

    Subclasses hold ``timings``: path name -> :class:`ModeTiming`, in
    the order :func:`time_rounds` ran them.
    """

    baseline: ClassVar[object]
    timings: dict

    def speedup_of(self, path) -> float:
        """Baseline median wall clock over ``path``'s."""
        median = self.timings[path].median_s
        return self.timings[self.baseline].median_s / median if median > 0 else 0.0

    def paths_dict(self, frames: int) -> dict:
        """Every path's rounds and scores; the others add their ``speedup``."""
        out = {}
        for path, timing in self.timings.items():
            out[str(path)] = timing.to_dict(frames)
            if path != self.baseline:
                out[str(path)]["speedup"] = self.speedup_of(path)
        return out

    def path_rows(self, labels: dict, frames: int) -> list[list]:
        """Table rows per labelled path: median s, IQR s, fps, speedup."""
        return [
            [
                label,
                round(self.timings[path].median_s, 3),
                round(self.timings[path].iqr_s, 3),
                round(self.timings[path].fps(frames), 2),
                round(self.speedup_of(path), 2),
            ]
            for path, label in labels.items()
        ]


def instrumented_pass(pipeline, lumas: list, **engine_kwargs) -> tuple[list, dict]:
    """One traced and metered engine pass over ``lumas``, run after the
    timed rounds so instrumentation never perturbs them.

    Returns the per-frame results and the metrics snapshot.
    """
    tracer = Tracer()
    registry = MetricsRegistry()
    with DetectionEngine(
        pipeline, tracer=tracer, metrics=registry, **engine_kwargs
    ) as engine:
        results = list(engine.process_frames(iter(lumas)))
    return results, build_snapshot(registry, tracer, backend=pipeline.backend.name)


def smoke() -> bool:
    """``REPRO_BENCH_SMOKE=1``: shrink the workload and skip wall-clock gates."""
    return os.environ.get("REPRO_BENCH_SMOKE") == "1"


def artifact_path(default: str) -> Path:
    """``REPRO_BENCH_OUTPUT`` if set, else ``default``."""
    return Path(os.environ.get("REPRO_BENCH_OUTPUT", default))
