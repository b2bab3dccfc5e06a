"""Soft cascades (Bourdev & Brandt 2005) — the paper's stated future work.

Section VII: "we plan to ... further improve the accuracy of our feature
set with soft cascades".  A soft cascade abandons discrete stages: the
boosted classifiers form one monotone chain and a window is rejected as
soon as its *running score* falls below a per-classifier rejection trace
``r_t``.  Compared to the staged cascade this gives a much finer
early-exit granularity (a window can die after any weak classifier, not
only at stage boundaries) at the cost of one threshold comparison per
classifier.

This module provides:

* :class:`SoftCascade` — the chain + rejection trace container (JSON
  round-trip like :class:`~repro.haar.cascade.Cascade`);
* :func:`calibrate_soft_cascade` — Bourdev-Brandt style calibration: flatten
  a trained staged cascade and fit the rejection trace on a calibration set
  so that at most ``miss_budget`` of the faces are lost across the whole
  chain;
* :func:`evaluate_soft_cascade_on_windows` — the training-side oracle
  (the detection kernel equivalent lives in
  :mod:`repro.detect.soft_kernel`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.boosting.dataset import pack_windows
from repro.boosting.responses import compute_responses
from repro.errors import CascadeFormatError, TrainingError
from repro.haar.cascade import Cascade, WeakClassifier

__all__ = [
    "SoftCascade",
    "calibrate_soft_cascade",
    "evaluate_soft_cascade_on_windows",
]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SoftCascade:
    """A monotone classifier chain with a per-classifier rejection trace."""

    classifiers: tuple[WeakClassifier, ...]
    rejection_trace: tuple[float, ...]
    name: str = "soft-cascade"
    window: int = 24
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.classifiers:
            raise CascadeFormatError("a soft cascade needs at least one classifier")
        if len(self.rejection_trace) != len(self.classifiers):
            raise CascadeFormatError(
                f"rejection trace length {len(self.rejection_trace)} does not match "
                f"{len(self.classifiers)} classifiers"
            )

    @property
    def length(self) -> int:
        return len(self.classifiers)

    def to_dict(self) -> dict:
        return {
            "format_version": _FORMAT_VERSION,
            "name": self.name,
            "window": self.window,
            "meta": self.meta,
            "rejection_trace": list(self.rejection_trace),
            "classifiers": [c.to_dict() for c in self.classifiers],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SoftCascade":
        try:
            if data["format_version"] != _FORMAT_VERSION:
                raise CascadeFormatError(
                    f"unsupported soft-cascade format {data['format_version']}"
                )
            classifiers = tuple(map(WeakClassifier.from_dict, data["classifiers"]))
            return cls(
                classifiers=classifiers,
                rejection_trace=tuple(float(v) for v in data["rejection_trace"]),
                name=str(data.get("name", "soft-cascade")),
                window=int(data.get("window", 24)),
                meta=dict(data.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CascadeFormatError(f"malformed soft cascade: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "SoftCascade":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise CascadeFormatError(f"soft cascade file {path} is not valid JSON") from exc


def _running_scores(classifiers, data: np.ndarray) -> np.ndarray:
    """(T, N) cumulative chain scores of packed windows."""
    responses = compute_responses([c.feature for c in classifiers], data)
    outputs = np.empty_like(responses)
    for t, c in enumerate(classifiers):
        outputs[t] = np.where(responses[t] <= c.threshold, c.left, c.right)
    return np.cumsum(outputs, axis=0)


def calibrate_soft_cascade(
    cascade: Cascade,
    calibration_faces: np.ndarray,
    *,
    miss_budget: float = 0.02,
    margin: float = 1e-6,
    name: str | None = None,
) -> SoftCascade:
    """Flatten ``cascade`` and fit the Bourdev-Brandt rejection trace.

    The miss budget is spread over the chain with the classic "spend more
    where it is cheap" schedule: position ``t`` may cumulatively lose at
    most ``miss_budget * (t + 1) / T`` of the calibration faces, and the
    trace at ``t`` is the corresponding order statistic of the faces'
    running scores (minus a small ``margin`` so calibration faces
    themselves survive ties).
    """
    if not (0.0 <= miss_budget < 0.5):
        raise TrainingError(f"miss_budget must be in [0, 0.5), got {miss_budget}")
    faces = np.asarray(calibration_faces, dtype=np.float64)
    if faces.ndim != 3 or len(faces) < 4:
        raise TrainingError("need at least four calibration face windows")
    classifiers = tuple(c for s in cascade.stages for c in s.classifiers)
    data, _ = pack_windows(faces)
    scores = _running_scores(classifiers, data)  # (T, N)

    n = scores.shape[1]
    total = len(classifiers)
    alive = np.ones(n, dtype=bool)
    trace = []
    lost = 0
    for t in range(total):
        allowed = int(np.floor(miss_budget * (t + 1) / total * n))
        budget_now = max(0, allowed - lost)
        alive_scores = np.sort(scores[t, alive])
        k = min(budget_now, alive_scores.size - 1)
        threshold = float(alive_scores[k]) - margin
        trace.append(threshold)
        newly_dead = alive & (scores[t] < threshold)
        lost += int(newly_dead.sum())
        alive &= ~newly_dead
    return SoftCascade(
        classifiers=classifiers,
        rejection_trace=tuple(trace),
        name=name or f"{cascade.name}#soft",
        window=cascade.window,
        meta={"source": cascade.name, "miss_budget": miss_budget},
    )


def evaluate_soft_cascade_on_windows(
    soft: SoftCascade, windows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Run a soft cascade over ``(N, 24, 24)`` windows.

    Returns ``(exit_position, final_scores)``: ``exit_position[i]`` is the
    number of weak classifiers evaluated before rejection
    (== ``soft.length`` for accepted windows); ``final_scores[i]`` the
    running score at exit.
    """
    data, _ = pack_windows(np.asarray(windows, dtype=np.float64))
    scores = _running_scores(soft.classifiers, data)
    trace = np.array(soft.rejection_trace)[:, np.newaxis]
    below = scores < trace  # (T, N)
    first_exit = np.argmax(below, axis=0)
    never = ~below.any(axis=0)
    exit_pos = np.where(never, soft.length, first_exit + 1)
    final = scores[np.minimum(exit_pos - 1, soft.length - 1), np.arange(scores.shape[1])]
    return exit_pos.astype(np.int64), final
