"""Boosted-cascade containers and serialisation.

A cascade is an ordered list of *stages*; each stage sums the outputs of its
*weak classifiers* (regression stumps over Haar feature responses, the
GentleBoost weak learner) and rejects the window when the sum falls below
the stage threshold.  Both the paper's cascade (25 stages, 1446 weak
classifiers) and the OpenCV baseline (25 stages, 2913) use this container.

Feature responses are variance-normalised per window (the standard
Viola-Jones practice): a stump compares ``f(window) < threshold * sigma``
where ``sigma`` is the window's pixel standard deviation, making thresholds
lighting-invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CascadeFormatError
from repro.haar.features import FeatureType, HaarFeature

__all__ = ["WeakClassifier", "Stage", "Cascade"]

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class WeakClassifier:
    """A regression stump over one Haar feature.

    Output is ``left`` when the (variance-normalised) feature response is
    below ``threshold`` and ``right`` otherwise.  GentleBoost fits ``left``/
    ``right`` as real-valued regression targets; discrete AdaBoost uses
    ``∓alpha``.
    """

    feature: HaarFeature
    threshold: float
    left: float
    right: float

    def to_dict(self) -> dict:
        f = self.feature
        return {
            "type": f.ftype.value,
            "x": f.x,
            "y": f.y,
            "sx": f.sx,
            "sy": f.sy,
            "threshold": self.threshold,
            "left": self.left,
            "right": self.right,
        }

    @classmethod
    def from_dict(cls, c: dict) -> WeakClassifier:
        """Inverse of :meth:`to_dict`."""
        return cls(
            feature=HaarFeature(
                ftype=FeatureType(c["type"]),
                x=int(c["x"]),
                y=int(c["y"]),
                sx=int(c["sx"]),
                sy=int(c["sy"]),
            ),
            threshold=float(c["threshold"]),
            left=float(c["left"]),
            right=float(c["right"]),
        )


@dataclass(frozen=True)
class Stage:
    """One attentional-cascade stage: weak classifiers plus a reject threshold."""

    classifiers: tuple[WeakClassifier, ...]
    threshold: float

    def __post_init__(self) -> None:
        if not self.classifiers:
            raise CascadeFormatError("a stage must contain at least one weak classifier")

    def __len__(self) -> int:
        return len(self.classifiers)


@dataclass(frozen=True)
class Cascade:
    """A boosted cascade of classifiers (the paper's central data structure)."""

    stages: tuple[Stage, ...]
    name: str = "cascade"
    window: int = 24
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.stages:
            raise CascadeFormatError("a cascade must contain at least one stage")
        if self.window <= 0:
            raise CascadeFormatError("window must be positive")

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_weak_classifiers(self) -> int:
        """Total weak-classifier count (paper: ours 1446 vs OpenCV 2913)."""
        return sum(len(s) for s in self.stages)

    def stage_sizes(self) -> list[int]:
        return [len(s) for s in self.stages]

    def truncated(self, n_stages: int) -> "Cascade":
        """A cascade keeping only the first ``n_stages`` stages.

        Fig. 9 evaluates both cascades truncated to 15, 20, and 25 stages.
        """
        if not (1 <= n_stages <= self.num_stages):
            raise CascadeFormatError(
                f"cannot truncate to {n_stages} stages, cascade has {self.num_stages}"
            )
        return Cascade(
            stages=self.stages[:n_stages],
            name=f"{self.name}@{n_stages}",
            window=self.window,
            meta=dict(self.meta),
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "format_version": _FORMAT_VERSION,
            "name": self.name,
            "window": self.window,
            "meta": self.meta,
            "stages": [
                {
                    "threshold": s.threshold,
                    "classifiers": [c.to_dict() for c in s.classifiers],
                }
                for s in self.stages
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Cascade":
        """Inverse of :meth:`to_dict`; raises :class:`CascadeFormatError`."""
        try:
            version = data["format_version"]
            if version != _FORMAT_VERSION:
                raise CascadeFormatError(f"unsupported cascade format version {version}")
            stages = []
            for s in data["stages"]:
                classifiers = tuple(map(WeakClassifier.from_dict, s["classifiers"]))
                stages.append(Stage(classifiers=classifiers, threshold=float(s["threshold"])))
            return cls(
                stages=tuple(stages),
                name=str(data.get("name", "cascade")),
                window=int(data.get("window", 24)),
                meta=dict(data.get("meta", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CascadeFormatError(f"malformed cascade description: {exc}") from exc

    def save(self, path: str | Path) -> None:
        """Write the cascade as JSON."""
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Cascade":
        """Read a cascade written by :meth:`save`."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except json.JSONDecodeError as exc:
            raise CascadeFormatError(f"cascade file {path} is not valid JSON") from exc
