"""Cross-backend differ: prove two backends agree byte for byte.

:func:`compare_backends` runs the same frames through one pipeline per
backend and compares every functional artefact — pyramid level pixels,
integral images, depth/margin/sigma/score maps, rejection histograms,
raw detections and the final grouped detections — on raw bytes
(``tobytes``).  Both kernel sets are bit-exact, so anything weaker would
hide reordered float arithmetic.

The golden tests call this on a synthetic scene, a trailer frame and a
multi-frame stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.detect.grouping import group_detections
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError

__all__ = ["OracleReport", "compare_backends"]


@dataclass
class OracleReport:
    """Outcome of one cross-backend comparison."""

    backends: tuple[str, ...]
    frames: int
    mismatches: list[str] = field(default_factory=list)

    @property
    def identical(self) -> bool:
        return not self.mismatches

    def raise_on_mismatch(self) -> None:
        if self.mismatches:
            raise ConfigurationError(
                "backends "
                + " vs ".join(self.backends)
                + " diverged: "
                + "; ".join(self.mismatches[:8])
            )


def _diff_bytes(mismatches: list[str], label: str, a, b) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        mismatches.append(f"{label}: shape/dtype {a.shape}/{a.dtype} vs {b.shape}/{b.dtype}")
    elif a.tobytes() != b.tobytes():
        mismatches.append(f"{label}: {int(np.sum(a != b))} differing elements")


def compare_backends(
    frames,
    cascade,
    *,
    backends: tuple[str, str] = ("reference", "vectorized"),
    config: PipelineConfig | None = None,
) -> OracleReport:
    """Run ``frames`` (iterable of 2-D luma arrays) through each backend
    and byte-compare every artefact against the first backend's."""
    if len(backends) < 2:
        raise ConfigurationError("need at least two backends to compare")
    base = config or PipelineConfig()
    pipelines = [
        FaceDetectionPipeline(cascade, config=replace(base, backend=name))
        for name in backends
    ]
    names = tuple(p.backend.name for p in pipelines)
    ref, others = pipelines[0], pipelines[1:]

    frames = [np.asarray(f) for f in frames]
    report = OracleReport(backends=names, frames=len(frames))
    mm = report.mismatches

    for f_idx, frame in enumerate(frames):
        ref_result = ref.process_frame(frame)
        for other in others:
            other_result = other.process_frame(frame)
            tag = f"frame[{f_idx}] {ref.backend.name} vs {other.backend.name}"

            for lvl, (la, lb) in enumerate(
                zip(ref_result.levels, other_result.levels)
            ):
                _diff_bytes(mm, f"{tag} level[{lvl}].image", la.image, lb.image)
                _diff_bytes(
                    mm,
                    f"{tag} level[{lvl}].integral",
                    ref.backend.integral_image(np.asarray(la.image, dtype=np.float64)),
                    other.backend.integral_image(np.asarray(lb.image, dtype=np.float64)),
                )
                _diff_bytes(
                    mm,
                    f"{tag} level[{lvl}].sq_integral",
                    ref.backend.squared_integral_image(
                        np.asarray(la.image, dtype=np.float64)
                    ),
                    other.backend.squared_integral_image(
                        np.asarray(lb.image, dtype=np.float64)
                    ),
                )
            for lvl, (ka, kb) in enumerate(
                zip(ref_result.kernel_results, other_result.kernel_results)
            ):
                _diff_bytes(mm, f"{tag} level[{lvl}].depth_map", ka.depth_map, kb.depth_map)
                _diff_bytes(mm, f"{tag} level[{lvl}].margin_map", ka.margin_map, kb.margin_map)
                _diff_bytes(mm, f"{tag} level[{lvl}].sigma_map", ka.sigma_map, kb.sigma_map)
                _diff_bytes(mm, f"{tag} level[{lvl}].score_map", ka.score_map, kb.score_map)
                _diff_bytes(
                    mm,
                    f"{tag} level[{lvl}].rejections",
                    ka.rejections_by_depth,
                    kb.rejections_by_depth,
                )
            n_stages = ref.cascade.num_stages
            _diff_bytes(
                mm,
                f"{tag} rejection_matrix",
                ref_result.rejection_matrix(n_stages),
                other_result.rejection_matrix(n_stages),
            )

            raw_a = [(d.x, d.y, d.size, d.score) for d in ref_result.raw_detections]
            raw_b = [(d.x, d.y, d.size, d.score) for d in other_result.raw_detections]
            if raw_a != raw_b:
                mm.append(f"{tag} raw detections: {len(raw_a)} vs {len(raw_b)} differ")
            grouped_a = [
                (d.x, d.y, d.size, d.score)
                for d in group_detections(ref_result.raw_detections)
            ]
            grouped_b = [
                (d.x, d.y, d.size, d.score)
                for d in group_detections(other_result.raw_detections)
            ]
            if grouped_a != grouped_b:
                mm.append(
                    f"{tag} grouped detections: "
                    f"{len(grouped_a)} vs {len(grouped_b)} differ"
                )
    return report
