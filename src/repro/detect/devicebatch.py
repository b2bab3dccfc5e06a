"""Cross-frame device batching: fused multi-frame kernels, one schedule.

The paper's Fig. 5 lesson is that the device only saturates when kernels
from *independent* work items overlap on concurrent streams.  PR 8's
backend seam made every per-frame kernel pluggable; this module applies
the same seam one axis further and fuses the *frame* dimension: N
same-shaped in-flight frames are stacked into ``(n, h, w)`` arrays and
every pyramid / integral / cascade kernel runs once per batch over the
stack (``apply_batch`` / ``compute_batch`` / ``evaluate_batch``) instead
of once per frame.  Pixels cross the host<->device boundary once per
batch per kernel site — :class:`TransferStats` accounts for both what
was paid and what the per-frame path would have paid.

The simulated GPU timeline fuses the same way: each kernel site becomes
one :class:`~repro.gpusim.kernel.KernelLaunch` whose grid covers all N
frames (per-block work arrays tiled or concatenated across frames, cost
cohorts scaled), keeping the per-level stream assignment of the
per-frame path.  The scheduler then overlays the N-frame grid on the
same concurrent streams — the Fig. 5 overlap picture with frames, not
just scales, feeding the streams — and the whole batch pays *one*
schedule instead of N.

Functional outputs are unchanged: every lane of every fused kernel is
bit-identical to the per-frame path on bitexact backends (the batched
goldens assert it), so detections do not depend on the batch size.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detect.display import display_launch
from repro.detect.engine import FrameWorkspace, _Geometry
from repro.detect.kernels import CascadeKernelResult
from repro.detect.pipeline import FrameResult, collect_raw_detections
from repro.errors import ConfigurationError
from repro.gpusim.kernel import BlockCohort, BlockWork, KernelLaunch, LaunchConfig
from repro.gpusim.scheduler import ExecutionMode
from repro.image.pyramid import PyramidLevel
from repro.utils.validation import check_shape_2d

__all__ = [
    "TransferStats",
    "BatchExecution",
    "BatchFrameWorkspace",
    "fuse_uniform_launch",
    "concat_launches",
]


# ---------------------------------------------------------------------------
# transfer accounting


@dataclass
class TransferStats:
    """Host<->device crossings a batch paid vs. the per-frame equivalent.

    One "transfer" is one staged crossing at a kernel site (upload the
    operand stack, download the result stack).  The fused path pays one
    per site per *batch*; the per-frame path pays one per site per
    *frame*.  ``saved`` is therefore ``sites * (n - 1)`` crossings per
    fused batch in each direction, and zero for fallback batches.
    """

    frames: int = 0
    batches: int = 0
    fused_batches: int = 0
    h2d: int = 0
    d2h: int = 0
    per_frame_h2d: int = 0
    per_frame_d2h: int = 0

    @property
    def saved(self) -> int:
        """Crossings avoided relative to the per-frame path."""
        return (self.per_frame_h2d + self.per_frame_d2h) - (self.h2d + self.d2h)

    def merge(self, other: "TransferStats") -> None:
        """Accumulate another batch's accounting into this one."""
        self.frames += other.frames
        self.batches += other.batches
        self.fused_batches += other.fused_batches
        self.h2d += other.h2d
        self.d2h += other.d2h
        self.per_frame_h2d += other.per_frame_h2d
        self.per_frame_d2h += other.per_frame_d2h

    def as_dict(self) -> dict:
        """Plain-dict form for bench artifacts."""
        return {
            "frames": self.frames,
            "batches": self.batches,
            "fused_batches": self.fused_batches,
            "h2d": self.h2d,
            "d2h": self.d2h,
            "per_frame_h2d": self.per_frame_h2d,
            "per_frame_d2h": self.per_frame_d2h,
            "saved": self.saved,
        }


@dataclass
class BatchExecution:
    """What one :meth:`BatchFrameWorkspace.process_batch` call produced."""

    results: list[FrameResult]
    #: the fused schedule shared by every result, ``None`` when the
    #: batch fell back to the per-frame path (singleton / fastpath)
    schedule: object | None
    transfers: TransferStats = field(default_factory=TransferStats)

    @property
    def fused(self) -> bool:
        return self.schedule is not None


# ---------------------------------------------------------------------------
# launch fusion: one KernelLaunch per kernel site covering all N frames

_WORK_FIELDS = (
    "warp_instructions",
    "dram_bytes_read",
    "dram_bytes_written",
    "branches",
    "divergent_branches",
    "shared_bytes",
    "constant_requests",
)


def _scaled_config(config: LaunchConfig, grid_blocks: int) -> LaunchConfig:
    return LaunchConfig(
        grid_blocks=grid_blocks,
        threads_per_block=config.threads_per_block,
        regs_per_thread=config.regs_per_thread,
        shared_mem_per_block=config.shared_mem_per_block,
    )


def fuse_uniform_launch(launch: KernelLaunch, n: int) -> KernelLaunch:
    """Fuse a frame-independent launch across ``n`` frames.

    The grid grows ``n``-fold, per-block work arrays are tiled (every
    frame's blocks do the same work), and precomputed cost cohorts scale
    their counts — per-block base cost is unchanged, so the fused launch
    occupies the device exactly like ``n`` back-to-back copies while
    costing the scheduler one event stream.
    """
    work = BlockWork(
        **{f: np.tile(getattr(launch.work, f), n) for f in _WORK_FIELDS}
    )
    fused = KernelLaunch(
        name=launch.name,
        config=_scaled_config(launch.config, launch.config.grid_blocks * n),
        work=work,
        stream=launch.stream,
        tag=launch.tag,
        wait_streams=launch.wait_streams,
    )
    fused.cohorts = [
        BlockCohort(count=c.count * n, base_seconds=c.base_seconds)
        for c in launch.cohorts
    ]
    return fused


def concat_launches(launches: list[KernelLaunch]) -> KernelLaunch:
    """Fuse same-site launches with *per-frame* work (cascade kernels).

    Cascade block cost depends on each frame's depth map, so the fused
    launch concatenates the per-frame block-work arrays instead of
    tiling one template; cohorts are left for the scheduler's cost model
    to derive once for the whole fused grid.
    """
    if not launches:
        raise ConfigurationError("concat_launches needs at least one launch")
    base = launches[0]
    if len(launches) == 1:
        return base
    work = BlockWork(
        **{
            f: np.concatenate([getattr(l.work, f) for l in launches])
            for f in _WORK_FIELDS
        }
    )
    grid = sum(l.config.grid_blocks for l in launches)
    return KernelLaunch(
        name=base.name,
        config=_scaled_config(base.config, grid),
        work=work,
        stream=base.stream,
        tag=base.tag,
        wait_streams=base.wait_streams,
    )


# ---------------------------------------------------------------------------
# the batch workspace


class BatchFrameWorkspace(FrameWorkspace):
    """A :class:`FrameWorkspace` that can run N frames as one device batch.

    ``process_frame`` is inherited unchanged; :meth:`process_batch` adds
    the fused route and is the engine's one entry point — a group of one
    (the per-frame path) falls straight back to ``process_frame``.
    Not thread-safe, like its base: the backend plans it drives own
    persistent scratch.
    """

    def __init__(self, pipeline, tracer=None, stream: str | None = "default") -> None:
        super().__init__(pipeline, tracer=tracer, stream=stream)
        #: fused frame-independent launches, cached per (shape, n):
        #: one list entry per level holding (pre_launches, integral_launches)
        self._fused_static: dict[tuple, list[tuple]] = {}

    # -- transfer-site census -------------------------------------------------

    @staticmethod
    def _transfer_sites(geo: _Geometry) -> int:
        """Kernel sites whose operands cross the host<->device boundary.

        One per octave resample, one per level>0 bilinear resample, one
        per level integral scan, one per level cascade evaluation.
        """
        resamples = sum(1 for state in geo.levels if state.index > 0)
        return len(geo.octave_plans) + resamples + 2 * len(geo.levels)

    # -- the fused batch ------------------------------------------------------

    def process_batch(
        self, lumas, mode: ExecutionMode | None = None
    ) -> BatchExecution:
        """Run N same-shaped frames as one fused device batch.

        Every frame's detections are bit-identical to
        :meth:`FrameWorkspace.process_frame` on bitexact backends.  The
        returned results *share* one fused
        :class:`~repro.gpusim.scheduler.ScheduleResult` (each result's
        ``device_batch`` records the batch size so aggregation can count
        it once).  Falls back to the per-frame path — schedule per
        frame, nothing shared — for singleton batches and whenever the
        fast path is enabled (its temporal delta cache is inherently
        sequential across frames).
        """
        arrs = [np.asarray(luma) for luma in lumas]
        if not arrs:
            raise ConfigurationError("process_batch needs at least one frame")
        for arr in arrs:
            check_shape_2d("luma", arr)
        mode = mode or self._pipeline.config.mode
        n = len(arrs)

        if n == 1 or self._fastpath.enabled:
            results = [self.process_frame(arr, mode) for arr in arrs]
            crossings = self._transfer_sites(self._geometry(arrs[0].shape)) * n
            transfers = TransferStats(
                frames=n,
                batches=1,
                fused_batches=0,
                h2d=crossings,
                d2h=crossings,
                per_frame_h2d=crossings,
                per_frame_d2h=crossings,
            )
            return BatchExecution(results=results, schedule=None, transfers=transfers)

        shapes = {arr.shape for arr in arrs}
        if len(shapes) != 1:
            raise ConfigurationError(
                f"a device batch needs one frame shape, got {sorted(shapes)}"
            )

        tracer = self._tracer
        backend = self._backend
        stack = np.stack([np.asarray(arr, dtype=np.float32) for arr in arrs])
        geo = self._geometry(stack.shape[1:])
        sites = self._transfer_sites(geo)
        transfers = TransferStats(
            frames=n,
            batches=1,
            fused_batches=1,
            h2d=sites,
            d2h=sites,
            per_frame_h2d=sites * n,
            per_frame_d2h=sites * n,
        )

        # pyramid: octave chain and per-level resamples, one fused gather each
        octaves: list[np.ndarray] = [stack]
        for plan, _buf in geo.octave_plans:
            with tracer.span("pyramid.antialias"):
                filtered = np.stack(
                    [backend.antialias(octaves[-1][i], 2.0) for i in range(n)]
                )
            with tracer.span("pyramid.scale"):
                octaves.append(plan.apply_batch(filtered))
        level_stacks: list[np.ndarray] = []
        for state in geo.levels:
            if state.index == 0:
                level_stacks.append(stack)
            else:
                with tracer.span("pyramid.scale"):
                    level_stacks.append(state.bilinear.apply_batch(octaves[state.octave]))

        # integral + cascade per level, fused launches as we go
        static = self._fused_static_launches(geo, n)
        launches: list[KernelLaunch] = []
        per_frame_kernels: list[list[CascadeKernelResult]] = [[] for _ in range(n)]
        for (pre, integral), state, imgs in zip(static, geo.levels, level_stacks):
            launches.extend(pre)
            with tracer.span("integral"):
                iis, sqiis = state.integral_plan.compute_batch(imgs)
            launches.extend(integral)
            with tracer.span("cascade"):
                maps_list = state.evaluator.evaluate_batch(iis, sqiis)
            level_launches: list[KernelLaunch] = []
            for i, maps in enumerate(maps_list):
                rejections = np.bincount(
                    maps.depth_map.ravel(), minlength=self._n_stages + 1
                )
                launch = state.launch_template.build(maps.depth_map)
                level_launches.append(launch)
                per_frame_kernels[i].append(
                    CascadeKernelResult(
                        depth_map=maps.depth_map,
                        margin_map=maps.margin_map,
                        sigma_map=maps.sigma_map,
                        launch=launch,
                        mapping=state.mapping,
                        rejections_by_depth=rejections,
                    )
                )
            launches.append(concat_launches(level_launches))

        # grouping stays per frame (detections are per-frame output)
        levels_per_frame = [
            [
                PyramidLevel(
                    index=state.index,
                    scale=state.scale,
                    width=state.width,
                    height=state.height,
                    image=level_stacks[li][i],
                )
                for li, state in enumerate(geo.levels)
            ]
            for i in range(n)
        ]
        window = self._pipeline.config.pyramid.window
        with tracer.span("grouping"):
            raws = [
                collect_raw_detections(levels_per_frame[i], per_frame_kernels[i], window)
                for i in range(n)
            ]
        launches.append(
            display_launch(
                stack.shape[2],
                stack.shape[1],
                sum(len(raw) for raw in raws),
                stream=geo.display_stream,
                wait_streams=geo.display_waits,
            )
        )
        with tracer.span("schedule"):
            schedule = self._pipeline.scheduler.run(launches, mode)

        results = [
            FrameResult(
                raw_detections=raws[i],
                schedule=schedule,
                kernel_results=per_frame_kernels[i],
                levels=levels_per_frame[i],
                device_batch=n,
            )
            for i in range(n)
        ]
        return BatchExecution(results=results, schedule=schedule, transfers=transfers)

    def _fused_static_launches(self, geo: _Geometry, n: int) -> list[tuple]:
        """Per-level fused frame-independent launches, cached per (shape, n).

        Filtering/scaling/integral launches depend only on level geometry,
        so their ``n``-fold fusion (tiled work, scaled cohorts) is built
        once per (frame shape, batch size) and replayed every batch.
        """
        key = (geo.shape, n)
        cached = self._fused_static.get(key)
        if cached is None:
            cached = [
                (
                    tuple(fuse_uniform_launch(l, n) for l in state.pre_launches),
                    tuple(fuse_uniform_launch(l, n) for l in state.integral_launches),
                )
                for state in geo.levels
            ]
            self._fused_static[key] = cached
        return cached
