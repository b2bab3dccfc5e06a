"""Batched multi-frame throughput engine.

The paper's headline mechanism overlaps *pyramid scales* on the device;
this module applies the same idea one level up and overlaps *frames* on
the host.  Two pieces:

* :class:`FrameWorkspace` — a reusable per-worker execution context that
  runs the exact Fig. 1 pipeline of
  :meth:`~repro.detect.pipeline.FaceDetectionPipeline.process_frame`, but
  keeps every frame-independent artefact alive between frames: pyramid
  resampling plans, cached :class:`~repro.detect.windows.BlockMapping`
  geometry, launch templates for the filtering/scaling/integral/cascade
  kernels with precomputed cost-model state, and the per-level
  integral-image plans and cascade evaluators of the active
  :class:`~repro.backend.base.ComputeBackend`.  One-shot ``process_frame``
  rebuilds all of this per frame; the workspace amortises it across a
  whole video.  The numeric kernels themselves live behind the backend
  seam, and the ``reference`` backend replays the original implementation
  operation-for-operation, so the functional output (detections, depth
  maps, schedules) is *identical* — the determinism tests assert exact
  equality, and the cross-backend oracle extends the same contract to
  every other backend.

* :class:`DetectionEngine` — runs N frames in flight through one
  primitive: run a *group* of same-shaped lanes on one workspace
  (:meth:`~repro.detect.devicebatch.BatchFrameWorkspace.process_batch`)
  and return one :class:`FrameResult` per lane.  Frames are grouped one
  at a time, or into device batches of up to ``device_batch`` frames
  with ``batch_across_frames`` on; a group of one falls straight back
  to ``process_frame``.  Three executors submit a group and return a
  future of its results: inline (``workers=0``), a persistent thread
  pool (cooperative under the GIL, cheap hand-off) and a persistent
  process pool whose workers each build their pipeline once from a
  picklable :class:`~repro.detect.pipeline.PipelineSpec` and read frame
  pixels from a :class:`~repro.video.shm.SharedFrameRing` (true
  multi-core parallelism).  :class:`ShardingMode` picks between the
  pools (``auto``: processes whenever more than one worker meets more
  than one core).  On top of the primitive, :meth:`~DetectionEngine.
  process_frames` is one ordered, backpressured window counted in
  frames, and ``submit`` / ``submit_batch`` fan group results out to
  per-frame futures.  Every combination is byte-identical to serial
  ``process_frame``.

The simulated GPU timing layer is untouched: each frame still gets its
own :class:`~repro.gpusim.scheduler.ScheduleResult`, which
:func:`batch_report` aggregates into a
:class:`~repro.gpusim.batch.BatchReport`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from repro.backend.base import BilinearPlan, ComputeBackend
from repro.detect.display import display_launch
from repro.detect.fastpath import (
    FastpathConfig,
    FastpathFrameStats,
    FastpathPolicy,
    dirty_window_mask,
    expand_tile_mask,
    tile_reduce_any,
    tile_reduce_max,
)
from repro.detect.kernels import (
    CascadeKernelResult,
    CascadeLaunchTemplate,
    cascade_launch_costs,
)
from repro.detect.pipeline import (
    FaceDetectionPipeline,
    FrameResult,
    collect_raw_detections,
)
from repro.detect.shard import (
    ShardReply,
    WorkerSpec,
    init_worker,
    probe_shard,
    process_shard,
)
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError, WorkerCrashError
from repro.gpusim.batch import BatchReport
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.image.filtering import filtering_launch
from repro.image.integral import integral_launches
from repro.image.pyramid import PyramidLevel, pyramid_scales, scaling_launch
from repro.utils.validation import check_shape_2d
from repro.video.shm import SharedFrameRing, SlotTicket

__all__ = [
    "FrameWorkspace",
    "DetectionEngine",
    "EngineRun",
    "ShardingMode",
    "batch_report",
]

#: start method consulted when the engine is not given one explicitly
START_METHOD_ENV = "REPRO_START_METHOD"

#: ``spawn`` everywhere: it is the macOS/Windows (and Python >= 3.14
#: Linux) default, so Linux runs exercise the same pickling semantics,
#: and it never inherits locks mid-acquire the way ``fork`` can.
DEFAULT_START_METHOD = "spawn"


class ShardingMode(Enum):
    """How :class:`DetectionEngine` distributes frames across workers.

    The paper's Fig. 5 lesson is that concurrency only pays once the
    executors are genuinely independent — per-scale kernels sharing one
    SM serialise, per-scale kernels on idle SMs overlap.  The host-side
    analogue: worker *threads* share one GIL (they overlap only the
    NumPy regions that release it), worker *processes* are fully
    independent.  ``AUTO`` applies that rule directly: processes
    whenever more than one worker meets more than one core, threads
    otherwise (on a single core, process transport costs buy nothing).
    """

    THREADS = "threads"
    PROCESSES = "processes"
    AUTO = "auto"

    @classmethod
    def coerce(cls, value: "ShardingMode | str") -> "ShardingMode":
        """Accept a mode or its name; reject anything else loudly."""
        if isinstance(value, ShardingMode):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ConfigurationError(
                f"unknown sharding mode {value!r}; "
                f"choose from {[m.value for m in cls]}"
            ) from None

    def resolve(self, workers: int) -> "ShardingMode":
        """Collapse ``AUTO`` to a concrete mode for ``workers`` workers."""
        if self is not ShardingMode.AUTO:
            return self
        if workers >= 2 and (os.cpu_count() or 1) >= 2:
            return ShardingMode.PROCESSES
        return ShardingMode.THREADS


# ---------------------------------------------------------------------------
# frame-independent per-level state


class _LevelState:
    """Per-pyramid-level backend plans and cached launch templates."""

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        backend: ComputeBackend,
        index: int,
        scale: float,
        width: int,
        height: int,
        octave: int,
    ) -> None:
        self.index = index
        self.scale = scale
        self.width = width
        self.height = height
        self.octave = octave
        stream = index + 1
        self.stream = stream

        cost_model = pipeline.scheduler.cost_model

        def template(launch: KernelLaunch) -> KernelLaunch:
            # Precompute the cost cohorts the scheduler would otherwise
            # derive per frame; cohorts are deterministic in the launch, so
            # schedules are unchanged.
            launch.cohorts = cost_model.build_cohorts(launch)
            return launch

        self.pre_launches: tuple[KernelLaunch, ...]
        if index > 0:
            self.pre_launches = (
                template(filtering_launch(width, height, stream, tag="filter")),
                template(scaling_launch(width, height, stream, tag="scaling")),
            )
        else:
            self.pre_launches = ()
        self.integral_launches = tuple(
            template(launch)
            for launch in integral_launches(height, width, stream, tag="integral")
        )

        self.mapping = BlockMapping(
            level_width=width,
            level_height=height,
            window=pipeline.config.pyramid.window,
            block_w=pipeline.config.block_w,
            block_h=pipeline.config.block_h,
        )

        # the backend side of the seam: reusable, buffer-owning kernels
        self.integral_plan = backend.make_integral_plan(height, width)
        self.evaluator = backend.make_cascade_evaluator(pipeline.cascade, self.mapping)
        self.bilinear: BilinearPlan | None = None  # set by _Geometry

        self.launch_template = CascadeLaunchTemplate(
            cascade_launch_costs(pipeline.cascade),
            self.mapping,
            stream,
            name=f"cascade_s{index}",
        )


class _Geometry:
    """Everything frame-independent for one ``(height, width)`` frame shape."""

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        backend: ComputeBackend,
        shape: tuple[int, int],
    ) -> None:
        height, width = shape
        config = pipeline.config.pyramid
        self.shape = shape
        scales = pyramid_scales(width, height, config)

        # octave chain geometry (mirrors build_pyramid's while loop)
        octave_shapes = [(height, width)]
        while max(octave_shapes[-1]) // 2 >= config.min_image_side:
            ph, pw = octave_shapes[-1]
            octave_shapes.append((max(ph // 2, 1), max(pw // 2, 1)))
        self.octave_plans: list[tuple[BilinearPlan, np.ndarray]] = []
        for (ph, pw), (oh, ow) in zip(octave_shapes, octave_shapes[1:]):
            self.octave_plans.append(
                (
                    backend.make_bilinear_plan(ph, pw, oh, ow),
                    np.empty((oh, ow), dtype=np.float32),
                )
            )
        n_octaves = len(octave_shapes)

        self.levels: list[_LevelState] = []
        for index, scale in enumerate(scales):
            w = int(width / scale)
            h = int(height / scale)
            octave = 0
            if index > 0:
                octave = min(int(np.floor(np.log2(scale))), n_octaves - 1)
            state = _LevelState(pipeline, backend, index, scale, w, h, octave)
            if index > 0:
                oh, ow = octave_shapes[octave]
                state.bilinear = backend.make_bilinear_plan(oh, ow, h, w)
            self.levels.append(state)

        self.display_stream = len(scales) + 1
        self.display_waits = tuple(range(1, len(scales) + 1))


# ---------------------------------------------------------------------------
# temporal delta-cache state (per workspace, per frame shape)


class _FastpathLevelCache:
    """Previous frame's pixels and cascade result for one pyramid level."""

    __slots__ = ("image", "result")

    def __init__(self) -> None:
        self.image: np.ndarray | None = None
        self.result: CascadeKernelResult | None = None


class _FastpathState:
    """One stream's delta cache for one frame shape.

    Owned by exactly one workspace (workspaces are single-worker by
    contract), so under thread *and* process sharding each worker caches
    its own subsequence of the stream — reuse fires whenever *that
    worker's* previous frame matches, which keeps ``exact`` mode
    byte-identical by construction regardless of how frames shard.
    """

    def __init__(self, n_levels: int) -> None:
        self.frame: np.ndarray | None = None
        self.levels: list[PyramidLevel] | None = None
        self.caches = [_FastpathLevelCache() for _ in range(n_levels)]
        # downstream replay state: the grouped detections and the
        # simulated schedule of the cached frame.  On a whole-frame hit
        # the launch list is content-identical and scheduler.run is a
        # deterministic, stateless function of (launches, mode), so
        # replaying these is byte-identical to recomputing them.
        self.raw: list | None = None
        self.schedule = None
        self.schedule_mode = None

    @property
    def complete(self) -> bool:
        return self.frame is not None and all(
            c.result is not None for c in self.caches
        )


# ---------------------------------------------------------------------------
# the workspace: one frame at a time, all caches hot


class FrameWorkspace:
    """Reusable execution context replicating ``process_frame`` bit-for-bit.

    Not thread-safe: each engine worker owns one workspace.  Geometry
    state is cached per frame shape, so a workspace can serve mixed-
    resolution streams (each resolution pays its plan cost once).

    ``tracer`` wraps every Fig. 1 stage in a span (pyramid anti-alias,
    pyramid scaling, integral images, cascade evaluation, grouping, the
    simulated schedule).  Spans only observe — output stays
    byte-identical with tracing on, as the determinism tests assert.
    """

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        tracer: Tracer | None = None,
        stream: str | None = "default",
    ) -> None:
        self._pipeline = pipeline
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._backend = pipeline.backend
        self._n_stages = pipeline.cascade.num_stages
        self._geometries: dict[tuple[int, int], _Geometry] = {}
        self._fastpath = pipeline.fastpath
        #: stream identity for the temporal delta cache; ``None`` disables
        #: temporal reuse (the proposal screen still applies under ``fast``)
        self._stream = stream
        self._fp_states: dict[tuple[int, int], _FastpathState] = {}

    @property
    def fastpath(self) -> FastpathConfig:
        """The resolved fast-path configuration this workspace applies."""
        return self._fastpath

    @property
    def stream(self) -> str | None:
        """Stream identity for temporal reuse (``None`` = disabled)."""
        return self._stream

    @property
    def pipeline(self) -> FaceDetectionPipeline:
        return self._pipeline

    @property
    def backend(self) -> ComputeBackend:
        """The compute backend whose plans this workspace replays."""
        return self._backend

    def process_frame(
        self, luma: np.ndarray, mode: ExecutionMode | None = None
    ) -> FrameResult:
        """Run the full Fig. 1 pipeline over one luma frame.

        Float-identical to :meth:`FaceDetectionPipeline.process_frame`.
        """
        arr = np.asarray(luma)
        check_shape_2d("luma", arr)
        mode = mode or self._pipeline.config.mode
        img = np.asarray(arr, dtype=np.float32)
        geo = self._geometry(img.shape)

        if self._fastpath.enabled:
            return self._process_frame_fastpath(geo, img, mode)

        tracer = self._tracer
        levels = self._build_levels(geo, img)

        launches: list[KernelLaunch] = []
        kernel_results: list[CascadeKernelResult] = []
        for state, level in zip(geo.levels, levels):
            launches.extend(state.pre_launches)
            with tracer.span("integral"):
                ii, sqii = state.integral_plan.compute(level.image)
            launches.extend(state.integral_launches)
            with tracer.span("cascade"):
                result = self._cascade_eval(state, ii, sqii)
            launches.append(result.launch)
            kernel_results.append(result)

        with tracer.span("grouping"):
            raw = collect_raw_detections(
                levels, kernel_results, self._pipeline.config.pyramid.window
            )
        launches.append(
            display_launch(
                img.shape[1],
                img.shape[0],
                len(raw),
                stream=geo.display_stream,
                wait_streams=geo.display_waits,
            )
        )
        with tracer.span("schedule"):
            schedule = self._pipeline.scheduler.run(launches, mode)
        return FrameResult(
            raw_detections=raw,
            schedule=schedule,
            kernel_results=kernel_results,
            levels=levels,
        )

    def _geometry(self, shape: tuple[int, int]) -> _Geometry:
        geo = self._geometries.get(shape)
        if geo is None:
            geo = _Geometry(self._pipeline, self._backend, shape)
            self._geometries[shape] = geo
        return geo

    # -- pyramid ------------------------------------------------------------

    def _build_levels(self, geo: _Geometry, img: np.ndarray) -> list[PyramidLevel]:
        tracer = self._tracer
        backend = self._backend
        octaves: list[np.ndarray] = [img]
        for plan, buf in geo.octave_plans:
            with tracer.span("pyramid.antialias"):
                filtered = backend.antialias(octaves[-1], 2.0)
            with tracer.span("pyramid.scale"):
                octaves.append(plan.apply(filtered, out=buf))
        levels: list[PyramidLevel] = []
        for state in geo.levels:
            if state.index == 0:
                image = img
            else:
                with tracer.span("pyramid.scale"):
                    image = state.bilinear.apply(octaves[state.octave])
            levels.append(
                PyramidLevel(
                    index=state.index,
                    scale=state.scale,
                    width=state.width,
                    height=state.height,
                    image=image,
                )
            )
        return levels

    # -- cascade kernel ------------------------------------------------------

    def _cascade_eval(
        self, state: _LevelState, ii: np.ndarray, sqii: np.ndarray
    ) -> CascadeKernelResult:
        maps = state.evaluator.evaluate(ii, sqii)
        rejections = np.bincount(maps.depth_map.ravel(), minlength=self._n_stages + 1)
        return CascadeKernelResult(
            depth_map=maps.depth_map,
            margin_map=maps.margin_map,
            sigma_map=maps.sigma_map,
            launch=state.launch_template.build(maps.depth_map),
            mapping=state.mapping,
            rejections_by_depth=rejections,
        )

    # -- the two-tier fast path ----------------------------------------------

    def _process_frame_fastpath(
        self, geo: _Geometry, img: np.ndarray, mode: ExecutionMode
    ) -> FrameResult:
        """Proposal pre-pass + temporal delta cache (``exact`` / ``fast``).

        ``exact`` reuses cached cascade results only for *bit-equal*
        pixels — evaluation is a deterministic function of the level
        image, so reuse is provably byte-identical — and runs the
        variance screen observe-only.  ``fast`` additionally prunes
        flat tiles and carries cached depth/margin forward for anchors
        whose window footprint saw no changed pixel.
        """
        fp = self._fastpath
        tracer = self._tracer
        exact = fp.policy is FastpathPolicy.EXACT
        temporal = self._stream is not None
        state = self._fp_states.get(img.shape)
        if state is None:
            state = _FastpathState(len(geo.levels))
            self._fp_states[img.shape] = state
        stats = FastpathFrameStats(policy=fp.policy.value, levels=len(geo.levels))

        frame_hit = False
        if temporal and state.complete:
            with tracer.span("fastpath.diff", cat="fastpath"):
                frame_hit = self._pixels_clean(img, state.frame, fp, exact)

        launches: list[KernelLaunch] = []
        kernel_results: list[CascadeKernelResult] = []
        if frame_hit:
            # the whole frame matches the cached predecessor: skip the
            # pyramid, the integrals and every cascade evaluation
            stats.frames_reused = 1
            levels = state.levels
            schedule_hit = (
                state.schedule is not None and state.schedule_mode == mode
            )
            for lv, cache in zip(geo.levels, state.caches):
                result = cache.result
                kernel_results.append(result)
                if not schedule_hit:
                    launches.extend(lv.pre_launches)
                    launches.extend(lv.integral_launches)
                    launches.append(result.launch)
                n_tiles = self._n_tiles(lv.mapping, fp.tile)
                stats.levels_reused += 1
                stats.anchors += result.depth_map.size
                stats.anchors_carried += result.depth_map.size
                stats.tiles += n_tiles
                stats.tiles_clean += n_tiles
            if schedule_hit:
                # grouping is deterministic in (levels, kernel_results)
                # and the launch list a hit would rebuild is content-
                # identical to the cached frame's, so the stored raw
                # detections and ScheduleResult are byte-identical
                # replays — skip grouping and the simulated schedule
                return FrameResult(
                    raw_detections=list(state.raw),
                    schedule=state.schedule,
                    kernel_results=kernel_results,
                    levels=levels,
                    fastpath=stats,
                )
        else:
            levels = self._build_levels(geo, img)
            for lv, level, cache in zip(geo.levels, levels, state.caches):
                launches.extend(lv.pre_launches)
                result = self._fastpath_level(fp, lv, level, cache, temporal, exact, stats)
                launches.extend(lv.integral_launches)
                launches.append(result.launch)
                kernel_results.append(result)
            if temporal:
                self._fastpath_update_cache(state, levels, kernel_results)

        with tracer.span("grouping"):
            raw = collect_raw_detections(
                levels, kernel_results, self._pipeline.config.pyramid.window
            )
        launches.append(
            display_launch(
                img.shape[1],
                img.shape[0],
                len(raw),
                stream=geo.display_stream,
                wait_streams=geo.display_waits,
            )
        )
        with tracer.span("schedule"):
            schedule = self._pipeline.scheduler.run(launches, mode)
        if temporal and state.complete:
            state.raw = list(raw)
            state.schedule = schedule
            state.schedule_mode = mode
        return FrameResult(
            raw_detections=raw,
            schedule=schedule,
            kernel_results=kernel_results,
            levels=levels,
            fastpath=stats,
        )

    @staticmethod
    def _pixels_clean(
        current: np.ndarray, cached: np.ndarray, fp: FastpathConfig, exact: bool
    ) -> bool:
        """Whether ``current`` matches the cache closely enough to reuse."""
        if exact or fp.diff_eps == 0.0:
            return bool(np.array_equal(current, cached))
        return bool(np.all(np.abs(current - cached) <= fp.diff_eps))

    @staticmethod
    def _n_tiles(mapping: BlockMapping, tile: int) -> int:
        return (-(-mapping.anchors_y // tile)) * (-(-mapping.anchors_x // tile))

    def _fastpath_level(
        self,
        fp: FastpathConfig,
        lv: _LevelState,
        level: PyramidLevel,
        cache: _FastpathLevelCache,
        temporal: bool,
        exact: bool,
        stats: FastpathFrameStats,
    ) -> CascadeKernelResult:
        """Diff, screen and evaluate one pyramid level."""
        tracer = self._tracer
        mapping = lv.mapping
        ay, ax = mapping.anchors_y, mapping.anchors_x
        n_tiles = self._n_tiles(mapping, fp.tile)
        stats.tiles += n_tiles
        stats.anchors += ay * ax

        changed: np.ndarray | None = None
        if temporal and cache.result is not None:
            with tracer.span("fastpath.diff", cat="fastpath"):
                if exact:
                    clean = bool(np.array_equal(level.image, cache.image))
                else:
                    changed = np.abs(level.image - cache.image) > fp.diff_eps
                    clean = not bool(changed.any())
            if clean:
                stats.levels_reused += 1
                stats.anchors_carried += ay * ax
                stats.tiles_clean += n_tiles
                return cache.result

        with tracer.span("integral"):
            ii, sqii = lv.integral_plan.compute(level.image)
        with tracer.span("cascade"):
            if exact:
                result = self._cascade_eval(lv, ii, sqii)
                self._observe_proposal(fp, lv, result, stats)
            else:
                result = self._cascade_eval_fast(fp, lv, ii, sqii, changed, cache, stats)
        return result

    def _observe_proposal(
        self,
        fp: FastpathConfig,
        lv: _LevelState,
        result: CascadeKernelResult,
        stats: FastpathFrameStats,
    ) -> None:
        """Run the variance screen observe-only (``exact`` mode).

        The full evaluation already happened, so the true accept set is
        known and the screen's recall can be *measured* instead of
        trusted — the number the ``fast`` policy's pruning rides on.
        """
        mapping = lv.mapping
        ay, ax = mapping.anchors_y, mapping.anchors_x
        with self._tracer.span("fastpath.screen", cat="fastpath"):
            keep = tile_reduce_max(result.sigma_map, fp.tile) >= fp.min_sigma
            textured = expand_tile_mask(keep, fp.tile, ay, ax)
            accepted = result.depth_map == self._n_stages
        stats.anchors_evaluated += ay * ax
        stats.tiles_pruned += int(keep.size - np.count_nonzero(keep))
        stats.proposal_total += int(np.count_nonzero(accepted))
        stats.proposal_kept += int(np.count_nonzero(np.logical_and(accepted, textured)))

    def _cascade_eval_fast(
        self,
        fp: FastpathConfig,
        lv: _LevelState,
        ii: np.ndarray,
        sqii: np.ndarray,
        changed: np.ndarray | None,
        cache: _FastpathLevelCache,
        stats: FastpathFrameStats,
    ) -> CascadeKernelResult:
        """The pruning evaluation (``fast`` mode) for one dirty level."""
        mapping = lv.mapping
        ay, ax = mapping.anchors_y, mapping.anchors_x
        total = ay * ax
        evaluator = lv.evaluator
        with self._tracer.span("fastpath.screen", cat="fastpath"):
            sigma = evaluator.window_sigma(ii, sqii)
            keep_tiles = tile_reduce_max(sigma, fp.tile) >= fp.min_sigma
            textured = expand_tile_mask(keep_tiles, fp.tile, ay, ax)

        dirty: np.ndarray | None = None
        if changed is None:
            active = textured
        else:
            with self._tracer.span("fastpath.diff", cat="fastpath"):
                dirty = dirty_window_mask(changed, mapping.window, ay, ax)
            active = np.logical_and(dirty, textured)
            stats.tiles_clean += int(
                keep_tiles.size - np.count_nonzero(tile_reduce_any(dirty, fp.tile))
            )
        active_count = int(np.count_nonzero(active))

        if active_count >= fp.dense_fallback * total:
            # too much motion/texture for masked gathers to pay for
            # themselves: full dense refresh, no pruning on this level
            maps = evaluator.evaluate(ii, sqii)
            depth, margin, sigma = maps.depth_map, maps.margin_map, maps.sigma_map
            stats.anchors_evaluated += total
        else:
            maps = evaluator.evaluate_masked(ii, sqii, active, sigma=sigma)
            depth, margin = maps.depth_map, maps.margin_map
            carried = 0
            if dirty is not None:
                clean = np.logical_not(dirty)
                carried = total - int(np.count_nonzero(dirty))
                depth = np.where(clean, cache.result.depth_map, depth)
                margin = np.where(clean, cache.result.margin_map, margin)
            stats.anchors_evaluated += active_count
            stats.anchors_carried += carried
            stats.anchors_pruned += total - active_count - carried
            stats.tiles_pruned += int(keep_tiles.size - np.count_nonzero(keep_tiles))
        rejections = np.bincount(depth.ravel(), minlength=self._n_stages + 1)
        return CascadeKernelResult(
            depth_map=depth,
            margin_map=margin,
            sigma_map=sigma,
            launch=lv.launch_template.build(depth),
            mapping=mapping,
            rejections_by_depth=rejections,
        )

    def _fastpath_update_cache(
        self,
        state: _FastpathState,
        levels: list[PyramidLevel],
        kernel_results: list[CascadeKernelResult],
    ) -> None:
        # level 0 aliases the caller's frame buffer (a shared-memory ring
        # slot under process sharding) — copy it; deeper levels are
        # freshly allocated by the bilinear plans, so references are safe
        img_copy = np.array(levels[0].image, copy=True)
        level0 = PyramidLevel(
            index=levels[0].index,
            scale=levels[0].scale,
            width=levels[0].width,
            height=levels[0].height,
            image=img_copy,
        )
        cached_levels = [level0, *levels[1:]]
        for cache, level, result in zip(state.caches, cached_levels, kernel_results):
            cache.image = level.image
            cache.result = result
        state.frame = img_copy
        state.levels = cached_levels


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# the engine: N frames in flight, ordered output, bounded memory


def _as_luma(frame) -> np.ndarray:
    """Accept raw arrays, ``FramePacket``-likes and ``DecodedFrame``-likes."""
    luma = getattr(frame, "luma", frame)
    return np.asarray(luma)


def _iter_groups(frames: Iterable, max_batch: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Yield ``(start_index, lumas)`` runs of consecutive same-shaped frames.

    The engine's only grouping rule: groups never reorder frames (FIFO
    output depends on it), never mix frame shapes (fused kernels need
    congruent pyramids) and never exceed ``max_batch`` frames — ``1``
    gives the per-frame path its groups of one.
    """
    buf: list[np.ndarray] = []
    start = 0
    for index, frame in enumerate(frames):
        luma = _as_luma(frame)
        if buf and luma.shape != buf[0].shape:
            yield start, buf
            buf = []
        if not buf:
            start = index
        buf.append(luma)
        # a full group goes out at once: reading ahead to the next frame
        # would hold one more frame than the backpressure window allows
        if len(buf) >= max_batch:
            yield start, buf
            buf = []
    if buf:
        yield start, buf


def _bridge_results_metrics(metrics: MetricsRegistry, results: list[FrameResult]) -> None:
    """Bridge one group's simulated-layer statistics without double-counting.

    Fig. 7's per-depth rejection histogram feeds the stage-1 rejection
    rate and the fast-path statistics are genuinely per frame; the
    schedule's :class:`~repro.gpusim.counters.PerfCounters` feed the
    branch counters the paper's Section VI-A quotes, once per distinct
    schedule object (a fused device batch shares one).
    """
    seen: set[int] = set()
    for result in results:
        _bridge_cascade_metrics(metrics, result)
        key = id(result.schedule)
        if key not in seen:
            seen.add(key)
            _bridge_schedule_metrics(metrics, result.schedule)


def _bridge_schedule_metrics(metrics: MetricsRegistry, schedule) -> None:
    metrics.counter("sim.kernels").inc(len(schedule.timeline.traces))
    metrics.counter("sim.device_seconds").inc(schedule.makespan_s)
    metrics.counter("sim.branches").inc(schedule.total.branches)
    metrics.counter("sim.divergent_branches").inc(schedule.total.divergent_branches)


def _bridge_cascade_metrics(metrics: MetricsRegistry, result: FrameResult) -> None:
    anchors = 0
    rejected_stage1 = 0
    for kr in result.kernel_results:
        hist = np.asarray(kr.rejections_by_depth)
        anchors += int(hist.sum())
        rejected_stage1 += int(hist[0])
    metrics.counter("cascade.anchors").inc(anchors)
    metrics.counter("cascade.anchors_rejected_stage1").inc(rejected_stage1)
    fp = result.fastpath
    if fp is not None:
        metrics.counter("fastpath.frames").inc()
        metrics.counter("fastpath.frames_reused").inc(fp.frames_reused)
        metrics.counter("fastpath.levels").inc(fp.levels)
        metrics.counter("fastpath.levels_reused").inc(fp.levels_reused)
        metrics.counter("fastpath.tiles").inc(fp.tiles)
        metrics.counter("fastpath.tiles_clean").inc(fp.tiles_clean)
        metrics.counter("fastpath.tiles_pruned").inc(fp.tiles_pruned)
        metrics.counter("fastpath.anchors").inc(fp.anchors)
        metrics.counter("fastpath.anchors_evaluated").inc(fp.anchors_evaluated)
        metrics.counter("fastpath.anchors_carried").inc(fp.anchors_carried)
        metrics.counter("fastpath.anchors_pruned").inc(fp.anchors_pruned)
        metrics.counter("fastpath.proposal_kept").inc(fp.proposal_kept)
        metrics.counter("fastpath.proposal_total").inc(fp.proposal_total)


@dataclass
class EngineRun:
    """Outcome of :meth:`DetectionEngine.run`: results plus the aggregate."""

    results: list[FrameResult]
    report: BatchReport


def batch_report(results: Iterable[FrameResult], wall_s: float | None = None) -> BatchReport:
    """Aggregate per-frame results into a :class:`BatchReport`.

    Sums every level's Fig. 7 rejection histogram on top of the schedule
    aggregation done by :meth:`BatchReport.from_schedules`.  Frames that
    rode one fused device batch (``result.device_batch`` set) share a
    single fused schedule — it is aggregated once, not once per frame;
    per-frame schedules (including fast-path replays of a cached
    schedule) keep their one-entry-per-frame accounting.
    """
    results = list(results)
    rejections: np.ndarray | None = None
    for frame in results:
        for kr in frame.kernel_results:
            hist = np.asarray(kr.rejections_by_depth, dtype=np.int64)
            if rejections is None:
                rejections = hist.copy()
            elif hist.shape == rejections.shape:
                rejections += hist
    schedules = []
    seen_fused: set[int] = set()
    for frame in results:
        if frame.device_batch is not None:
            key = id(frame.schedule)
            if key in seen_fused:
                continue
            seen_fused.add(key)
        schedules.append(frame.schedule)
    return BatchReport.from_schedules(
        schedules,
        rejections_by_depth=rejections,
        wall_s=wall_s,
    )


# ---------------------------------------------------------------------------
# executors: one primitive, submit_batch(index, lumas, ...) -> Future[list]


class _InlineExecutor:
    """``workers=0``: every group runs on the caller's thread at submission."""

    broken = False

    def __init__(self, run) -> None:
        self._run = run

    def submit_batch(self, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(self._run(*args))
        except Exception as exc:  # surfaced through the future, like a pool
            future.set_exception(exc)
        return future

    def close(self, wait: bool = True) -> None:
        pass


class _ThreadExecutor(_InlineExecutor):
    """A persistent worker-thread pool sharing the engine's workspaces.

    Kept across :meth:`DetectionEngine.process_frames` / ``submit``
    calls, so long-lived feeders (the serving micro-batcher) pay thread
    start-up once, not per batch.
    """

    def __init__(self, run, workers: int) -> None:
        super().__init__(run)
        self.pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="repro-engine")

    def submit_batch(self, *args) -> Future:
        return self.pool.submit(self._run, *args)

    def close(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait)


class _ProcessExecutor:
    """A persistent worker-process pool plus the shared frame ring.

    Each worker builds its pipeline once from a picklable
    :class:`~repro.detect.shard.WorkerSpec` and keeps its workspace
    across groups.  A group ships as one :func:`~repro.detect.shard.
    process_shard` call whose lanes each ride the ring when a slot is
    free and are pickled inline otherwise; a lane's slot is released
    when its group's reply arrives.  ``finish`` turns a
    :class:`~repro.detect.shard.ShardReply` into the group's results on
    the parent side (spans, metrics).

    A dead worker breaks the whole executor: every affected future
    resolves with :class:`~repro.errors.WorkerCrashError`, and the
    engine tears pool and ring down and builds a fresh executor on its
    next run.
    """

    broken = False

    def __init__(self, spec: WorkerSpec, workers: int, start_method: str, slots: int, finish):
        self.pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(start_method),
            initializer=init_worker,
            initargs=(spec,),
        )
        self.ring: SharedFrameRing | None = None
        self._slots = slots
        self._start_method = start_method
        self._finish = finish
        self._lock = threading.Lock()

    def _stash(self, luma: np.ndarray) -> SlotTicket | None:
        """Place a lane in the ring; ``None`` -> pickle fallback.

        The ring is sized on first use: ``max_in_flight`` slots of the
        first frame's byte size.  Lanes arriving when every slot is
        taken (unbounded ``submit`` callers) or too large for a slot
        (mixed-resolution streams) ship inline instead.
        """
        with self._lock:
            if self.ring is None:
                self.ring = SharedFrameRing(self._slots, int(luma.nbytes))
            return self.ring.put(luma) if self.ring.free_slots else None

    def _release(self, tickets: list[SlotTicket | None]) -> None:
        with self._lock:
            for ticket in tickets:
                if ticket is not None:
                    self.ring.release(ticket)

    def _crash(self, exc: BaseException) -> WorkerCrashError:
        # Only mark the executor broken: on Python >= 3.12 the pool fails
        # its futures (running these callbacks) under its shutdown lock,
        # so the teardown is left to the engine's next run or close().
        self.broken = True
        err = WorkerCrashError(
            f"engine worker process died (start method {self._start_method!r}); "
            f"the pool will be torn down and rebuilt on the next run"
        )
        err.__cause__ = exc
        return err

    def submit_batch(self, index, lumas, mode, submit_ts, span_args) -> Future:
        outer: Future = Future()
        tickets = [self._stash(luma) for luma in lumas]
        lanes = [luma if t is None else t for t, luma in zip(tickets, lumas)]
        try:
            inner = self.pool.submit(process_shard, index, lanes, mode, submit_ts, span_args)
        except BrokenProcessPool as exc:
            # a dead worker can break the pool before this group's reply
            # (or any earlier one) is observed
            self._release(tickets)
            outer.set_exception(self._crash(exc))
            return outer

        def complete(f: Future) -> None:
            self._release(tickets)
            try:
                outer.set_result(self._finish(f.result()))
            except BrokenProcessPool as exc:
                outer.set_exception(self._crash(exc))
            except Exception as exc:
                outer.set_exception(exc)

        inner.add_done_callback(complete)
        return outer

    def close(self, wait: bool = True) -> None:
        self.pool.shutdown(wait=wait, cancel_futures=True)
        with self._lock:
            if self.ring is not None:
                self.ring.close()


class DetectionEngine:
    """Run many frames through one pipeline with N frames in flight.

    Parameters
    ----------
    pipeline:
        The shared :class:`FaceDetectionPipeline` (read-only per frame).
    workers:
        Worker threads.  ``0`` processes frames inline (still through one
        reusable workspace); ``None`` uses ``os.cpu_count()``.
    queue_depth:
        Extra frames in flight beyond the worker count.  Bounds memory:
        the source iterator is only advanced when an in-flight slot frees
        (backpressure), and at most ``max(workers, 1) + queue_depth``
        frames exist at once.
    mode:
        Execution mode for the simulated schedules; defaults to the
        pipeline's configured mode.
    sharding:
        :class:`ShardingMode` (or its name): ``threads`` | ``processes``
        | ``auto``.  Process sharding runs a *persistent* worker-process
        pool — each worker rebuilds the pipeline once from the picklable
        :meth:`~repro.detect.pipeline.FaceDetectionPipeline.spec` and
        keeps its workspace across frames — and moves frame pixels
        through a shared-memory ring instead of pickling them.  Call
        :meth:`close` (or use the engine as a context manager) when done
        so the pool and the ring are torn down promptly.
    start_method:
        Multiprocessing start method for process sharding.  Defaults to
        ``REPRO_START_METHOD`` or ``spawn`` (the strictest semantics:
        what macOS/Windows enforce).
    tracer:
        Span tracer shared by every worker workspace; each group is
        wrapped in a ``frame`` span (carrying its first frame's index,
        the Chrome exporter's anchor) around the per-stage spans.
        Defaults to the pipeline's tracer (normally the no-op
        :data:`NULL_TRACER`).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry` receiving
        per-frame queue-wait / latency / ordered-emit histograms, the
        in-flight gauge, and counters bridged from the simulated layer
        (Fig. 7 stage-1 rejections, branch counters).
    """

    def __init__(
        self,
        pipeline: FaceDetectionPipeline,
        *,
        workers: int | None = None,
        queue_depth: int = 2,
        mode: ExecutionMode | None = None,
        sharding: ShardingMode | str = ShardingMode.THREADS,
        start_method: str | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        fastpath_stream: str | None = "default",
        batch_across_frames: bool = False,
        device_batch: int | None = None,
    ) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if queue_depth < 0:
            raise ConfigurationError(f"queue_depth must be >= 0, got {queue_depth}")
        if device_batch is not None and device_batch < 1:
            raise ConfigurationError(f"device_batch must be >= 1, got {device_batch}")
        self._pipeline = pipeline
        self._workers = workers
        self._queue_depth = queue_depth
        self._mode = mode
        self._requested_sharding = ShardingMode.coerce(sharding)
        self._sharding = self._requested_sharding.resolve(workers)
        start_method = (
            start_method or os.environ.get(START_METHOD_ENV) or DEFAULT_START_METHOD
        )
        if start_method not in multiprocessing.get_all_start_methods():
            raise ConfigurationError(
                f"unknown start method {start_method!r}; choose from "
                f"{multiprocessing.get_all_start_methods()}"
            )
        self._start_method = start_method
        #: stream identity handed to every worker workspace; ``None``
        #: disables temporal reuse (what the serving layer passes, since
        #: its frames come from many unrelated clients)
        self._fastpath_stream = fastpath_stream
        self._batch = bool(batch_across_frames)
        self._device_batch = device_batch
        self._tracer = tracer if tracer is not None else pipeline.tracer
        self._metrics = metrics
        self._free: list[FrameWorkspace] = []
        self._lock = threading.Lock()
        self._executor: _InlineExecutor | _ProcessExecutor | None = None
        self._outstanding: set[Future] = set()
        self._submit_count = 0

    @property
    def pipeline(self) -> FaceDetectionPipeline:
        return self._pipeline

    @property
    def backend(self) -> ComputeBackend:
        """The pipeline's compute backend (shared by every workspace)."""
        return self._pipeline.backend

    @property
    def compute_device(self) -> str:
        """Device kind the numeric kernels run on (``cpu``/``cuda``/``mps``)."""
        return self._pipeline.compute_device

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def sharding(self) -> ShardingMode:
        """The concrete sharding mode (``AUTO`` already resolved)."""
        return self._sharding

    @property
    def requested_sharding(self) -> ShardingMode:
        """The mode as configured, before ``AUTO`` resolution."""
        return self._requested_sharding

    @property
    def start_method(self) -> str:
        """The multiprocessing start method process sharding uses."""
        return self._start_method

    @property
    def max_in_flight(self) -> int:
        """Upper bound on simultaneously materialised frames.

        With ``batch_across_frames`` and an explicit ``device_batch``,
        the window widens to at least one full device batch — batch
        formation must be able to materialise the frames it fuses.
        """
        base = max(self._workers, 1) + self._queue_depth
        if self._batch and self._device_batch is not None:
            return max(base, self._device_batch)
        return base

    @property
    def batch_across_frames(self) -> bool:
        """Whether in-flight frames fuse into device batches."""
        return self._batch

    @property
    def device_batch(self) -> int:
        """Frames fused per device batch (defaults to the in-flight window)."""
        if self._device_batch is not None:
            return self._device_batch
        return max(self._workers, 1) + self._queue_depth

    # -- executor lifecycle ---------------------------------------------------

    def close(self) -> None:
        """Tear down the persistent worker pool and the frame ring.

        Idempotent.  The engine remains usable — the next run lazily
        rebuilds whatever executor its sharding mode needs.
        """
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.close()

    def __enter__(self) -> "DetectionEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def _ensure_executor(self) -> _InlineExecutor | _ProcessExecutor:
        """The executor for this engine's mode, rebuilt after a crash."""
        executor = self._executor
        if executor is None or executor.broken:
            if executor is not None:
                executor.close(wait=False)
            if self._workers == 0:
                executor = _InlineExecutor(self._run_group)
            elif self._sharding is ShardingMode.PROCESSES:
                executor = self._start_processes()
            else:
                executor = _ThreadExecutor(self._run_group, self._workers)
            self._executor = executor
        return executor

    def _start_processes(self) -> _ProcessExecutor:
        spec = WorkerSpec(
            pipeline=self._pipeline.spec(),
            tracing=self._tracer.enabled,
            trace_origin=self._tracer.origin,
            stream=self._fastpath_stream,
        )
        executor = _ProcessExecutor(
            spec, self._workers, self._start_method, self.max_in_flight, self._finish_reply
        )
        if self._pipeline.backend.capabilities.device_bound:
            self._verify_worker_probes(executor.pool)
        return executor

    def _verify_worker_probes(self, pool) -> None:
        """Refuse to shard a device-bound backend that workers can't probe.

        A spawn child re-resolves the pinned ``(backend, device)`` from
        scratch; device handles do not survive the process boundary, so
        the pool is only trusted after every worker slot has answered a
        :func:`~repro.detect.shard.probe_shard` round-trip with the same
        backend and device the parent resolved.  Any initializer failure
        or mismatch shuts the pool down and raises with both sides'
        probe evidence instead of letting frames silently fall back.
        """
        expected_backend = self._pipeline.backend.name
        expected_device = self._pipeline.compute_device
        parent_report = self._pipeline.probe_report
        parent_path = parent_report.path if parent_report is not None else "(none)"
        futures = [pool.submit(probe_shard) for _ in range(self._workers)]
        try:
            replies = [f.result() for f in futures]
        except BaseException as exc:
            pool.shutdown(wait=True, cancel_futures=True)
            raise ConfigurationError(
                f"cannot shard device-bound backend {expected_backend!r} "
                f"({expected_device}) across processes: worker probe failed "
                f"({exc}); parent probe path: {parent_path}"
            ) from exc
        for reply in replies:
            if (
                reply["backend"] != expected_backend
                or reply["device"] != expected_device
            ):
                pool.shutdown(wait=True, cancel_futures=True)
                raise ConfigurationError(
                    f"cannot shard device-bound backend {expected_backend!r} "
                    f"({expected_device}) across processes: worker pid "
                    f"{reply['pid']} resolved {reply['backend']!r} "
                    f"({reply['device']}) via {reply['probe_path']}; "
                    f"parent probe path: {parent_path}"
                )

    # -- the one primitive: a group of same-shaped lanes on one workspace ----

    def _checkout(self) -> FrameWorkspace:
        with self._lock:
            if self._free:
                return self._free.pop()
        return self._pipeline.make_workspace(
            tracer=self._tracer, stream=self._fastpath_stream
        )

    def _release(self, workspace: FrameWorkspace) -> None:
        with self._lock:
            self._free.append(workspace)

    def _span_args(self, index: int, n: int, trace: str | None) -> dict:
        args: dict = {"frame": index}
        if self._batch:
            args["batch"] = n
        if trace is not None:
            args["trace"] = trace
        return args

    def _process_group(self, workspace, lumas: list[np.ndarray], mode: ExecutionMode | None):
        """Run one group on one workspace (overridable for tests)."""
        return workspace.process_batch(lumas, mode)

    def _run_group(
        self,
        index: int,
        lumas: list[np.ndarray],
        mode: ExecutionMode | None,
        submit_ts: float | None,
        span_args: dict,
    ) -> list[FrameResult]:
        """The inline and thread executors' unit of work.

        Checks out a workspace, runs the group under one ``frame`` span
        and records its metrics; :func:`~repro.detect.shard.
        process_shard` is the same step inside a worker process.
        """
        workspace = self._checkout()
        try:
            start = time.perf_counter()
            with self._tracer.span("frame", cat="engine", **span_args):
                execution = self._process_group(workspace, lumas, mode)
            worker = threading.current_thread().name
            for result in execution.results:
                if hasattr(result, "worker"):
                    result.worker = worker
            queue_wait = None if submit_ts is None else start - submit_ts
            self._record(execution, time.perf_counter() - start, queue_wait)
            return execution.results
        finally:
            self._release(workspace)

    def _finish_reply(self, reply: ShardReply) -> list[FrameResult]:
        """Parent-side completion of one worker group: spans and metrics."""
        if self._tracer.enabled and reply.spans:
            self._tracer.extend(reply.spans)
        self._record(reply.execution, reply.latency_s, reply.queue_wait_s)
        return reply.execution.results

    def _record(self, execution, elapsed: float, queue_wait: float | None) -> None:
        """One group's metrics, identical whichever executor ran it.

        ``engine.frame_latency_s`` observes the *amortised* per-frame
        time once per frame (so means and percentiles stay per-frame
        quantities).  Device-batched engines add ``engine.batch_size``
        and the ``engine.device_*`` counters mirroring the group's
        :class:`~repro.detect.devicebatch.TransferStats`.
        """
        metrics = self._metrics
        if metrics is None:
            return
        if queue_wait is not None:
            metrics.histogram("engine.queue_wait_s").observe(queue_wait)
        n = len(execution.results)
        latency = metrics.histogram("engine.frame_latency_s")
        for _ in range(n):
            latency.observe(elapsed / n)
        metrics.counter("engine.frames").inc(n)
        if self._batch:
            metrics.counter("engine.batched_frames").inc(n)
            metrics.histogram("engine.batch_size").observe(n)
            metrics.counter("engine.device_batches").inc()
            if execution.fused:
                metrics.counter("engine.device_batches_fused").inc()
            transfers = execution.transfers
            metrics.counter("engine.device_transfers").inc(transfers.h2d + transfers.d2h)
            metrics.counter("engine.device_transfers_saved").inc(transfers.saved)
        _bridge_results_metrics(metrics, execution.results)

    # -- the ordered, backpressured window -----------------------------------

    def process_frames(
        self, frames: Iterable, mode: ExecutionMode | None = None
    ) -> Iterator[FrameResult]:
        """Yield one :class:`FrameResult` per frame, in input order.

        Frames are grouped (groups of one, or device batches of up to
        :attr:`device_batch` consecutive same-shaped frames with
        ``batch_across_frames`` on) and each group goes to the executor
        as one submission.  Output order is the submission order by
        construction (a FIFO of futures), independent of which worker
        finishes first.  Backpressure counts frames, not groups: the
        source is only advanced while fewer than :attr:`max_in_flight`
        frames are pending.  A dead worker process surfaces as
        :class:`~repro.errors.WorkerCrashError` — never a hang — and the
        next run rebuilds the pool.
        """
        mode = mode or self._mode
        metrics = self._metrics
        executor = self._ensure_executor()
        pooled = self._workers > 0
        # inline groups are already done at submission: emit them at once
        limit = self.max_in_flight if pooled else 1
        in_flight = metrics.gauge("engine.in_flight") if metrics is not None and pooled else None
        # emit wait is a per-frame histogram: only groups of one observe it
        done_at: dict | None = {} if metrics is not None and pooled and not self._batch else None
        pending: deque[tuple[Future, int]] = deque()
        frames_pending = 0

        def emit() -> list[FrameResult]:
            nonlocal frames_pending
            future, count = pending.popleft()
            results = future.result()
            frames_pending -= count
            if done_at is not None:
                done_ts = done_at.pop(future, None)
                if done_ts is not None:
                    metrics.histogram("engine.emit_wait_s").observe(
                        max(0.0, time.perf_counter() - done_ts)
                    )
            if in_flight is not None:
                in_flight.set(frames_pending)
            return results

        max_batch = self.device_batch if self._batch else 1
        try:
            for index, lumas in _iter_groups(frames, max_batch):
                submit_ts = time.perf_counter() if pooled else None
                future = executor.submit_batch(
                    index, lumas, mode, submit_ts, self._span_args(index, len(lumas), None)
                )
                if done_at is not None:
                    future.add_done_callback(
                        lambda f: done_at.__setitem__(f, time.perf_counter())
                    )
                pending.append((future, len(lumas)))
                frames_pending += len(lumas)
                if in_flight is not None:
                    in_flight.set(frames_pending)
                while pending and frames_pending >= limit:
                    yield from emit()
            while pending:
                yield from emit()
        finally:
            # abandoned or failed mid-run: no group is still running (or
            # holding a ring slot) once the call is over
            while pending:
                future, _count = pending.popleft()
                try:
                    future.result()
                except Exception:
                    pass

    def run(self, frames: Iterable, mode: ExecutionMode | None = None) -> EngineRun:
        """Process every frame and aggregate the batch report."""
        results = list(self.process_frames(frames, mode))
        return EngineRun(results=results, report=batch_report(results))

    # -- the long-lived submission hooks --------------------------------------

    def _untrack(self, future: Future) -> None:
        with self._lock:
            self._outstanding.discard(future)

    def submit(
        self,
        frame,
        mode: ExecutionMode | None = None,
        *,
        trace: str | None = None,
    ) -> "Future[FrameResult]":
        """Submit one frame to the persistent executor; returns a future.

        ``submit_batch([frame])[0]``: the long-lived feeding hook for
        callers that do not have their whole frame stream up front.
        """
        return self.submit_batch([frame], mode, traces=[trace])[0]

    def submit_batch(
        self,
        frames,
        mode: ExecutionMode | None = None,
        *,
        traces: list[str | None] | None = None,
    ) -> "list[Future[FrameResult]]":
        """Submit a coalesced request batch; one future per frame.

        The serving micro-batcher's hook.  Frames are grouped exactly as
        in :meth:`process_frames` (device batches with
        ``batch_across_frames`` on, groups of one otherwise) and each
        group's results fan out to per-frame futures, which resolve in
        any order but map 1:1 onto ``frames``.  Unlike
        :meth:`process_frames` it never rebuilds executors or workspaces
        per call — both persist until :meth:`close` — and it applies
        **no backpressure**; the caller owns admission control.

        ``traces`` carries each frame's request trace id: a group's
        first non-``None`` id is attached to its worker-side ``frame``
        span (thread *and* process sharding, so the merged Chrome trace
        carries it), and each result's ``worker`` field names the thread
        or worker pid that ran it.  Under process sharding lanes ride
        the shared-memory ring while a slot is free (pickle transport
        otherwise), and a dead worker resolves every future of its group
        with :class:`~repro.errors.WorkerCrashError`.
        """
        mode = mode or self._mode
        lumas = [_as_luma(frame) for frame in frames]
        if traces is not None and len(traces) != len(lumas):
            raise ConfigurationError(
                f"traces ({len(traces)}) must match frames ({len(lumas)})"
            )
        executor = self._ensure_executor()
        max_batch = self.device_batch if self._batch else 1
        futures: "list[Future[FrameResult]]" = []
        for start, group in _iter_groups(lumas, max_batch):
            group_traces = traces[start : start + len(group)] if traces else ()
            trace = next((t for t in group_traces if t is not None), None)
            with self._lock:
                index = self._submit_count
                self._submit_count += len(group)
            inner = executor.submit_batch(
                index, group, mode, time.perf_counter(), self._span_args(index, len(group), trace)
            )
            outer = [Future() for _ in group]
            with self._lock:
                self._outstanding.update(outer)
            for future in outer:
                future.add_done_callback(self._untrack)
            inner.add_done_callback(partial(_fan_out, outer))
            futures.extend(outer)
        return futures

    def drain(self) -> None:
        """Block until every :meth:`submit`-ted frame has completed.

        Exceptions stay in their futures — drain only waits.  New
        submissions racing a drain are waited for too (the loop repeats
        until the outstanding set is observed empty).
        """
        while True:
            with self._lock:
                pending = list(self._outstanding)
            if not pending:
                return
            futures_wait(pending)


def _fan_out(outer: "list[Future[FrameResult]]", inner: Future) -> None:
    """Resolve a group's per-frame futures from its group future."""
    try:
        results = inner.result()
    except Exception as exc:
        for future in outer:
            future.set_exception(exc)
        return
    for future, result in zip(outer, results):
        future.set_result(result)
