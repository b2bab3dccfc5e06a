"""The Fig. 1 face-detection pipeline.

Per decoded frame: build the image pyramid (scaling via texture fetches +
anti-alias filtering), compute per-level integral images (parallel prefix
sums + transposes), evaluate the cascade per level, and run the display
kernel.  Every pyramid level's kernel chain lives in its own CUDA stream;
:class:`~repro.gpusim.scheduler.ExecutionMode` selects the paper's serial
baseline or the concurrent-kernel-execution configuration.

The *simulated* GPU milliseconds reported in ``FrameResult.makespan_s`` are
what Table II and Fig. 5 plot; the functional results (detections, depth
maps) are identical in both modes, as the tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.backend import ComputeBackend, default_backend_name, resolve_backend
from repro.backend.base import DEVICE_ORDER
from repro.backend.registry import ProbeReport
from repro.detect.display import display_launch
from repro.detect.fastpath import FastpathConfig, FastpathFrameStats, resolve_fastpath
from repro.detect.grouping import RawDetection
from repro.detect.kernels import CascadeKernelResult, cascade_eval_kernel
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError
from repro.gpusim.device import GTX470, DeviceSpec
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import ConstantMemory
from repro.gpusim.scheduler import DeviceScheduler, ExecutionMode, ScheduleResult
from repro.haar.cascade import Cascade
from repro.haar.encoding import decode_cascade, encode_cascade
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.image.filtering import filtering_launch
from repro.image.integral import integral_launches
from repro.image.pyramid import PyramidConfig, PyramidLevel, build_pyramid, scaling_launch
from repro.utils.validation import check_shape_2d

__all__ = [
    "PipelineConfig",
    "PipelineSpec",
    "FrameResult",
    "FaceDetectionPipeline",
    "collect_raw_detections",
]


@dataclass(frozen=True)
class PipelineConfig:
    """Static pipeline parameters."""

    pyramid: PyramidConfig = field(default_factory=PyramidConfig)
    block_w: int = 16
    block_h: int = 16
    mode: ExecutionMode = ExecutionMode.CONCURRENT
    #: compute-backend registry name; ``None`` -> ``REPRO_BACKEND`` env var
    #: or the ``reference`` default (see :mod:`repro.backend.registry`)
    backend: str | None = None
    #: compute device kind for the backend probe: ``"cuda"``/``"mps"``/
    #: ``"cpu"`` restrict resolution to that device, ``"auto"`` walks
    #: CUDA -> MPS -> CPU, ``None`` keeps the backend's own device order.
    #: Distinct from :class:`~repro.gpusim.device.DeviceSpec` (the
    #: *simulated* GPU of the timing model) — this names the real device
    #: the numeric kernels execute on.
    device: str | None = None
    #: two-tier fast path: a :class:`~repro.detect.fastpath.FastpathConfig`,
    #: a policy name (``off`` | ``exact`` | ``fast``), or ``None`` ->
    #: ``REPRO_FASTPATH`` env var or ``off``
    fastpath: FastpathConfig | str | None = None

    def __post_init__(self) -> None:
        if self.block_w <= 0 or self.block_h <= 0:
            raise ConfigurationError("block dimensions must be positive")
        if self.device is not None and self.device != "auto" and self.device not in DEVICE_ORDER:
            raise ConfigurationError(
                f"unknown compute device {self.device!r}; "
                f"choose from {DEVICE_ORDER} or 'auto'"
            )


@dataclass(frozen=True)
class PipelineSpec:
    """A picklable recipe for rebuilding one pipeline in another process.

    The process-sharded engine ships this to each worker once (pool
    initializer), and the worker constructs its own
    :class:`FaceDetectionPipeline` from it — cascades are re-encoded to
    constant memory locally instead of re-pickling per frame, and the
    compute backend is re-resolved from the registry by name, so backend
    instances (which may own process-local buffers) never cross the
    boundary.  Construction is deterministic in the spec: two processes
    building the same spec evaluate byte-identical pipelines.
    """

    cascade: Cascade
    device: DeviceSpec = GTX470
    config: PipelineConfig = field(default_factory=PipelineConfig)

    def build(self, *, tracer: Tracer | None = None) -> "FaceDetectionPipeline":
        """Construct the pipeline this spec describes."""
        return FaceDetectionPipeline(
            self.cascade, self.device, self.config, tracer=tracer
        )


@dataclass
class FrameResult:
    """Everything one frame's pipeline pass produced."""

    raw_detections: list[RawDetection]
    schedule: ScheduleResult
    kernel_results: list[CascadeKernelResult]
    levels: list[PyramidLevel]
    #: what the two-tier fast path did (``None`` when the policy is off
    #: or the frame went through the one-shot baseline pipeline)
    fastpath: FastpathFrameStats | None = None
    #: which engine worker produced this frame (thread name or
    #: ``"pid <n>"``) — set by the engine for request attribution in the
    #: serving layer's logs; ``None`` outside the engine
    worker: str | None = None
    #: size of the fused device batch this frame rode in, ``None`` for
    #: the per-frame path.  Frames of one batch *share* their fused
    #: :class:`~repro.gpusim.scheduler.ScheduleResult`, and aggregation
    #: (:func:`~repro.detect.engine.batch_report`, the metrics bridge)
    #: uses this marker to count the shared schedule once
    device_batch: int | None = None
    #: zoo version of the model that served this frame
    #: (``model@version``) — stamped by the serving layer's
    #: :class:`~repro.detect.swap.EngineSlot`, which reads engine and
    #: version together so the tag is exact even at a hot-swap boundary;
    #: ``None`` outside the serving path
    model_version: str | None = None

    @property
    def detection_time_s(self) -> float:
        """Simulated GPU face-detection time (the Table II quantity)."""
        return self.schedule.makespan_s

    def stage_busy_seconds(self) -> dict[str, float]:
        """Per-pipeline-stage busy time, keyed by kernel tag.

        Overlap is not deducted — this is the per-kernel-duration breakdown
        used for the "integral images are ~20% of frame time" statistic.
        """
        out: dict[str, float] = {}
        for trace in self.schedule.timeline.traces:
            out[trace.tag] = out.get(trace.tag, 0.0) + trace.duration_s
        return out

    def rejection_matrix(self, n_stages: int) -> np.ndarray:
        """(levels, n_stages + 1) anchor counts by deepest-stage (Fig. 7)."""
        return np.stack([kr.rejections_by_depth[: n_stages + 1] for kr in self.kernel_results])


def collect_raw_detections(
    levels: list[PyramidLevel],
    results: list[CascadeKernelResult],
    window: int,
) -> list[RawDetection]:
    """Accepted anchors -> frame-space windows (Section III-D sizing).

    Shared by the pipeline and the batched :class:`~repro.detect.engine.
    DetectionEngine`, so both produce identical detection lists from
    identical kernel results.
    """
    raw: list[RawDetection] = []
    for level, result in zip(levels, results):
        ys, xs = result.accepted
        if ys.size == 0:
            continue
        scores = result.score_map[ys, xs]
        size = float(window * level.scale)
        # int64 -> float64 multiply matches float(x) * scale exactly, so the
        # batched form is bit-identical to the old per-pixel loop
        fx = (xs * level.scale).tolist()
        fy = (ys * level.scale).tolist()
        raw.extend(
            RawDetection(x=x, y=y, size=size, score=s)
            for x, y, s in zip(fx, fy, scores.tolist())
        )
    return raw


class FaceDetectionPipeline:
    """Reusable pipeline bound to one cascade and one device."""

    def __init__(
        self,
        cascade: Cascade,
        device: DeviceSpec = GTX470,
        config: PipelineConfig | None = None,
        *,
        tracer: Tracer | None = None,
    ) -> None:
        self._config = config or PipelineConfig()
        self._device = device
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # resolve eagerly so an unknown backend name fails at construction
        requested = self._config.backend
        if isinstance(requested, ComputeBackend):
            # an already-built instance threads straight through (no probe)
            self._backend = requested
            self._compute_device = requested.capabilities.device
            self._probe_report: ProbeReport | None = None
        elif self._config.device is None:
            # legacy chain: explicit name > REPRO_BACKEND > default, probed
            # over that backend's own declared devices only (no auto walk)
            resolved = resolve_backend(prefer=requested or default_backend_name())
            self._backend = resolved.backend
            self._compute_device = resolved.device
            self._probe_report = resolved.report
        else:
            resolved = resolve_backend(prefer=requested, device=self._config.device)
            self._backend = resolved.backend
            self._compute_device = resolved.device
            self._probe_report = resolved.report
        # same for the fast-path policy (explicit > REPRO_FASTPATH > off)
        self._fastpath = resolve_fastpath(self._config.fastpath)
        self._scheduler = DeviceScheduler(device)
        # Upload the packed cascade to constant memory: this both enforces
        # the 64 KiB budget (Section III-C) and makes the kernel evaluate
        # exactly what the GPU would see (quantised thresholds/votes).
        encoded = encode_cascade(cascade)
        constant = ConstantMemory(device)
        constant.upload(encoded.geometry, f"{cascade.name}/geometry")
        constant.upload(encoded.thresholds, f"{cascade.name}/thresholds")
        constant.upload(encoded.lefts, f"{cascade.name}/lefts")
        constant.upload(encoded.rights, f"{cascade.name}/rights")
        constant.upload(encoded.stage_lengths, f"{cascade.name}/stage_lengths")
        constant.upload(encoded.stage_thresholds, f"{cascade.name}/stage_thresholds")
        self._constant = constant
        self._cascade = decode_cascade(encoded)
        self._source_cascade = cascade

    @property
    def cascade(self) -> Cascade:
        """The cascade as evaluated on-device (after 16-bit quantisation)."""
        return self._cascade

    @property
    def backend(self) -> ComputeBackend:
        """The resolved compute backend owning the numeric kernels."""
        return self._backend

    @property
    def compute_device(self) -> str:
        """Device kind the numeric kernels run on (``cpu``/``cuda``/``mps``)."""
        return self._compute_device

    @property
    def probe_report(self) -> ProbeReport | None:
        """How the backend was resolved (``None`` for instance passthrough)."""
        return self._probe_report

    @property
    def config(self) -> PipelineConfig:
        return self._config

    @property
    def fastpath(self) -> FastpathConfig:
        """The resolved fast-path configuration (``off`` when disabled).

        Applied by :class:`~repro.detect.engine.FrameWorkspace`;
        :meth:`process_frame` (the one-shot path) always runs the
        baseline pipeline and stays the byte-identity oracle.
        """
        return self._fastpath

    @property
    def constant_memory(self) -> ConstantMemory:
        return self._constant

    @property
    def device(self) -> DeviceSpec:
        return self._device

    @property
    def scheduler(self) -> DeviceScheduler:
        """The device scheduler (stateless per ``run``; safe to share)."""
        return self._scheduler

    @property
    def tracer(self) -> Tracer:
        """The span tracer stages report to (:data:`NULL_TRACER` by default)."""
        return self._tracer

    def spec(self) -> PipelineSpec:
        """The picklable :class:`PipelineSpec` that rebuilds this pipeline.

        Carries the *source* cascade (pre-quantisation): ``build`` repeats
        the constant-memory encode/decode, so the rebuilt pipeline
        evaluates the identical quantised cascade.  The config is pinned
        to the *resolved* backend name and compute device, so a worker
        process re-probes exactly this candidate — and fails loudly if
        its environment cannot bring the same device up — instead of
        silently falling back to a different backend.
        """
        config = self._config
        if not isinstance(config.backend, ComputeBackend):
            config = replace(
                config, backend=self._backend.name, device=self._compute_device
            )
        return PipelineSpec(
            cascade=self._source_cascade, device=self._device, config=config
        )

    def make_workspace(self, tracer: Tracer | None = None, stream: str | None = "default"):
        """A reusable per-worker :class:`~repro.detect.devicebatch.BatchFrameWorkspace`.

        The workspace caches every expensive frame-independent artefact
        (pyramid resampling plans, block mappings, launch templates with
        precomputed cost cohorts, scratch buffers) across frames, and its
        functional output is float-identical to :meth:`process_frame`.
        Its ``process_batch`` additionally runs N same-shaped frames
        through the backend's fused batch kernels under one fused
        simulated schedule.  ``tracer`` overrides the pipeline's own span
        tracer.  ``stream`` names the video stream whose consecutive
        frames the fast path's temporal delta cache may diff; ``None``
        disables temporal reuse (unrelated frames — e.g. serving
        requests — must never delta against each other) while the
        stateless proposal screen still applies under the ``fast``
        policy.
        """
        from repro.detect.devicebatch import BatchFrameWorkspace

        return BatchFrameWorkspace(
            self,
            tracer=tracer if tracer is not None else self._tracer,
            stream=stream,
        )

    def process_frame(self, luma: np.ndarray, mode: ExecutionMode | None = None) -> FrameResult:
        """Run the full Fig. 1 pipeline over one luma frame."""
        return self.schedule_modes(luma, [mode or self._config.mode])[
            mode or self._config.mode
        ]

    def schedule_modes(
        self, luma: np.ndarray, modes: list[ExecutionMode]
    ) -> dict[ExecutionMode, FrameResult]:
        """Run the functional pipeline once, schedule it under each mode.

        The functional output (detections, depth maps) is mode-independent;
        only the timing layer differs, so Table II's serial-vs-concurrent
        comparison reuses one functional pass.
        """
        check_shape_2d("luma", np.asarray(luma))
        launches, kernel_results, levels, raw = self._prepare(luma)
        out: dict[ExecutionMode, FrameResult] = {}
        for mode in modes:
            with self._tracer.span("schedule"):
                schedule = self._scheduler.run(launches, mode)
            out[mode] = FrameResult(
                raw_detections=raw,
                schedule=schedule,
                kernel_results=kernel_results,
                levels=levels,
            )
        return out

    def _prepare(self, luma: np.ndarray):
        tracer = self._tracer
        backend = self._backend
        with tracer.span("pyramid.scale"):
            levels = build_pyramid(luma, self._config.pyramid, backend=backend)

        launches: list[KernelLaunch] = []
        kernel_results: list[CascadeKernelResult] = []
        for level in levels:
            stream = level.index + 1
            if level.index > 0:
                launches.append(
                    filtering_launch(level.width, level.height, stream, tag="filter")
                )
                launches.append(
                    scaling_launch(level.width, level.height, stream, tag="scaling")
                )
            with tracer.span("integral"):
                ii = backend.integral_image(level.image)
                sq = backend.squared_integral_image(level.image)
            launches.extend(
                integral_launches(level.height, level.width, stream, tag="integral")
            )
            mapping = BlockMapping(
                level_width=level.width,
                level_height=level.height,
                window=self._config.pyramid.window,
                block_w=self._config.block_w,
                block_h=self._config.block_h,
            )
            with tracer.span("cascade"):
                result = cascade_eval_kernel(
                    level.image,
                    self._cascade,
                    stream,
                    mapping=mapping,
                    integral=ii,
                    squared=sq,
                    name=f"cascade_s{level.index}",
                    backend=backend,
                )
            launches.append(result.launch)
            kernel_results.append(result)

        with tracer.span("grouping"):
            raw = self._collect_detections(levels, kernel_results)
        launches.append(
            display_launch(
                luma.shape[1],
                luma.shape[0],
                len(raw),
                stream=len(levels) + 1,
                # the display kernel reads every scale's depth array, so it
                # waits on all per-scale streams (stream-event dependency)
                wait_streams=tuple(range(1, len(levels) + 1)),
            )
        )
        return launches, kernel_results, levels, raw

    def _collect_detections(
        self, levels: list[PyramidLevel], results: list[CascadeKernelResult]
    ) -> list[RawDetection]:
        """Accepted anchors -> frame-space windows (Section III-D sizing)."""
        return collect_raw_detections(levels, results, self._config.pyramid.window)
