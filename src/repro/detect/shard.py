"""Worker-process side of the process-sharded detection engine.

One pool worker == one long-lived :class:`~repro.detect.engine.
FrameWorkspace`, mirroring the paper's resident per-stream kernel state:
the pool initializer (:func:`init_worker`) builds the pipeline *once*
from a picklable :class:`~repro.detect.pipeline.PipelineSpec` — cascade
re-encoded to constant memory locally, backend re-resolved from the
registry — and every subsequent group of frames (one frame, or one
device batch) ships through the single worker function
:func:`process_shard`: a tiny :class:`~repro.video.shm.SlotTicket` per
lane in, one :class:`ShardReply` out.

Everything here must stay importable by ``spawn`` children with no
engine state attached: module-level functions only (``fork`` would
tolerate closures; ``spawn`` — the macOS/Windows default this engine
defaults to everywhere — does not).

Tracing: the worker's tracer is constructed with the *parent's* origin
(``perf_counter`` reads a system-wide monotonic clock), so spans land on
the parent timeline directly; each reply carries the group's spans
re-tagged with the worker pid, giving the merged Chrome trace one lane
per worker process.

Fault injection: ``REPRO_ENGINE_TEST_CRASH_INDEX`` (hard-kill the worker
at frame N) and ``REPRO_ENGINE_TEST_DELAY_S`` (``"idx:seconds,..."``
per-frame sleeps) fire on any lane of any group, so the tests exercise
crash surfacing and out-of-order completion through real process
boundaries for single frames and device batches alike.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.detect.pipeline import PipelineSpec
from repro.errors import ConfigurationError
from repro.gpusim.scheduler import ExecutionMode
from repro.obs.tracer import Span, Tracer
from repro.video.shm import SlotTicket, attach_view

if TYPE_CHECKING:  # devicebatch imports the engine, which imports this module
    from repro.detect.devicebatch import BatchExecution

__all__ = [
    "WorkerSpec",
    "ShardReply",
    "init_worker",
    "process_shard",
]

CRASH_INDEX_ENV = "REPRO_ENGINE_TEST_CRASH_INDEX"
DELAY_ENV = "REPRO_ENGINE_TEST_DELAY_S"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its resident state, picklable."""

    pipeline: PipelineSpec
    #: record per-stage spans (parent tracer enabled)
    tracing: bool = False
    #: parent tracer's ``perf_counter`` origin — the shared timeline zero
    trace_origin: float = 0.0
    #: fast-path stream identity for the workspace's temporal delta
    #: cache (``None`` disables temporal reuse in this worker)
    stream: str | None = "default"


@dataclass
class ShardReply:
    """One group of lanes coming back from a worker process.

    ``execution`` is the worker's whole
    :class:`~repro.detect.devicebatch.BatchExecution`; pickling keeps a
    fused schedule *shared* across the group's results (references
    within one pickle are preserved), so the parent's batch-aware
    aggregation still counts it once.
    """

    index: int
    execution: BatchExecution
    pid: int
    #: submit-to-start wait measured on the shared monotonic clock
    queue_wait_s: float
    #: worker-side processing time for the whole group
    latency_s: float
    #: the group's spans, pid-tagged and on the parent timeline
    spans: list[Span] | None = None


# Per-process resident state, created once by init_worker.  A plain dict
# (not dataclass instances on the engine) so spawn pickling never sees it.
_STATE: dict = {}


def init_worker(spec: WorkerSpec) -> None:
    """Pool initializer: build the resident workspace for this process."""
    tracer = Tracer(enabled=spec.tracing, origin=spec.trace_origin)
    pipeline = spec.pipeline.build(tracer=tracer)
    _STATE["workspace"] = pipeline.make_workspace(tracer=tracer, stream=spec.stream)
    _STATE["tracer"] = tracer
    _STATE["crash_index"] = _parse_crash_index()
    _STATE["delays"] = _parse_delays()


def _parse_crash_index() -> int | None:
    raw = os.environ.get(CRASH_INDEX_ENV)
    return int(raw) if raw else None


def _parse_delays() -> dict[int, float]:
    raw = os.environ.get(DELAY_ENV, "")
    delays: dict[int, float] = {}
    for item in raw.split(","):
        if ":" in item:
            idx, seconds = item.split(":", 1)
            delays[int(idx)] = float(seconds)
    return delays


def _pid_tagged(spans: list[Span], pid: int) -> list[Span]:
    """Rewrite span thread identity to the worker pid.

    Every worker process runs frames on its own MainThread, so raw
    thread names would collide across workers; one Chrome-trace lane per
    pid is the truthful picture of the sharded engine.
    """
    return [
        Span(
            name=s.name,
            cat=s.cat,
            start_us=s.start_us,
            dur_us=s.dur_us,
            thread_id=pid,
            thread_name=f"pid {pid}",
            args={**s.args, "pid": pid},
        )
        for s in spans
    ]


def process_shard(
    index: int,
    lanes: list,
    mode: ExecutionMode | None,
    submit_ts: float,
    span_args: dict,
) -> ShardReply:
    """Run one group of same-shaped lanes inside a pool worker.

    The worker-side twin of the engine's thread/inline group step.
    Each lane is a :class:`~repro.video.shm.SlotTicket` into the shared
    ring or, when no slot was free, the pickled array itself; lane ``i``
    is frame ``index + i``.  ``span_args`` is the parent-built argument
    set of the group's ``frame`` span (index, device-batch size, the
    request's trace id under serving), so the merged Chrome trace reads
    the same whichever executor ran the group.
    """
    workspace = _STATE.get("workspace")
    if workspace is None:
        raise ConfigurationError("worker used before init_worker ran")
    start = time.perf_counter()
    for lane in range(index, index + len(lanes)):
        if _STATE["crash_index"] == lane:
            # fault injection: die the way a real segfault/OOM kill would —
            # no exception, no cleanup — so the engine's crash surfacing is
            # tested against the worst case, not a polite error.
            os._exit(1)
        delay = _STATE["delays"].get(lane)
        if delay:
            time.sleep(delay)
    lumas = [attach_view(lane) if isinstance(lane, SlotTicket) else lane for lane in lanes]
    tracer: Tracer = _STATE["tracer"]
    with tracer.span("frame", cat="engine", **span_args):
        execution = workspace.process_batch(lumas, mode)
    pid = os.getpid()
    for result in execution.results:
        result.worker = f"pid {pid}"
    latency = time.perf_counter() - start
    spans = None
    if tracer.enabled:
        spans = _pid_tagged(tracer.drain(), pid)
    return ShardReply(
        index=index,
        execution=execution,
        pid=pid,
        queue_wait_s=max(0.0, start - submit_ts),
        latency_s=latency,
        spans=spans,
    )
