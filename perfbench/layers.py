"""Per-layer tracing from outside the program.

Nothing in ``src/`` is instrumented for the benchmark.  Instead a
:class:`LayerTrace` replaces the public entry points of each layer —
module functions, class methods, and the plan objects a backend hands
out — with wrappers that accumulate busy time, call counts and a few
work counters, then restores them.  Wrappers keep a per-thread stack, so
each layer's *self* time (its busy time minus the wrapped layers it
called) is known as well.

Times are busy time summed over every thread that ran the layer: with
two engine workers they can add up to more than wall time.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable

_ABSENT = object()

Observer = Callable[["LayerTrace", tuple, dict, object], None]


class _Timed:
    """A delegating proxy whose named methods report to a trace."""

    def __init__(self, target, trace: "LayerTrace", methods: dict) -> None:
        self._target = target
        for name, (layer, observe) in methods.items():
            setattr(self, name, trace.wrap(layer, getattr(target, name), observe))

    def __getattr__(self, name):
        return getattr(self._target, name)


class LayerTrace:
    """Busy seconds, self seconds, calls and counters per named layer.

    ``enabled`` switches recording on and off without unpatching, so one
    run can alternate traced and untraced stretches to measure the
    tracing overhead.  It is read when an outermost wrapped span (a
    frame, a decode) begins and holds for everything that span calls.
    Layers wrapped with ``always=True`` (one-off set-up work such as zoo
    loads) record regardless.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.busy: dict[str, float] = defaultdict(float)
        self.self_busy: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        #: busy time of spans entered while no other wrapped layer was
        #: active on the thread — the part of a caller's time the wrapped
        #: layers cover
        self.root_busy = 0.0
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def reset(self, keep_prefix: str | None = None) -> None:
        """Forget everything recorded, except layers named ``keep_prefix*``."""
        with self._lock:
            for table in (self.busy, self.self_busy, self.calls, self.counts):
                for name in list(table):
                    if keep_prefix is None or not name.startswith(keep_prefix):
                        del table[name]
            self.root_busy = 0.0

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(
        self, layer: str, fn: Callable, observe: Observer | None = None, *, always: bool = False
    ) -> Callable:
        trace = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(trace._tls, "stack", None)
            if stack is None:
                stack = trace._tls.stack = []
            if stack:
                if stack[-1] is None:  # inside an unrecorded outer span
                    return fn(*args, **kwargs)
            elif not (always or trace.enabled):
                # the outermost span decides for everything it calls, so
                # toggling mid-frame never records half a frame
                stack.append(None)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
            # [busy time of wrapped children, tracing cost to leave out]
            stack.append([0.0, 0.0])
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                trace._close(stack, layer, start, time.perf_counter())
                raise
            end = time.perf_counter()
            if observe is not None:
                observe(trace, args, kwargs, result)
            trace._close(stack, layer, start, end)
            return result

        return wrapper

    def _close(self, stack: list, layer: str, start: float, end: float) -> None:
        """Book one finished span; its bookkeeping is kept out of the callers."""
        children, excluded = stack.pop()
        elapsed = end - start - excluded
        with self._lock:
            self.busy[layer] += elapsed
            self.self_busy[layer] += elapsed - children
            self.calls[layer] += 1
            if not stack:
                self.root_busy += elapsed
        if stack:
            stack[-1][0] += elapsed
            stack[-1][1] += excluded + (time.perf_counter() - end)

    # -- patching -------------------------------------------------------------

    def _replace(self, owner, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, name, _ABSENT)
        if original is _ABSENT:
            # a later refactor renamed the entry point: report, don't crash
            where = f"{getattr(owner, '__name__', owner)}.{name}"
            self.missing.append(where)
            print(f"perfbench: cannot trace {where}: not found", file=sys.stderr)
            return
        own = vars(owner).get(name, _ABSENT) if hasattr(owner, "__dict__") else _ABSENT
        self._undo.append((owner, name, own))
        setattr(owner, name, make(original))

    def patch(
        self, owner, name: str, layer: str, observe: Observer | None = None, *, always: bool = False
    ) -> None:
        """Time every call of ``owner.name`` as ``layer``."""
        self._replace(owner, name, lambda fn: self.wrap(layer, fn, observe, always=always))

    def patch_factory(self, owner, name: str, methods: dict, context=None) -> None:
        """Make ``owner.name(...)`` return proxies with timed ``methods``.

        ``methods`` maps a method of the returned object to ``(layer,
        observe)``; with ``context`` set, ``observe`` is first bound to
        ``context(*factory_args)`` (e.g. the cascade a plan evaluates).
        """

        def make(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                target = factory(*args, **kwargs)
                bound = methods
                if context is not None:
                    ctx = context(*args, **kwargs)
                    bound = {
                        m: (layer, functools.partial(obs, ctx) if obs else None)
                        for m, (layer, obs) in methods.items()
                    }
                return _Timed(target, self, bound)

            return wrapper

        self._replace(owner, name, make)

    def restore(self) -> None:
        while self._undo:
            owner, name, own = self._undo.pop()
            if own is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, own)

    def totals(self) -> dict:
        with self._lock:
            return {
                "busy": dict(self.busy),
                "self_busy": dict(self.self_busy),
                "calls": dict(self.calls),
                "counts": dict(self.counts),
                "root_busy": self.root_busy,
                "missing": list(self.missing),
            }


# -- layer installers ---------------------------------------------------------


def _observe_cascade(n_stages: int, trace: LayerTrace, args, kwargs, maps) -> None:
    depth = maps.depth_map
    windows = int(depth.size)
    trace.count("backend.windows", windows)
    trace.count("backend.stage1_rejects", int((depth == 0).sum()))
    trace.count("backend.accepted", int((depth >= n_stages).sum()))
    # a window is evaluated in every stage it passed plus the one that
    # rejected it (accepted windows ran all n_stages)
    trace.count("backend.stages", int(depth.sum()) + windows - int((depth >= n_stages).sum()))


def _cascade_context(backend, cascade, *args, **kwargs) -> int:
    return int(cascade.num_stages)


def _observe_schedule(trace: LayerTrace, args, kwargs, result) -> None:
    launches = args[1] if len(args) > 1 else kwargs["launches"]
    trace.count("gpusim.launches", len(launches))
    trace.count("gpusim.blocks", sum(int(l.config.grid_blocks) for l in launches))


def _observe_collect(trace: LayerTrace, args, kwargs, raw) -> None:
    trace.count("detect.raw_detections", len(raw))


def install_detection(trace: LayerTrace) -> None:
    """Wrap video decode, pyramid, integral, cascade, scheduler, detect, zoo.

    Must run before the pipeline's workspaces build their plans: the
    backend hands plans out once per frame shape and only plans created
    after this call are timed.
    """
    from repro.backend.registry import default_backend_name, resolve_backend
    from repro.detect import engine, grouping, kernels
    from repro.gpusim.scheduler import DeviceScheduler
    from repro.video.decoder import HardwareDecoder
    from repro.zoo.store import ModelStore

    backend_cls = type(resolve_backend(prefer=default_backend_name()).backend)
    trace.patch(backend_cls, "antialias", "image.pyramid")
    trace.patch_factory(backend_cls, "make_bilinear_plan", {"apply": ("image.pyramid", None)})
    trace.patch_factory(backend_cls, "make_integral_plan", {"compute": ("backend.integral", None)})
    trace.patch_factory(
        backend_cls,
        "make_cascade_evaluator",
        {"evaluate": ("backend.cascade", _observe_cascade)},
        context=_cascade_context,
    )
    trace.patch(engine.FrameWorkspace, "process_frame", "detect.frame")
    # the kernel-result step around the evaluator: its self time is the
    # Fig. 7 rejection histogram and result packaging
    trace.patch(engine.FrameWorkspace, "_cascade_eval", "detect.kernel")
    trace.patch(engine, "collect_raw_detections", "detect.collect", _observe_collect)
    trace.patch(kernels.CascadeLaunchTemplate, "build", "detect.launch")
    trace.patch(engine, "display_launch", "detect.launch")
    trace.patch(grouping, "group_detections", "detect.group")
    trace.patch(DeviceScheduler, "run", "gpusim.schedule", _observe_schedule)
    trace.patch(HardwareDecoder, "decode", "video.decode")
    trace.patch(ModelStore, "load", "zoo.load", always=True)
    trace.patch(ModelStore, "publish", "zoo.publish", always=True)


def _observe_fit(trace: LayerTrace, args, kwargs, result) -> None:
    rounds = args[2] if len(args) > 2 else kwargs["n_rounds"]
    trace.count("boosting.rounds", int(rounds))


def _observe_bootstrap_eval(trace: LayerTrace, args, kwargs, result) -> None:
    cascade = args[0] if args else kwargs["cascade"]
    depth = result[0]
    trace.count("boosting.candidates", int(depth.size))
    trace.count("boosting.hard_negatives", int((depth == cascade.num_stages).sum()))


def install_training(trace: LayerTrace) -> None:
    """Wrap boosting rounds, responses, stumps, bootstrapping and zoo."""
    from repro.boosting import adaboost, cascade_trainer, gentleboost
    from repro.zoo import training
    from repro.zoo.store import ModelStore

    trace.patch(gentleboost.GentleBoost, "fit", "boosting.fit", _observe_fit)
    trace.patch(adaboost.AdaBoost, "fit", "boosting.fit", _observe_fit)
    trace.patch(gentleboost, "compute_responses", "boosting.responses")
    trace.patch(adaboost, "compute_responses", "boosting.responses")
    trace.patch(gentleboost, "fit_regression_stumps", "boosting.stumps")
    trace.patch(adaboost, "fit_classification_stumps", "boosting.stumps")
    trace.patch(cascade_trainer.CascadeTrainer, "_bootstrap", "boosting.bootstrap")
    trace.patch(
        cascade_trainer,
        "evaluate_cascade_on_windows",
        "boosting.bootstrap_eval",
        _observe_bootstrap_eval,
    )

    def timed_source(make_source):
        @functools.wraps(make_source)
        def wrapper(*args, **kwargs):
            return trace.wrap("boosting.negatives", make_source(*args, **kwargs))

        return wrapper

    trace._replace(training, "default_negative_source", timed_source)
    trace.patch(training, "render_training_chip", "data.faces")
    trace.patch(training, "subsampled_feature_pool", "haar.pool")
    trace.patch(training, "evaluate_recipe", "zoo.evaluate")
    trace.patch(training, "_save_checkpoint", "zoo.checkpoint")
    trace.patch(ModelStore, "load", "zoo.load", always=True)
    trace.patch(ModelStore, "publish", "zoo.publish", always=True)
