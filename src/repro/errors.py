"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so callers
can catch library failures without also swallowing programming mistakes such
as :class:`TypeError`.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "LaunchError",
    "MemoryModelError",
    "CascadeFormatError",
    "TrainingError",
    "ZooError",
    "BitstreamError",
    "EvaluationError",
    "WorkerCrashError",
    "ServeError",
    "BadRequestError",
    "RequestSheddedError",
    "DeadlineExpiredError",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration value is missing, inconsistent, or out of range."""


class LaunchError(ReproError):
    """A simulated kernel launch was invalid (grid/block/resource limits)."""


class MemoryModelError(ReproError):
    """An access violated the simulated GPU memory model."""


class CascadeFormatError(ReproError):
    """A cascade file or in-memory cascade description is malformed."""


class TrainingError(ReproError):
    """Boosted-cascade training could not meet its targets or inputs."""


class ZooError(ReproError):
    """A model-zoo operation failed (unknown model, corrupt manifest,
    checkpoint/recipe mismatch, or an invalid store layout)."""


class BitstreamError(ReproError):
    """A mock H.264 bitstream is malformed or cannot be demuxed."""


class EvaluationError(ReproError):
    """Accuracy evaluation received inconsistent detections/annotations."""


class WorkerCrashError(ReproError):
    """An engine worker process died mid-batch (never a silent hang)."""


class ServeError(ReproError):
    """Base class for the :mod:`repro.serve` detection service."""


class BadRequestError(ServeError):
    """A client request is malformed (maps to an HTTP 4xx, never a 500)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class RequestSheddedError(ServeError):
    """Admission control refused the request (HTTP 429 + ``Retry-After``).

    ``reason`` distinguishes the bound that tripped (``"queue"`` /
    ``"concurrency"`` / ``"deadline"``); ``retry_after_s`` is the
    back-off hint sent to the client.
    """

    def __init__(self, reason: str, retry_after_s: float) -> None:
        super().__init__(f"request shed ({reason}); retry after {retry_after_s:.3f}s")
        self.reason = reason
        self.retry_after_s = retry_after_s


class DeadlineExpiredError(RequestSheddedError):
    """An admitted request aged out in the queue before dispatch.

    Shed requests must fail fast: once a request has waited past its
    queue-deadline budget the client is better served by an immediate
    429 than by stale work that completes after it stopped listening.
    """

    def __init__(self, waited_s: float, budget_s: float, retry_after_s: float) -> None:
        RequestSheddedError.__init__(self, "deadline", retry_after_s)
        self.args = (
            f"request spent {waited_s:.3f}s queued, over its {budget_s:.3f}s "
            f"deadline budget; shed before dispatch",
        )
        self.waited_s = waited_s
        self.budget_s = budget_s
