"""Pluggable compute backends for the Fig. 1 per-frame numeric kernels.

Public surface:

* :class:`~repro.backend.base.ComputeBackend` and the plan/evaluator
  ABCs — the seam every implementation fills in;
* the registry (:func:`get_backend`, :func:`resolve_backend`,
  :func:`register_backend`, :func:`available_backends`), a name ->
  factory table with the ``REPRO_BACKEND`` env override;
* the two built-in CPU kernel sets, both bit-exact: ``reference`` (the
  original NumPy code, the byte-identity oracle) and ``vectorized``
  (batched cascade evaluation, faster, byte-identical);
* :func:`~repro.backend.oracle.compare_backends` — the cross-backend
  byte differ the golden tests are built on.
"""

from __future__ import annotations

from repro.backend.base import (
    SPARSE_THRESHOLD,
    WINDOW_AREA,
    BilinearPlan,
    CascadeEvaluator,
    CascadeMaps,
    ComputeBackend,
    IntegralPlan,
)
from repro.backend.reference import ReferenceBackend
from repro.backend.registry import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ResolvedBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.backend.vectorized import VectorizedBackend
from repro.backend.warps import tile_warps

__all__ = [
    "SPARSE_THRESHOLD",
    "WINDOW_AREA",
    "BilinearPlan",
    "IntegralPlan",
    "CascadeMaps",
    "CascadeEvaluator",
    "ComputeBackend",
    "ReferenceBackend",
    "VectorizedBackend",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "ResolvedBackend",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
    "tile_warps",
]

# idempotent (replace=True): surviving importlib.reload matters more here
# than double-registration protection, which is for user-defined backends
register_backend("reference", ReferenceBackend, replace=True)
register_backend("vectorized", VectorizedBackend, replace=True)
