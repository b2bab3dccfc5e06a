"""Backend registry: a name -> factory table.

Selection precedence, highest first:

1. an explicit name (``PipelineConfig(backend="vectorized")``, CLI
   ``--backend``, a direct :func:`get_backend` call);
2. the ``REPRO_BACKEND`` environment variable (how CI runs the whole
   tier-1 suite once per backend);
3. :data:`DEFAULT_BACKEND`.

An unknown name raises a :class:`~repro.errors.ConfigurationError`
listing the registered names.  Backends must be stateless (plans carry
all state), so one instance per name is cached and shared across
pipelines and threads.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.backend.base import ComputeBackend
from repro.errors import ConfigurationError

__all__ = [
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "ResolvedBackend",
    "register_backend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "resolve_backend",
]

DEFAULT_BACKEND = "reference"

#: environment variable consulted when no explicit backend name is given
ENV_VAR = "REPRO_BACKEND"


@dataclass(frozen=True)
class ResolvedBackend:
    """The live backend instance :func:`resolve_backend` found."""

    backend: ComputeBackend


_lock = threading.Lock()
_factories: dict[str, Callable[[], ComputeBackend]] = {}
_instances: dict[str, ComputeBackend] = {}


def register_backend(
    name: str, factory: Callable[[], ComputeBackend], *, replace: bool = False
) -> None:
    """Register ``factory`` under ``name`` (lazily instantiated, cached)."""
    if not name or not name.isidentifier():
        raise ConfigurationError(f"backend name must be an identifier, got {name!r}")
    with _lock:
        if name in _factories and not replace:
            raise ConfigurationError(f"backend {name!r} is already registered")
        _factories[name] = factory
        _instances.pop(name, None)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    with _lock:
        return tuple(sorted(_factories))


def default_backend_name() -> str:
    """The name used when no explicit backend is requested (env-aware)."""
    return os.environ.get(ENV_VAR) or DEFAULT_BACKEND


def resolve_backend(prefer: str | None = None) -> ResolvedBackend:
    """Resolve ``prefer`` (or the env/default chain) to the cached instance."""
    name = prefer or default_backend_name()
    with _lock:
        instance = _instances.get(name)
        factory = _factories.get(name)
    if instance is None:
        if factory is None:
            raise ConfigurationError(
                f"unknown compute backend {name!r}; "
                f"choose from {list(available_backends())}"
            )
        instance = factory()
        with _lock:
            # another thread may have won the race; keep the first instance
            instance = _instances.setdefault(name, instance)
    return ResolvedBackend(backend=instance)


def get_backend(name: str | ComputeBackend | None = None) -> ComputeBackend:
    """:func:`resolve_backend`'s instance; a :class:`ComputeBackend` passes
    through unchanged, so call sites can thread either a name or an
    instance."""
    if isinstance(name, ComputeBackend):
        return name
    return resolve_backend(prefer=name).backend
