"""Cache directory for trained cascades and experiment outputs.

Cascade training is the reproduction's only expensive offline step (the
paper quotes days for the real thing), so its outputs persist under
``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-facedetect``) and runs
after the first are fast.  The versioned model zoo
(``repro.zoo.store``) keeps its store there, and adopts any pre-zoo
flat-cache blobs it finds in the same directory.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["artifact_dir"]

_ENV_VAR = "REPRO_CACHE_DIR"


def artifact_dir() -> Path:
    """The cache directory (created on first use)."""
    root = os.environ.get(_ENV_VAR)
    path = Path(root) if root else Path.home() / ".cache" / "repro-facedetect"
    path.mkdir(parents=True, exist_ok=True)
    return path
