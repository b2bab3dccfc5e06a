"""CUDA stream bookkeeping.

Streams are ordered queues of kernel launches; launches in the same stream
execute back-to-back, launches in different streams may overlap when the
scheduler runs in concurrent mode.  The pipeline maps every pyramid scale to
its own stream (Section III-A / Fig. 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["Stream", "StreamManager"]


@dataclass(frozen=True)
class Stream:
    """Handle for a simulated CUDA stream."""

    stream_id: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.stream_id < 0:
            raise ConfigurationError("stream_id must be non-negative")


@dataclass
class StreamManager:
    """Allocates stream handles; stream 0 is the default (serialising) stream."""

    _streams: list[Stream] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self._streams:
            self._streams.append(Stream(0, "default"))

    @property
    def default(self) -> Stream:
        return self._streams[0]

    def create(self, label: str = "") -> Stream:
        """Create a new non-default stream."""
        stream = Stream(len(self._streams), label or f"stream{len(self._streams)}")
        self._streams.append(stream)
        return stream

    def __len__(self) -> int:
        return len(self._streams)

    def labels(self) -> list[str]:
        return [s.label for s in self._streams]
