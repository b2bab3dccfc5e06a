"""HTTP/1.1 codec and detection wire format (stdlib only).

One deliberately small HTTP implementation shared by the server and the
load-test client: request parsing off an :class:`asyncio.StreamReader`,
response encoding, and the two frame payload forms ``POST /v1/detect``
accepts —

* a **raw frame**: a binary PGM (P5) / PPM (P6) body
  (``Content-Type: application/octet-stream`` or an ``image/*`` PNM
  type), decoded by :func:`repro.video.pnm.parse_pnm`;
* a **frame reference**: a JSON body naming a synthetic source the
  server renders locally — ``{"source": "synthetic", ...}`` for the
  throughput-benchmark scenes or ``{"source": "trailer", "trailer":
  "50/50", ...}`` for a Table II trailer frame — so a client can drive
  the exact deterministic workloads the benchmarks use without shipping
  pixels.

Every malformed input raises :class:`~repro.errors.BadRequestError`
carrying the HTTP status to send; the server maps those to 4xx
responses, so client mistakes can never surface as 500s.
"""

from __future__ import annotations

import json
from asyncio import IncompleteReadError, LimitOverrunError, StreamReader
from dataclasses import dataclass, field

import numpy as np

from repro.errors import BadRequestError, ReproError
from repro.utils.rng import rng_for
from repro.video.pnm import parse_pnm

__all__ = [
    "HttpRequest",
    "read_request",
    "encode_response",
    "json_body",
    "decode_frame",
    "detections_payload",
    "MAX_HEADER_BYTES",
    "TRACE_ID_HEADER",
]

#: total header bytes (request line included) before a 431 is returned
MAX_HEADER_BYTES = 16384

#: response header carrying the request's trace id (part of the wire
#: format: the server stamps it, the load generator reads it back)
TRACE_ID_HEADER = "x-repro-trace-id"

#: bounds on server-side rendered frame references (a reference is
#: cheap to send but not cheap to render — cap what one request can ask)
MAX_REFERENCE_SIDE = 1920
MIN_REFERENCE_SIDE = 48
MAX_REFERENCE_FRAME = 10_000

_PNM_CONTENT_TYPES = (
    "application/octet-stream",
    "image/x-portable-graymap",
    "image/x-portable-pixmap",
    "image/x-portable-anymap",
)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    415: "Unsupported Media Type",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}


@dataclass
class HttpRequest:
    """One parsed request: the subset of HTTP/1.1 the service speaks."""

    method: str
    target: str
    version: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def path(self) -> str:
        return self.target.split("?", 1)[0]

    @property
    def query(self) -> dict[str, str]:
        """Decoded query parameters (last value wins on duplicates)."""
        if "?" not in self.target:
            return {}
        from urllib.parse import parse_qsl

        return dict(parse_qsl(self.target.split("?", 1)[1], keep_blank_values=True))

    @property
    def content_type(self) -> str:
        return self.headers.get("content-type", "").split(";", 1)[0].strip().lower()

    @property
    def keep_alive(self) -> bool:
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_request(
    reader: StreamReader, *, max_body_bytes: int
) -> HttpRequest | None:
    """Parse one request; ``None`` on a clean EOF before any bytes.

    Raises :class:`BadRequestError` (with the right 4xx/5xx status) on
    everything else: garbled request lines, oversized headers, missing,
    bad or conflicting ``Content-Length``, bodies over
    ``max_body_bytes``, chunked transfer (not implemented), or
    mid-request EOF.
    """
    try:
        line = await reader.readline()
    except (LimitOverrunError, ValueError):
        raise BadRequestError("request line too long", status=431) from None
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise BadRequestError("truncated request line")
    try:
        parts = line.decode("ascii").strip().split()
    except UnicodeDecodeError:
        raise BadRequestError("request line is not ASCII") from None
    if len(parts) != 3:
        raise BadRequestError(f"malformed request line {line!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise BadRequestError(f"unsupported protocol {version!r}", status=505)

    headers: dict[str, str] = {}
    header_bytes = len(line)
    while True:
        try:
            hline = await reader.readline()
        except (LimitOverrunError, ValueError):
            raise BadRequestError("header line too long", status=431) from None
        if hline in (b"\r\n", b"\n"):
            break
        if not hline or not hline.endswith(b"\n"):
            raise BadRequestError("connection closed mid-headers")
        header_bytes += len(hline)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequestError(
                f"headers exceed {MAX_HEADER_BYTES} bytes", status=431
            )
        name, sep, value = hline.decode("latin-1").partition(":")
        if not sep or not name.strip():
            raise BadRequestError(f"malformed header line {hline!r}")
        key, value = name.strip().lower(), value.strip()
        # RFC 9112 §6.3: differing Content-Length values leave the framing
        # ambiguous; last-wins would let the body boundary be smuggled
        if key == "content-length" and headers.get(key, value) != value:
            raise BadRequestError(
                f"conflicting Content-Length {headers[key]!r} vs {value!r}"
            )
        headers[key] = value

    if "transfer-encoding" in headers:
        raise BadRequestError("chunked transfer not supported", status=501)
    body = b""
    length = headers.get("content-length")
    if length is not None:
        # RFC 9110 §8.6: 1*DIGIT only — int() would also take "+5", "1_0"
        # and "-0", which a proxy may frame differently
        if not (length.isascii() and length.isdigit()):
            raise BadRequestError(f"bad Content-Length {length!r}")
        n = int(length)
        if n > max_body_bytes:
            raise BadRequestError(
                f"body of {n} bytes exceeds the {max_body_bytes}-byte limit",
                status=413,
            )
        try:
            body = await reader.readexactly(n)
        except IncompleteReadError:
            raise BadRequestError("connection closed mid-body") from None
    return HttpRequest(
        method=method, target=target, version=version, headers=headers, body=body
    )


def encode_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    """Serialise one HTTP/1.1 response (always with ``Content-Length``).

    An explicit ``Content-Type`` key in ``extra_headers`` overrides the
    default (the route dict stays the single source of per-response
    headers — the Prometheus exposition uses this to switch media type).
    """
    reason = _REASONS.get(status, "Unknown")
    headers = dict(extra_headers or {})
    content_type = headers.pop("Content-Type", content_type)
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + body


def json_body(payload: dict) -> bytes:
    """Compact deterministic JSON encoding (the response body format)."""
    return (json.dumps(payload, separators=(", ", ": ")) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# frame payloads


def _reference_int(spec: dict, key: str, default: int | None, lo: int, hi: int) -> int:
    value = spec.get(key, default)
    if value is None:
        raise BadRequestError(f"frame reference is missing {key!r}")
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadRequestError(f"{key!r} must be an integer, got {value!r}")
    if not lo <= value <= hi:
        raise BadRequestError(f"{key!r} must be in [{lo}, {hi}], got {value}")
    return value


def _render_reference(spec: dict) -> np.ndarray:
    source = spec.get("source")
    if source not in ("synthetic", "trailer"):
        raise BadRequestError(
            f"frame reference 'source' must be 'synthetic' or 'trailer', "
            f"got {source!r}"
        )
    width = _reference_int(
        spec, "width", None, MIN_REFERENCE_SIDE, MAX_REFERENCE_SIDE
    )
    height = _reference_int(
        spec, "height", None, MIN_REFERENCE_SIDE, MAX_REFERENCE_SIDE
    )
    index = _reference_int(spec, "frame", 0, 0, MAX_REFERENCE_FRAME)
    seed = _reference_int(spec, "seed", 0, 0, 2**31 - 1)
    if source == "synthetic":
        from repro.video.synthesis import render_scene

        faces = _reference_int(spec, "faces", 2, 0, 64)
        clutter = spec.get("clutter", 0.5)
        if not isinstance(clutter, (int, float)) or not 0.0 <= float(clutter) <= 1.0:
            raise BadRequestError(f"'clutter' must be in [0, 1], got {clutter!r}")
        # identical to frame `index` of video.stream.synthetic_stream
        frame, _ = render_scene(
            width,
            height,
            faces=faces,
            rng=rng_for(seed, "stream", index),
            clutter=float(clutter),
        )
        return frame
    from repro.video.trailer import trailer_frames

    name = spec.get("trailer")
    if not isinstance(name, str):
        raise BadRequestError(f"'trailer' must be a trailer name, got {name!r}")
    try:
        # step jumps the deterministic timeline straight to `index`
        # instead of rendering every frame before it
        if index == 0:
            frames = trailer_frames(name, width, height, 1, seed=seed)
        else:
            frames = trailer_frames(name, width, height, 2, seed=seed, step=index)
        for frame, _ in frames:
            pass
    except ReproError as exc:
        raise BadRequestError(str(exc)) from None
    return frame


def decode_frame(request: HttpRequest) -> np.ndarray:
    """The luma plane a ``POST /v1/detect`` request asks to detect on.

    Raw PNM bodies are decoded in place; JSON frame references are
    rendered with the exact deterministic generators the benchmarks use,
    so a reference response is byte-identical to detecting on the
    equivalent locally rendered frame.
    """
    if not request.body:
        raise BadRequestError("empty request body", status=411)
    content_type = request.content_type
    if content_type == "application/json":
        try:
            spec = json.loads(request.body)
        except json.JSONDecodeError as exc:
            raise BadRequestError(f"bad JSON body: {exc}") from None
        if not isinstance(spec, dict):
            raise BadRequestError("JSON body must be a frame-reference object")
        return _render_reference(spec)
    if content_type in _PNM_CONTENT_TYPES or request.body[:2] in (b"P5", b"P6"):
        try:
            frame = parse_pnm(request.body, what="frame body")
        except ReproError as exc:
            raise BadRequestError(str(exc)) from None
        h, w = frame.shape
        if h < MIN_REFERENCE_SIDE or w < MIN_REFERENCE_SIDE:
            raise BadRequestError(
                f"frame {w}x{h} below the {MIN_REFERENCE_SIDE}px detector minimum"
            )
        return frame
    raise BadRequestError(
        f"unsupported content type {content_type or '(none)'!r}; send a binary "
        f"PGM/PPM frame or an application/json frame reference",
        status=415,
    )


def detections_payload(result, *, group_threshold: float = 0.5) -> dict:
    """The JSON payload for one frame's detections.

    Grouping matches :class:`~repro.detect.detector.FaceDetector`
    defaults, and the float values are emitted verbatim (shortest
    round-trip repr), so two byte-identical pipeline results serialise
    to byte-identical payloads — the serving identity tests compare the
    encoded bytes against a direct
    :class:`~repro.detect.pipeline.FaceDetectionPipeline` call.
    """
    from repro.detect.grouping import group_detections

    grouped = group_detections(result.raw_detections, group_threshold)
    return {
        "detections": [
            {"x": d.x, "y": d.y, "size": d.size, "score": d.score} for d in grouped
        ],
        "raw_count": len(result.raw_detections),
        "simulated_detection_s": result.schedule.makespan_s,
    }
