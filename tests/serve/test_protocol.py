"""Protocol unit tests: parsing, encoding, and frame payload decoding.

The serving contract is that *no* malformed client input ever surfaces
as a 500 — every parse failure must raise
:class:`~repro.errors.BadRequestError` with a 4xx (or 501/505) status
the server can return verbatim.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.errors import BadRequestError
from repro.serve.protocol import (
    HttpRequest,
    decode_frame,
    detections_payload,
    encode_response,
    json_body,
    read_request,
)
from repro.video.pnm import encode_pgm, parse_pnm


def parse(raw: bytes, max_body_bytes: int = 1 << 20):
    """Drive the asyncio parser over an in-memory byte buffer."""

    async def drive():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body_bytes=max_body_bytes)

    return asyncio.run(drive())


def request_with(body: bytes, content_type: str) -> HttpRequest:
    return HttpRequest(
        method="POST",
        target="/v1/detect",
        version="HTTP/1.1",
        headers={"content-type": content_type, "content-length": str(len(body))},
        body=body,
    )


class TestReadRequest:
    def test_round_trip(self):
        raw = (
            b"POST /v1/detect?x=1 HTTP/1.1\r\n"
            b"Host: localhost\r\nContent-Type: application/json\r\n"
            b"Content-Length: 2\r\n\r\n{}"
        )
        req = parse(raw)
        assert req.method == "POST"
        assert req.path == "/v1/detect"
        assert req.content_type == "application/json"
        assert req.body == b"{}"
        assert req.keep_alive

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_garbled_request_line_is_400(self):
        with pytest.raises(BadRequestError) as err:
            parse(b"NOT-HTTP\r\n\r\n")
        assert err.value.status == 400

    def test_http10_version_gate(self):
        with pytest.raises(BadRequestError) as err:
            parse(b"GET / SPDY/3\r\n\r\n")
        assert err.value.status == 505

    def test_oversized_headers_431(self):
        raw = b"GET / HTTP/1.1\r\n" + b"X-Pad: " + b"y" * 20000 + b"\r\n\r\n"
        with pytest.raises(BadRequestError) as err:
            parse(raw)
        assert err.value.status == 431

    def test_chunked_transfer_is_501(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(BadRequestError) as err:
            parse(raw)
        assert err.value.status == 501

    def test_bad_content_length_400(self):
        # RFC 9110 §8.6 allows only 1*DIGIT: the sign and digit-separator
        # spellings int() would accept must not frame a body either
        for length in (b"nope", b"+5", b"1_0", b"-0"):
            raw = b"POST / HTTP/1.1\r\nContent-Length: " + length
            with pytest.raises(BadRequestError) as err:
                parse(raw + b"\r\n\r\n0123456789")
            assert err.value.status == 400, length

    def test_conflicting_content_length_400(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
            b"Content-Length: 500\r\n\r\nhello"
        )
        with pytest.raises(BadRequestError) as err:
            parse(raw)
        assert err.value.status == 400
        assert "conflicting Content-Length" in str(err.value)

    def test_repeated_identical_content_length_accepted(self):
        raw = (
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\n"
            b"content-length: 5\r\n\r\nhello"
        )
        assert parse(raw).body == b"hello"

    def test_oversized_body_413_without_reading_it(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"
        with pytest.raises(BadRequestError) as err:
            parse(raw, max_body_bytes=1024)
        assert err.value.status == 413

    def test_truncated_body_400(self):
        raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        with pytest.raises(BadRequestError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_connection_close_disables_keep_alive(self):
        raw = b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        assert parse(raw).keep_alive is False

    def test_http10_defaults_to_close(self):
        assert parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive is False


class TestEncodeResponse:
    def test_has_content_length_and_connection(self):
        raw = encode_response(200, b'{"a": 1}\n')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert b"Content-Length: 9" in head
        assert b"Connection: keep-alive" in head
        assert body == b'{"a": 1}\n'

    def test_extra_headers_and_close(self):
        raw = encode_response(
            429, b"{}", keep_alive=False, extra_headers={"Retry-After": "1"}
        )
        assert b"Retry-After: 1" in raw
        assert b"Connection: close" in raw


class TestDecodeFrame:
    def test_pgm_round_trip(self):
        frame = (np.arange(48 * 64, dtype=np.float32) % 251).reshape(48, 64)
        decoded = decode_frame(
            request_with(encode_pgm(frame), "application/octet-stream")
        )
        np.testing.assert_array_equal(decoded, frame)

    def test_empty_body_411(self):
        with pytest.raises(BadRequestError) as err:
            decode_frame(request_with(b"", "application/octet-stream"))
        assert err.value.status == 411

    def test_malformed_pnm_is_4xx_not_500(self):
        with pytest.raises(BadRequestError) as err:
            decode_frame(request_with(b"P5 busted", "application/octet-stream"))
        assert 400 <= err.value.status < 500

    def test_truncated_pixels_is_4xx(self):
        body = b"P5 64 48 255\n" + b"\x00" * 10
        with pytest.raises(BadRequestError):
            decode_frame(request_with(body, "application/octet-stream"))

    def test_tiny_frame_rejected(self):
        body = encode_pgm(np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(BadRequestError):
            decode_frame(request_with(body, "application/octet-stream"))

    def test_unknown_content_type_415(self):
        with pytest.raises(BadRequestError) as err:
            decode_frame(request_with(b"GIF89a...", "image/gif"))
        assert err.value.status == 415

    def test_bad_json_400(self):
        with pytest.raises(BadRequestError):
            decode_frame(request_with(b"{nope", "application/json"))

    def test_json_reference_validation(self):
        for spec in (
            {"source": "teapot"},
            {"source": "synthetic"},  # missing width/height
            {"source": "synthetic", "width": 9999, "height": 96},
            {"source": "synthetic", "width": 96, "height": 96, "frame": -1},
            {"source": "trailer", "width": 96, "height": 96, "trailer": "nope"},
        ):
            with pytest.raises(BadRequestError):
                decode_frame(
                    request_with(json.dumps(spec).encode(), "application/json")
                )

    def test_synthetic_reference_matches_stream(self):
        from repro.video.stream import synthetic_stream

        spec = {
            "source": "synthetic",
            "width": 96,
            "height": 64,
            "frame": 3,
            "faces": 2,
            "seed": 7,
        }
        rendered = decode_frame(
            request_with(json.dumps(spec).encode(), "application/json")
        )
        packets = list(synthetic_stream(96, 64, 4, faces=2, seed=7))
        np.testing.assert_array_equal(rendered, packets[3].luma)

    def test_trailer_reference_matches_trailer_frames(self):
        from repro.video.trailer import trailer_frames

        spec = {
            "source": "trailer",
            "trailer": "50/50",
            "width": 96,
            "height": 64,
            "frame": 2,
            "seed": 1,
        }
        rendered = decode_frame(
            request_with(json.dumps(spec).encode(), "application/json")
        )
        frames = [f for f, _ in trailer_frames("50/50", 96, 64, 3, seed=1)]
        np.testing.assert_array_equal(rendered, frames[2])


class TestDetectionsPayload:
    def test_matches_face_detector_grouping(self):
        from repro import FaceDetector
        from repro.video.stream import synthetic_stream

        packet = next(iter(synthetic_stream(96, 96, 1, faces=2, seed=3)))
        detector = FaceDetector.pretrained("quick", seed=0)
        direct = detector.detect(packet.luma)
        result = detector.pipeline.process_frame(packet.luma)
        payload = detections_payload(result)
        assert payload["raw_count"] == direct.raw_count
        assert [
            (d["x"], d["y"], d["size"], d["score"]) for d in payload["detections"]
        ] == [(d.x, d.y, d.size, d.score) for d in direct.detections]
        # the payload must survive a JSON round trip bit-exactly (the
        # byte-identity contract rides on shortest-roundtrip float repr)
        assert json.loads(json_body(payload)) == payload


def test_parse_pnm_ppm_luma_conversion():
    rgb = np.zeros((48, 48, 3), dtype=np.uint8)
    rgb[:, :, 1] = 100
    body = b"P6 48 48 255\n" + rgb.tobytes()
    luma = parse_pnm(body)
    assert luma.shape == (48, 48)
    np.testing.assert_allclose(luma, np.float32(0.587 * 100))
