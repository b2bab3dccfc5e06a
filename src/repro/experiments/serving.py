"""Serving benchmark: batched vs unbatched request throughput.

Drives the full network path — :class:`~repro.serve.server.DetectionServer`
on a loopback socket, the :mod:`~repro.serve.loadgen` closed-loop client —
twice over identical frames: once with the micro-batcher coalescing
(``max_batch`` > 1) and once degenerated to one frame per engine dispatch
(``max_batch=1``).  The ratio of OK-requests/second is the serving
analogue of the paper's Fig. 5/6 argument: concurrency is worthless
unless batches are wide enough to keep every execution unit busy.

The comparison also re-checks the serving contract end to end: each
payload frame's HTTP response must be *byte-identical* to serialising a
direct :class:`~repro.detect.pipeline.FaceDetectionPipeline` call, so
nothing in admission, batching or asyncio reordering may perturb
detection output.

Writes ``BENCH_serving.json`` (schema v1): workload, both runs with
latency percentiles, the headline fps, the batched/unbatched speedup and
the standard provenance block.  ``repro loadtest`` emits the same schema
with a single run against an external server.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.experiments.harness import BenchArtifact, artifact_header
from repro.serve.loadgen import LoadTestResult, build_payloads, run_loadtest
from repro.serve.protocol import HttpRequest, decode_frame, detections_payload, json_body
from repro.utils.tables import format_table
from repro.zoo import CascadeName

__all__ = ["ServingResult", "run_serving", "serving_artifact", "BENCH_SERVING_SCHEMA_VERSION"]

#: ``BENCH_serving.json`` schema: 1 is the initial batched-vs-unbatched
#: comparison with per-run latency percentiles and an identity verdict
BENCH_SERVING_SCHEMA_VERSION = 1


@dataclass
class ServingResult(BenchArtifact):
    """Outcome of one batched-vs-unbatched serving comparison."""

    experiment = "serving"
    schema_version = BENCH_SERVING_SCHEMA_VERSION

    width: int
    height: int
    frames: int
    requests: int
    concurrency: int
    cascade: str
    backend: str
    workers: int
    sharding: str
    max_batch: int
    max_delay_s: float
    trailer: str | None
    batched: LoadTestResult = field(repr=False)
    unbatched: LoadTestResult = field(repr=False)
    batched_stats: dict = field(repr=False)
    unbatched_stats: dict = field(repr=False)
    identical_responses: bool = True

    @property
    def speedup(self) -> float:
        """Batched OK-rps over unbatched OK-rps."""
        base = self.unbatched.rps
        return self.batched.rps / base if base > 0 else 0.0

    @property
    def fps(self) -> float:
        """Headline frames/second (one frame per request, batched run)."""
        return self.batched.rps

    def to_dict(self) -> dict:
        batched_lat = self.batched.latency_summary()
        return {
            **self.header(backend=self.backend, mode=self.sharding),
            "workload": {
                "frame_width": self.width,
                "frame_height": self.height,
                "payload_frames": self.frames,
                "trailer": self.trailer,
                "requests": self.requests,
                "concurrency": self.concurrency,
                "cascade": self.cascade,
                "workers": self.workers,
                "max_batch": self.max_batch,
                "max_delay_s": self.max_delay_s,
            },
            "runs": {
                "batched": {
                    **self.batched.to_dict(),
                    "server": self.batched_stats,
                },
                "unbatched": {
                    **self.unbatched.to_dict(),
                    "server": self.unbatched_stats,
                },
            },
            "fps": self.fps,
            "latency": {
                "p50_s": batched_lat.get("p50_s", 0.0),
                "p95_s": batched_lat.get("p95_s", 0.0),
            },
            "speedup": self.speedup,
            "identical_responses": self.identical_responses,
        }

    def format_table(self) -> str:
        def row(label: str, run: LoadTestResult) -> list:
            lat = run.latency_summary()
            return [
                label,
                run.ok,
                run.shed,
                round(run.rps, 2),
                round(lat.get("p50_s", 0.0) * 1e3, 1),
                round(lat.get("p95_s", 0.0) * 1e3, 1),
            ]

        table = format_table(
            ["path", "ok", "shed", "req/s", "p50 ms", "p95 ms"],
            [
                row(f"batched (max_batch={self.max_batch})", self.batched),
                row("unbatched (max_batch=1)", self.unbatched),
            ],
            title=(
                f"Serving — {self.requests} requests x {self.width}x{self.height} "
                f"frames at concurrency {self.concurrency}, {self.cascade} cascade, "
                f"{self.backend} backend, {self.workers} engine workers "
                f"({self.sharding})"
            ),
        )
        return table + (
            f"\nbatched/unbatched speedup: {self.speedup:.2f}x"
            f"\nresponses byte-identical to the direct pipeline: "
            f"{self.identical_responses}"
        )


def _expected_response_bodies(
    payloads: list[tuple[bytes, str]], cascade: str, backend: str | None
) -> list[bytes]:
    """What a direct pipeline call would serialise for each payload."""
    from repro.serve.server import _build_pipeline
    from repro.obs.tracer import NULL_TRACER

    pipeline = _build_pipeline(cascade, backend, NULL_TRACER)
    bodies: list[bytes] = []
    for body, content_type in payloads:
        request = HttpRequest(
            method="POST",
            target="/v1/detect",
            version="HTTP/1.1",
            headers={"content-type": content_type},
            body=body,
        )
        result = pipeline.process_frame(decode_frame(request))
        bodies.append(json_body(detections_payload(result)))
    return bodies


async def _run_one(
    *,
    max_batch: int,
    max_delay_s: float,
    cascade: str,
    backend: str | None,
    workers: int,
    sharding: str,
    payloads: list,
    requests: int,
    concurrency: int,
    expected: list[bytes] | None,
) -> tuple[LoadTestResult, dict, bool]:
    """One server lifecycle: start, identity probe, loadtest, drain."""
    from repro.serve.loadgen import _Connection
    from repro.serve.server import DetectionServer, ServerConfig

    server = DetectionServer(
        ServerConfig(
            port=0,
            cascade=cascade,
            backend=backend,
            workers=workers,
            sharding=sharding,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
        )
    )
    await server.start()
    try:
        identical = True
        if expected is not None:
            conn = _Connection("127.0.0.1", server.port)
            for (body, content_type), want in zip(payloads, expected):
                status, got = await conn.request(
                    "POST", "/v1/detect", body, content_type
                )
                if status != 200:
                    identical = False
                    continue
                # the server adds per-request fields (trace id, timing,
                # serving model version) on top of the pipeline payload;
                # strip them, then require byte identity of the rest
                payload = {
                    k: v
                    for k, v in json.loads(got).items()
                    if k not in ("trace_id", "timing", "model_version")
                }
                if json_body(payload) != want:
                    identical = False
            conn.close()
        result = await run_loadtest(
            "127.0.0.1",
            server.port,
            requests=requests,
            concurrency=concurrency,
            payloads=payloads,
        )
        stats = server._stats()["serve"]
    finally:
        await server.drain()
    return result, stats, identical


def run_serving(
    *,
    requests: int = 96,
    concurrency: int = 8,
    width: int = 96,
    height: int = 96,
    frames: int = 6,
    faces: int = 1,
    trailer: str | None = None,
    cascade: CascadeName = "quick",
    backend: str | None = None,
    workers: int | None = None,
    sharding: str = "threads",
    max_batch: int = 8,
    max_delay_s: float = 0.004,
    seed: int = 0,
) -> ServingResult:
    """Run the batched-vs-unbatched comparison over one payload pool."""
    if requests < concurrency:
        raise ConfigurationError(
            f"requests ({requests}) must be >= concurrency ({concurrency})"
        )
    if max_batch < 2:
        raise ConfigurationError(
            f"max_batch must be >= 2 to compare against unbatched, got {max_batch}"
        )
    import os

    if workers is None:
        workers = min(4, os.cpu_count() or 1)

    payloads = build_payloads(
        width=width, height=height, frames=frames, faces=faces,
        seed=seed, trailer=trailer,
    )
    expected = _expected_response_bodies(payloads, cascade, backend)

    async def drive() -> list:
        return [
            await _run_one(
                max_batch=batch, max_delay_s=max_delay_s, cascade=cascade,
                backend=backend, workers=workers, sharding=sharding,
                payloads=payloads, requests=requests, concurrency=concurrency,
                expected=expected,
            )
            for batch in (max_batch, 1)
        ]

    (batched, batched_stats, ident_b), (unbatched, unbatched_stats, ident_u) = (
        asyncio.run(drive())
    )

    from repro.backend import get_backend

    return ServingResult(
        width=width,
        height=height,
        frames=frames,
        requests=requests,
        concurrency=concurrency,
        cascade=cascade,
        backend=get_backend(backend).name,
        workers=workers,
        sharding=sharding,
        max_batch=max_batch,
        max_delay_s=max_delay_s,
        trailer=trailer,
        batched=batched,
        unbatched=unbatched,
        batched_stats=batched_stats,
        unbatched_stats=unbatched_stats,
        identical_responses=ident_b and ident_u,
    )


def serving_artifact(
    result: LoadTestResult,
    *,
    width: int,
    height: int,
    frames: int,
    trailer: str | None,
    server_stats: dict | None = None,
) -> dict:
    """Schema-v1 artifact for a single external-server ``repro loadtest``.

    Tagged ``serving-loadtest`` (not ``serving``): one run against an
    external server has no unbatched counterpart, so ``speedup`` and
    ``identical_responses`` are legitimately ``null`` — the dedicated
    tag lets ``repro bench check`` gate on what *is* knowable here
    (requests succeeded, zero transport errors) instead of inheriting
    the comparison artifact's checks.
    """
    lat = result.latency_summary()
    engine = (server_stats or {}).get("engine", {})
    return {
        **artifact_header(
            "serving-loadtest",
            BENCH_SERVING_SCHEMA_VERSION,
            mode=engine.get("sharding"),
        ),
        "workload": {
            "frame_width": width,
            "frame_height": height,
            "payload_frames": frames,
            "trailer": trailer,
            "requests": result.requests,
            "concurrency": result.concurrency,
        },
        "runs": {
            "loadtest": {
                **result.to_dict(),
                **({"server": server_stats} if server_stats else {}),
            }
        },
        "fps": result.rps,
        "latency": {
            "p50_s": lat.get("p50_s", 0.0),
            "p95_s": lat.get("p95_s", 0.0),
        },
        "speedup": None,
        "identical_responses": None,
    }
