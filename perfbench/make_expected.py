"""Regenerate ``expected.json``: the answers the benchmark checks against.

    python3 perfbench/make_expected.py

* ``video-paper-480`` — for every frame of the trailer pool, a digest of
  raw detections, grouped detections and simulated makespan, computed
  with the one-shot ``FaceDetectionPipeline.process_frame`` on the
  ``reference`` backend (the byte-identity oracle), so a change of the
  default backend must still match byte for byte;
* ``train-quick`` — the content digest of the ``quick`` recipe trained
  from scratch with seed 0 into a throwaway store.

Run it only when a change is meant to alter detections or training.
"""

from __future__ import annotations

import json
import sys
import time

from common import HERE, adopt_env, remove_tree, require_program, scratch_dir


def video_digests() -> dict:
    from repro.detect import FaceDetectionPipeline, PipelineConfig, grouping
    from repro.video import decoded_stream
    from repro.zoo import paper_cascade
    from wl_video import FRAMES_PER_TRAILER, GROUP_THRESHOLD, HEIGHT, STEP, WIDTH
    from wl_video import encode_pool, frame_digest

    pipeline = FaceDetectionPipeline(paper_cascade(), config=PipelineConfig(backend="reference"))
    digests = {}
    for trailer, stream in enumerate(encode_pool()):
        for packet in decoded_stream(stream):
            result = pipeline.process_frame(packet.luma)
            grouped = grouping.group_detections(result.raw_detections, GROUP_THRESHOLD)
            digests[f"{trailer}:{packet.index}"] = frame_digest(
                result.raw_detections, grouped, result.schedule.makespan_s
            )
    return {
        "width": WIDTH,
        "height": HEIGHT,
        "frames_per_trailer": FRAMES_PER_TRAILER,
        "step": STEP,
        "backend": "reference",
        "digests": digests,
    }


def quick_digest() -> dict:
    from repro.zoo import ModelStore, train_model

    tmp = scratch_dir("expected-")
    try:
        _, manifest = train_model("quick", seed=0, store=ModelStore(tmp))
    finally:
        remove_tree(tmp)
    return {"recipe": "quick", "seed": 0, "content_digest": manifest.content_digest}


def main() -> int:
    require_program()
    adopt_env()
    from run import prepare_zoo

    prepare_zoo()
    start = time.perf_counter()
    expected = {"video-paper-480": video_digests(), "train-quick": quick_digest()}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote expected.json in {time.perf_counter() - start:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
