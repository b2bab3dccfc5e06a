"""Host-speed calibration: timings scaled to a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to 2x over minutes as neighbours come and go.  Those phases move every
wall-clock figure together, so a run-to-run spread would measure the
host rather than the program.  Each run therefore also times a fixed
reference kernel, owned by the benchmark and never touched by a change to
the program, right before and after each stretch of timed work, and
reports every timing as it would read on the reference host:

    factor = mean kernel pass here / REFERENCE_PASS_S
    time at reference speed = measured time / factor
    rate at reference speed = measured rate * factor

The kernel mimics the program's own mix: a Viola-Jones style evaluation
of two-rectangle features over a window grid with NumPy gathers, an
integral image, and an interpreted Python loop over candidate boxes —
many NumPy calls on small, cache-resident arrays plus interpreted code,
which is also the shape of the trainer's dominant step (rendering and
scoring background patches).  It runs on one thread while the program is
idle, and its pass time is a mean over each part of the sample, so time
the host steals from the virtual CPU counts as it does for the program.
"""

from __future__ import annotations

import time

import numpy as np

from common import BenchError

#: seconds of kernel passes in one calibration sample, and the number of
#: equal parts it is split into (the median part is the sample)
SAMPLE_S = 0.3
SAMPLE_PARTS = 3
#: mean seconds of one kernel pass on the reference host (a 2-vCPU Intel
#: Xeon virtual machine on an otherwise idle host)
REFERENCE_PASS_S = 0.006

_H, _W, _WIN, _STRIDE = 120, 160, 24, 2


def _inputs():
    rng = np.random.default_rng(20240611)
    image = rng.random((_H, _W)) * 255.0
    ys, xs = np.mgrid[0 : _H - _WIN + 1 : _STRIDE, 0 : _W - _WIN + 1 : _STRIDE]
    corners = np.stack([ys.ravel(), xs.ravel()], axis=1)
    # 6 stages x 10 features, each two rectangles (y, x, h, w) inside a window
    feats = rng.integers(1, _WIN // 2, size=(6, 10, 2, 4))
    boxes = rng.random((60, 3)) * (_W, _H, _WIN)
    return image, corners, feats, boxes


_IMAGE, _CORNERS, _FEATS, _BOXES = _inputs()


def _rect_sums(ii: np.ndarray, y: np.ndarray, x: np.ndarray, rect: np.ndarray) -> np.ndarray:
    y0, x0 = y + rect[0], x + rect[1]
    y1, x1 = y0 + rect[2], x0 + rect[3]
    return ii[y1, x1] - ii[y0, x1] - ii[y1, x0] + ii[y0, x0]


def kernel_pass() -> float:
    """One pass of the reference kernel; returns a checksum."""
    ii = np.zeros((_H + 1, _W + 1))
    ii[1:, 1:] = _IMAGE.cumsum(0).cumsum(1)
    alive = _CORNERS
    for stage in _FEATS:
        y, x = alive[:, 0], alive[:, 1]
        score = np.zeros(len(alive))
        for first, second in stage:
            score += np.where(_rect_sums(ii, y, x, first) > _rect_sums(ii, y, x, second), 1.0, -1.0)
        alive = alive[score >= 0]
        if not len(alive):
            break
    overlaps = 0
    for i, (ax, ay, asz) in enumerate(_BOXES):
        for bx, by, bsz in _BOXES[i + 1 :]:
            if abs(ax - bx) < (asz + bsz) / 2 and abs(ay - by) < (asz + bsz) / 2:
                overlaps += 1
    return float(len(alive) + overlaps)


def _mean_pass(seconds: float) -> float:
    passes = 0
    start = time.perf_counter()
    while True:
        kernel_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / passes


class HostSpeed:
    """Calibration samples taken through a run, by the time they were taken."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> float:
        """Slow-down of this host against the reference host (1.0 = as fast).

        Each part's mean pass time counts any time the virtual CPU lost;
        the median part keeps one burst from setting the sample.
        """
        parts = sorted(_mean_pass(SAMPLE_S / SAMPLE_PARTS) for _ in range(SAMPLE_PARTS))
        factor = parts[SAMPLE_PARTS // 2] / REFERENCE_PASS_S
        self.samples.append((time.perf_counter(), factor))
        return factor

    def around(self, start: float, end: float) -> float:
        """Mean factor of the last sample before ``start`` and the first after ``end``.

        Falls back to whichever of the two exists.
        """
        before = [f for t, f in self.samples if t <= start]
        after = [f for t, f in self.samples if t >= end]
        near = before[-1:] + after[:1]
        if not near:
            raise BenchError("no host-speed sample around a timed interval")
        return sum(near) / len(near)

    def factors(self) -> list[float]:
        return [f for _, f in self.samples]
