"""Unit-level byte-identity tests for the backend plans and evaluators.

Each reusable plan (bilinear, integral, cascade evaluation) must produce
the same bits as the one-shot primitive it amortises, and the
``vectorized`` evaluator must match the ``reference`` one exactly —
structural freedom (batched gathers, a different dense->sparse switch
point) is allowed, numerical freedom is not.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.detect.kernels import cascade_eval_kernel
from repro.detect.windows import BlockMapping
from repro.errors import ConfigurationError
from repro.haar.cascade import Cascade, Stage, WeakClassifier
from repro.haar.enumeration import subsampled_feature_pool
from repro.image.integral import integral_image, squared_integral_image
from repro.image.pyramid import downscale
from repro.image.texture import Texture2D
from repro.utils.rng import rng_for


def toy_cascade(stage_sizes=(3, 3, 4), seed=0, stage_threshold=0.3):
    """A selective little cascade exercising both dense and sparse stages."""
    rng = rng_for(seed, "backend-toy-cascade")
    pool = subsampled_feature_pool(sum(stage_sizes) + 5, seed=seed)
    stages = []
    k = 0
    for size in stage_sizes:
        cls = []
        for _ in range(size):
            cls.append(
                WeakClassifier(
                    feature=pool[k],
                    threshold=float(rng.normal(0, 5)),
                    left=float(rng.uniform(-1, 1)),
                    right=float(rng.uniform(-1, 1)),
                )
            )
            k += 1
        stages.append(Stage(classifiers=tuple(cls), threshold=stage_threshold))
    return Cascade(stages=tuple(stages), name="backend-toy")


@pytest.fixture(scope="module")
def image():
    rng = rng_for(5, "backend-image")
    return rng.uniform(0, 255, (72, 96))


@pytest.fixture(scope="module", params=["reference", "vectorized"])
def backend(request):
    return get_backend(request.param)


class TestBilinearPlan:
    @pytest.mark.parametrize("dst", [(36, 48), (17, 23), (72, 96)])
    def test_matches_texture_fetch(self, backend, image, dst):
        src = np.asarray(image, dtype=np.float32)
        dh, dw = dst
        plan = backend.make_bilinear_plan(src.shape[0], src.shape[1], dh, dw)
        expected = downscale(Texture2D(src), dw, dh)
        got = plan.apply(src)
        assert got.tobytes() == expected.tobytes()

    def test_out_buffer_reuse_is_identical(self, backend, image):
        src = np.asarray(image, dtype=np.float32)
        plan = backend.make_bilinear_plan(src.shape[0], src.shape[1], 30, 40)
        out = np.empty((30, 40), dtype=np.float32)
        first = plan.apply(src).copy()
        second = plan.apply(src, out=out)
        assert second is out
        assert first.tobytes() == out.tobytes()


class TestIntegralPlan:
    def test_matches_one_shot_integrals(self, backend, image):
        img32 = np.asarray(image, dtype=np.float32)
        plan = backend.make_integral_plan(*img32.shape)
        ii, sqii = plan.compute(img32)
        assert ii.tobytes() == integral_image(img32).tobytes()
        assert sqii.tobytes() == squared_integral_image(img32).tobytes()

    def test_buffers_reused_across_frames(self, backend, image):
        img32 = np.asarray(image, dtype=np.float32)
        plan = backend.make_integral_plan(*img32.shape)
        ii1, _ = plan.compute(img32)
        ii2, _ = plan.compute(img32 * 0.5)
        assert ii2 is ii1  # persistent buffer, recomputed in place
        assert ii1.tobytes() == integral_image(img32 * 0.5).tobytes()

    def test_rejects_non_positive_dims(self, backend):
        with pytest.raises(ConfigurationError):
            backend.make_integral_plan(0, 10)


class TestEvaluatorIdentity:
    def _maps(self, backend_name, image, cascade, sparse_threshold=None):
        img = np.asarray(image, dtype=np.float64)
        mapping = BlockMapping(level_width=img.shape[1], level_height=img.shape[0])
        evaluator = get_backend(backend_name).make_cascade_evaluator(
            cascade, mapping, sparse_threshold=sparse_threshold
        )
        ii = integral_image(img)
        sqii = squared_integral_image(img)
        return evaluator.evaluate(ii, sqii)

    def test_vectorized_matches_reference(self, image):
        cascade = toy_cascade()
        ref = self._maps("reference", image, cascade)
        vec = self._maps("vectorized", image, cascade)
        assert ref.depth_map.tobytes() == vec.depth_map.tobytes()
        assert ref.margin_map.tobytes() == vec.margin_map.tobytes()
        assert ref.sigma_map.tobytes() == vec.sigma_map.tobytes()

    @pytest.mark.parametrize("sparse_threshold", [-1.0, 2.0])
    def test_forced_paths_agree_across_backends(self, image, sparse_threshold):
        # -1.0 keeps every stage dense; 2.0 switches to sparse immediately
        cascade = toy_cascade()
        ref = self._maps("reference", image, cascade, sparse_threshold)
        vec = self._maps("vectorized", image, cascade, sparse_threshold)
        assert ref.depth_map.tobytes() == vec.depth_map.tobytes()
        assert ref.margin_map.tobytes() == vec.margin_map.tobytes()

    def test_kernel_level_identity(self, image):
        cascade = toy_cascade()
        ref = cascade_eval_kernel(image, cascade, stream=1, backend="reference")
        vec = cascade_eval_kernel(image, cascade, stream=1, backend="vectorized")
        assert ref.depth_map.tobytes() == vec.depth_map.tobytes()
        assert ref.score_map.tobytes() == vec.score_map.tobytes()
        np.testing.assert_array_equal(ref.rejections_by_depth, vec.rejections_by_depth)

    def test_vectorized_switches_earlier(self):
        # the structural difference under test: a 0.25 vs 0.04 switch point
        from repro.backend.reference import SPARSE_THRESHOLD
        from repro.backend.vectorized import VEC_SPARSE_THRESHOLD

        assert VEC_SPARSE_THRESHOLD > SPARSE_THRESHOLD
