"""Tests for the shared utility modules."""

import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.utils.rng import derive_seed, rng_for
from repro.utils.tables import format_table
from repro.utils.timing import WallTimer, format_duration
from repro.utils.validation import (
    check_in_range,
    check_positive,
    check_probability,
    check_shape_2d,
)


class TestRng:
    def test_same_path_same_seed(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_different_paths_differ(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_different_roots_differ(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_rng_streams_independent(self):
        a = rng_for(0, "x").uniform(size=4)
        b = rng_for(0, "y").uniform(size=4)
        assert not np.allclose(a, b)

    def test_rng_reproducible(self):
        a = rng_for(3, "t", 5).uniform(size=4)
        b = rng_for(3, "t", 5).uniform(size=4)
        np.testing.assert_array_equal(a, b)

    @given(st.integers(0, 2**32), st.text(max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_seed_in_64bit_range(self, root, name):
        assert 0 <= derive_seed(root, name) < 2**64

    def test_path_components_not_concatenated(self):
        # ("ab", "c") must differ from ("a", "bc")
        assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


class TestTables:
    def test_basic_render(self):
        text = format_table(["name", "value"], [["x", 1], ["longer", 23]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]

    def test_title(self):
        text = format_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_numeric_right_aligned(self):
        text = format_table(["v"], [[1], [100]])
        rows = text.splitlines()[-2:]
        assert rows[0].endswith("1")

    def test_floats_formatted(self):
        assert "3.14" in format_table(["x"], [[3.14159]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a", "b"], [])
        assert "a" in text


class TestTiming:
    def test_timer_accumulates(self):
        t = WallTimer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_reset(self):
        t = WallTimer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0

    def test_format_units(self):
        assert format_duration(5e-7).endswith("us")
        assert format_duration(5e-3).endswith("ms")
        assert format_duration(2.0).endswith("s")

    def test_format_rejects_negative(self):
        with pytest.raises(ValueError):
            format_duration(-1.0)


class TestValidation:
    def test_check_positive(self):
        check_positive("x", 1)
        with pytest.raises(ConfigurationError):
            check_positive("x", 0)

    def test_check_in_range(self):
        check_in_range("x", 0.5, 0, 1)
        with pytest.raises(ConfigurationError):
            check_in_range("x", 2, 0, 1)

    def test_check_probability(self):
        check_probability("p", 1.0)
        with pytest.raises(ConfigurationError):
            check_probability("p", -0.1)

    def test_check_shape_2d(self):
        check_shape_2d("m", np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            check_shape_2d("m", np.ones(4))
        with pytest.raises(ConfigurationError):
            check_shape_2d("m", np.ones((0, 3)))


class TestArtifacts:
    def test_artifact_dir_honours_env(self, tmp_path, monkeypatch):
        from repro.utils.artifacts import artifact_dir

        root = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
        assert artifact_dir() == root
        assert root.is_dir()  # created on first use
