"""Tests for the compute-backend registry and its resolution rules."""

import pytest

from repro.backend import (
    DEFAULT_BACKEND,
    ENV_VAR,
    ReferenceBackend,
    VectorizedBackend,
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import ConfigurationError
from repro.zoo import quick_cascade


class TestResolution:
    def test_builtins_registered(self):
        assert {"reference", "vectorized"} <= set(available_backends())

    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert default_backend_name() == DEFAULT_BACKEND == "reference"
        assert get_backend(None).name == "reference"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            get_backend("no-such-backend")

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="reference"):
            get_backend("no-such-backend")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert default_backend_name() == "vectorized"
        assert get_backend(None).name == "vectorized"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert get_backend("reference").name == "reference"

    def test_env_override_unknown_raises(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "no-such-backend")
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            get_backend(None)

    def test_instances_are_cached_singletons(self):
        assert get_backend("reference") is get_backend("reference")
        assert get_backend("vectorized") is get_backend("vectorized")

    def test_instance_passthrough(self):
        backend = ReferenceBackend()
        assert get_backend(backend) is backend

    def test_backend_types(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("vectorized"), VectorizedBackend)


class TestOverrides:
    """:func:`resolve_backend` precedence: prefer > ``REPRO_BACKEND`` > default."""

    def test_no_override_lands_on_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert resolve_backend().backend.name == DEFAULT_BACKEND

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert resolve_backend().backend.name == "vectorized"

    def test_explicit_prefer_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        assert resolve_backend(prefer="reference").backend.name == "reference"

    def test_unknown_backend_lists_names(self):
        with pytest.raises(ConfigurationError) as exc:
            resolve_backend(prefer="no-such-backend")
        message = str(exc.value)
        assert "reference" in message and "vectorized" in message


class TestBenchmarkImportContract:
    @pytest.mark.parametrize("env", [None, "vectorized"])
    def test_resolve_default_is_get_backend_none(self, monkeypatch, env):
        """``perfbench`` patches the class of
        ``resolve_backend(prefer=default_backend_name()).backend``; it must
        be the very instance a default pipeline runs on."""
        if env is None:
            monkeypatch.delenv(ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(ENV_VAR, env)
        backend = resolve_backend(prefer=default_backend_name()).backend
        assert backend is get_backend(None)
        assert backend.name == (env or DEFAULT_BACKEND)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_backend("reference", ReferenceBackend)

    def test_replace_allows_reregistration(self):
        register_backend("reference", ReferenceBackend, replace=True)
        assert get_backend("reference").name == "reference"

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_backend("not a name!", ReferenceBackend)


class TestPipelineIntegration:
    def test_unknown_backend_fails_at_pipeline_construction(self):
        with pytest.raises(ConfigurationError, match="unknown compute backend"):
            FaceDetectionPipeline(
                quick_cascade(seed=0), config=PipelineConfig(backend="no-such-backend")
            )

    def test_pipeline_honors_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        pipeline = FaceDetectionPipeline(quick_cascade(seed=0))
        assert pipeline.backend.name == "vectorized"

    def test_pipeline_explicit_backend(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "vectorized")
        pipeline = FaceDetectionPipeline(
            quick_cascade(seed=0), config=PipelineConfig(backend="reference")
        )
        assert pipeline.backend.name == "reference"
