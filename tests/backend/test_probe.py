"""Capability-probe tests: device order, overrides, skip reasons.

CI runners have no accelerator, so these tests monkeypatch fake
``cupy``/``torch`` modules into ``sys.modules`` and assert the resolver
walks CUDA -> MPS -> CPU, honours hard overrides, records why each
candidate was skipped, and never caches a failed probe.
"""

import sys
import types
from concurrent.futures import Future

import numpy as np
import pytest

from repro.backend import (
    ArrayApiBackend,
    get_backend,
    probe_all,
    resolve_backend,
)
from repro.backend import registry as registry_mod
from repro.detect.engine import DetectionEngine
from repro.detect.pipeline import FaceDetectionPipeline, PipelineConfig
from repro.errors import BackendUnavailableError, ConfigurationError
from repro.zoo import quick_cascade


def _fake_cupy(device_count=1):
    mod = types.ModuleType("cupy")
    mod.bool_ = np.bool_
    mod.cuda = types.SimpleNamespace(
        runtime=types.SimpleNamespace(getDeviceCount=lambda: device_count)
    )
    return mod


def _fake_torch(cuda=False, mps=False):
    mod = types.ModuleType("torch")
    mod.bool = np.bool_
    mod.cuda = types.SimpleNamespace(is_available=lambda: cuda)
    mod.backends = types.SimpleNamespace(
        mps=types.SimpleNamespace(is_available=lambda: mps)
    )
    return mod


@pytest.fixture(autouse=True)
def _no_env_override(monkeypatch):
    monkeypatch.delenv(registry_mod.ENV_VAR, raising=False)


@pytest.fixture(autouse=True)
def _drop_fake_device_instances():
    """Fake-module probes must never leak cached accelerator instances."""
    yield
    with registry_mod._lock:
        for key in [k for k in registry_mod._instances if k[1] != "cpu"]:
            del registry_mod._instances[key]


class TestProbeOrder:
    def test_no_accelerators_lands_cpu(self):
        # cupy/torch are genuinely absent here: the walk must stay total
        resolved = resolve_backend()
        assert resolved.device == "cpu"
        assert resolved.backend.name == "reference"
        skipped = [p for p in resolved.report.probes if not p.available]
        assert {(p.backend, p.device) for p in skipped} == {
            ("arrayapi", "cuda"),
            ("arrayapi", "mps"),
        }
        assert "cupy not importable" in resolved.report.path

    def test_fake_cuda_selected_first(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy())
        resolved = resolve_backend()
        assert resolved.backend.name == "arrayapi"
        assert resolved.device == "cuda"
        assert resolved.report.probes[0].device == "cuda"
        assert resolved.backend.api == "cupy"

    def test_mps_probed_after_cuda(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "torch", _fake_torch(cuda=False, mps=True))
        resolved = resolve_backend()
        assert resolved.backend.name == "arrayapi"
        assert resolved.device == "mps"
        devices = [p.device for p in resolved.report.probes]
        assert devices == ["cuda", "mps"]
        assert not resolved.report.probes[0].available

    def test_torch_cuda_backs_up_cupy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy(device_count=0))
        monkeypatch.setitem(sys.modules, "torch", _fake_torch(cuda=True))
        resolved = resolve_backend()
        assert resolved.device == "cuda"
        assert resolved.backend.api == "torch"

    def test_failed_probes_are_not_cached(self, monkeypatch):
        before = resolve_backend()
        assert before.device == "cpu"
        # the machine "grows" a GPU between calls; the next walk sees it
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy())
        after = resolve_backend()
        assert after.device == "cuda"


class TestOverrides:
    def test_explicit_prefer_beats_available_accelerator(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy())
        resolved = resolve_backend(prefer="vectorized")
        assert resolved.backend.name == "vectorized"
        assert resolved.device == "cpu"
        assert all(p.backend == "vectorized" for p in resolved.report.probes)

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(registry_mod.ENV_VAR, "arrayapi")
        resolved = resolve_backend()
        assert resolved.backend.name == "arrayapi"
        assert resolved.report.requested == "arrayapi"

    def test_unavailable_override_fails_loudly(self):
        with pytest.raises(ConfigurationError) as exc:
            resolve_backend(prefer="arrayapi", device="cuda")
        message = str(exc.value)
        assert "probe report" in message
        assert "cupy not importable" in message

    def test_unknown_device_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown device"):
            resolve_backend(device="tpu")

    def test_unknown_backend_lists_names_and_skips(self):
        with pytest.raises(ConfigurationError) as exc:
            get_backend("no-such-backend")
        message = str(exc.value)
        assert "reference" in message and "arrayapi" in message
        assert "skipped candidates" in message
        assert "cupy not importable" in message


class TestProbeAll:
    def test_every_candidate_recorded(self):
        report = probe_all()
        pairs = {(p.backend, p.device) for p in report.probes}
        assert ("arrayapi", "cuda") in pairs
        assert ("arrayapi", "mps") in pairs
        assert ("reference", "cpu") in pairs
        assert ("vectorized", "cpu") in pairs
        assert report.selected is None

    def test_report_text_carries_skip_reasons(self):
        text = probe_all().format_report()
        assert "arrayapi:cuda skipped" in text
        assert "reference:cpu ok" in text

    def test_to_dict_is_json_shaped(self):
        d = probe_all().to_dict()
        assert isinstance(d["path"], str)
        assert all(set(p) == {"backend", "device", "available", "reason"}
                   for p in d["probes"])


class TestFakeDeviceBackend:
    def test_cuda_capabilities(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy())
        backend = ArrayApiBackend(device="cuda")
        caps = backend.capabilities
        assert caps.device == "cuda"
        assert caps.device_bound
        assert caps.exactness == "tolerance"

    def test_mps_requires_torch(self):
        with pytest.raises(BackendUnavailableError, match="torch not importable"):
            ArrayApiBackend(device="mps")


class _FakePool:
    """Stands in for a ProcessPoolExecutor during the probe handshake."""

    def __init__(self, replies):
        self._replies = list(replies)
        self.shut_down = False

    def submit(self, fn, *args, **kwargs):
        future = Future()
        reply = self._replies.pop(0)
        if isinstance(reply, Exception):
            future.set_exception(reply)
        else:
            future.set_result(reply)
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestShardHandshake:
    @pytest.fixture()
    def engine(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cupy", _fake_cupy())
        pipeline = FaceDetectionPipeline(
            quick_cascade(seed=0),
            config=PipelineConfig(backend=ArrayApiBackend(device="cuda")),
        )
        engine = DetectionEngine(pipeline, workers=2, sharding="processes")
        yield engine
        engine.close()

    def _reply(self, backend="arrayapi", device="cuda"):
        return {"pid": 1234, "backend": backend, "device": device,
                "probe_path": "fake"}

    def test_matching_probes_pass(self, engine):
        engine._verify_worker_probes(_FakePool([self._reply(), self._reply()]))

    def test_device_mismatch_refused(self, engine):
        pool = _FakePool([self._reply(), self._reply(device="cpu")])
        with pytest.raises(ConfigurationError, match="cannot shard device-bound"):
            engine._verify_worker_probes(pool)
        assert pool.shut_down

    def test_worker_probe_failure_refused(self, engine):
        pool = _FakePool([self._reply(), RuntimeError("worker died")])
        with pytest.raises(ConfigurationError, match="worker probe failed"):
            engine._verify_worker_probes(pool)
        assert pool.shut_down
