"""Backend selection contract: registry, env toggle, content addresses.

The ``REPRO_BACKEND`` *environment* override is address-neutral (it must never fracture the
artifact store), while a backend *pinned on the spec* always enters the
train content address because the fast tier is tolerance-parity, not
bit-parity. Golden fingerprints refuse to run off-reference outright.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.backend import (active, available_backends, backend_mode,
                           blas_thread_count, get_backend, runtime_info)
from repro.experiments import ExperimentSpec
from repro.train import TrainConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "golden"))
import protocol  # noqa: E402  (tests/golden/protocol.py)


def _spec(**overrides) -> ExperimentSpec:
    base = dict(name="t", dataset="beauty", size="tiny", models=("BPR",),
                train=TrainConfig(epochs=2, eval_every=1))
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRegistry:
    def test_reference_is_the_default(self):
        assert set(available_backends()) == {"reference", "fast"}
        assert active().name == "reference"

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu-magic")

    def test_instances_are_cached(self):
        assert get_backend("fast") is get_backend("fast")

    def test_tier_properties(self):
        reference, fast = get_backend("reference"), get_backend("fast")
        assert not reference.accelerated
        assert reference.param_dtype is None
        assert fast.accelerated
        assert fast.param_dtype == np.float32


class TestBackendMode:
    def test_sets_and_restores_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        with backend_mode("fast"):
            assert os.environ["REPRO_BACKEND"] == "fast"
            assert active().name == "fast"
        assert "REPRO_BACKEND" not in os.environ
        assert active().name == "reference"

    def test_restores_previous_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "reference")
        with backend_mode("fast"):
            pass
        assert os.environ["REPRO_BACKEND"] == "reference"

    def test_rejects_unknown_names_up_front(self):
        with pytest.raises(ValueError, match="unknown backend"):
            with backend_mode("nope"):
                pass  # pragma: no cover - must not enter


class TestContentAddresses:
    def test_env_override_is_address_neutral(self, monkeypatch):
        # The env override is an execution detail, so cached reference
        # artifacts stay addressable.
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        key = _spec().train_key("BPR")
        with backend_mode("fast"):
            assert _spec().train_key("BPR") == key

    def test_pinned_backend_enters_the_address(self):
        base, fast = _spec(), _spec(backend="fast")
        assert fast.train_key("BPR") != base.train_key("BPR")
        # ... even pinning the default tier: pinned-reference promises
        # bit-exact artifacts, unpinned merely defaults to them
        assert _spec(backend="reference").train_key("BPR") != \
            base.train_key("BPR")

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown backend"):
            _spec(backend="gpu-magic")


class TestGoldenGuard:
    def test_goldens_refuse_the_fast_tier(self):
        with backend_mode("fast"):
            with pytest.raises(RuntimeError, match="reference-backend"):
                protocol.require_reference_backend()

    def test_goldens_accept_the_reference_tier(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        protocol.require_reference_backend()


class TestRuntimeInfo:
    def test_reference_record(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        info = runtime_info()
        assert info == {"backend": "reference", "param_dtype": "float64",
                        "blas_threads": info["blas_threads"]}
        assert info["blas_threads"] >= 1

    def test_fast_record(self):
        with backend_mode("fast"):
            info = runtime_info()
        assert info["backend"] == "fast"
        assert info["param_dtype"] == "float32"

    def test_blas_thread_count_is_positive(self):
        assert blas_thread_count() >= 1
