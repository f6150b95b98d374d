"""The array backend's contract: one patchable singleton and a
self-describing runtime record."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.backend import (ArrayBackend, active, blas_thread_count,
                           runtime_info)


class TestActive:
    def test_call_sites_see_methods_patched_on_its_class(self, monkeypatch):
        # Benchmarks time primitives by patching type(active()); that
        # only works while call sites look the backend up per call.
        shapes = []
        original = ArrayBackend.matmul

        def counting(self, a, b):
            shapes.append(a.shape)
            return original(self, a, b)

        monkeypatch.setattr(type(active()), "matmul", counting)
        Tensor(np.ones((2, 3))) @ Tensor(np.ones((3, 4)))
        assert active() is active()
        assert shapes == [(2, 3)]


class TestRuntimeInfo:
    def test_reference_record(self):
        info = runtime_info()
        assert info == {"backend": "reference", "param_dtype": "float64",
                        "blas_threads": info["blas_threads"]}
        assert info["blas_threads"] >= 1

    def test_blas_thread_count_is_positive(self):
        assert blas_thread_count() >= 1
