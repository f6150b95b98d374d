"""The array backend: one seam for every numerical primitive.

Every array primitive the system touches — the autograd engine's dense
BLAS and transcendentals, the frozen-graph engine's sparse propagation,
the serving kernels' scoring matmuls, the gather/scatter pair behind
embedding lookups — dispatches through :func:`active`. Each method body
is the exact NumPy expression the call sites ran before this seam
existed, so the backend is numpy/float64-preserving and bit-exact:
training fingerprints, the committed golden suite and every published
results/ table are defined on it, and any floating-point change here
re-rolls every recorded outcome.
"""

from __future__ import annotations

import os

import numpy as np
import scipy.sparse as sp

__all__ = ["ArrayBackend", "active", "blas_thread_count", "runtime_info"]


class ArrayBackend:
    """numpy/float64-preserving implementations of every primitive."""

    # -- dense BLAS -----------------------------------------------------
    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Dense matrix product ``a @ b`` (any ndim numpy supports)."""
        return a @ b

    def matmul_out(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        """``np.matmul(a, b, out=out)`` — the fused kernels' in-place
        block products."""
        return np.matmul(a, b, out=out)

    # -- sparse propagation ---------------------------------------------
    def spmm(self, matrix: sp.spmatrix, x: np.ndarray) -> np.ndarray:
        """Frozen-operator application ``matrix @ x`` (CSR operand)."""
        return matrix @ x

    def spmm_t(self, matrix: sp.spmatrix, g: np.ndarray) -> np.ndarray:
        """The matching backward product ``matrix.T @ g``."""
        return matrix.T @ g

    # -- elementwise transcendentals ------------------------------------
    def exp(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    def log(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    def sqrt(self, x: np.ndarray) -> np.ndarray:
        return np.sqrt(x)

    def tanh(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def sigmoid(self, x: np.ndarray) -> np.ndarray:
        """The engine's clipped logistic (the exact expression
        ``Tensor.sigmoid`` has always computed)."""
        return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))

    # -- gather / scatter -----------------------------------------------
    def gather_rows(self, table: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        """Embedding lookup ``table[indices]``."""
        return table[indices]

    def bincount_rows(self, inverse: np.ndarray, values: np.ndarray,
                      num_rows: int, cols: int) -> np.ndarray:
        """Sum ``values`` rows into ``num_rows`` buckets via one flat
        bincount (float64 accumulation, input-order sums per bucket) —
        the gather-backward scatter kernel."""
        flat = (inverse[:, None] * cols + np.arange(cols)[None, :]).ravel()
        block = np.bincount(flat, weights=values.ravel(),
                            minlength=num_rows * cols)
        return block.reshape(num_rows, cols)


_ACTIVE = ArrayBackend()


def active() -> ArrayBackend:
    """The backend every primitive call site dispatches through (a
    module-level singleton; call sites look it up per call, so patching
    a method on its class takes effect everywhere)."""
    return _ACTIVE


def blas_thread_count() -> int:
    """Best-effort effective BLAS thread count.

    Prefers threadpoolctl's live pool introspection when importable,
    falls back to the conventional environment pins, then to the CPU
    count (what un-pinned OpenBLAS/MKL default to).
    """
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        counts = [pool.get("num_threads", 0) for pool in threadpool_info()
                  if pool.get("user_api") == "blas"]
        counts = [count for count in counts if count]
        if counts:
            return max(counts)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return os.cpu_count() or 1


def runtime_info() -> dict:
    """Self-describing runtime record for timing rows: the backend's
    name, the trainable-parameter dtype, and the effective BLAS thread
    count."""
    from .autograd.init import PARAM_DTYPE
    return {
        "backend": "reference",
        "param_dtype": np.dtype(PARAM_DTYPE).name,
        "blas_threads": blas_thread_count(),
    }
