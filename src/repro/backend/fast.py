"""The opt-in accelerated tier: float32 params + optional BLAS dispatch.

``FastBackend`` trades the reference tier's bit-exactness for speed,
inside tolerance bounds the parity suite pins per model
(``tests/backend/test_parity.py``):

* **float32 parameters** — the whole trainable side runs at single
  precision (the autograd engine is dtype-preserving and the frozen
  engine pins per-dtype operator variants, so nothing upcasts).
  Honestly measured ~1.3-1.4x on 3-layer LightGCN under interleaved
  rotated-order rounds (the PR 2 snapshot's 2.3x predates that
  methodology and today's ~2x-faster float64 reference — see the
  Table VII backend addendum).
* **accelerated scatter/gather** — the gather-backward scatter switches
  to a dtype-preserving sort/segment-sum above a table-size crossover
  (the reference flat bincount pays a float64 round-trip and a
  full-table accumulation), and row gathers take the ``np.take`` fast
  path.
* **optional torch / cupy dispatch** — when the libraries are
  importable, large 2-D matmuls route through ``torch.matmul``
  (threaded BLAS) or cupy (GPU). Neither is a dependency: detection is
  a guarded import, and absent libraries silently leave the numpy BLAS
  path in place. ``REPRO_FAST_TORCH=0`` / ``REPRO_FAST_CUPY=0`` force
  them off even when importable (cupy additionally requires
  ``REPRO_FAST_CUPY=1`` — device round-trips only pay off on sustained
  large batches, so it is opt-in twice).

Elementwise kernels inherit the reference expressions: the fast tier's
numeric drift comes from the dtype, not from different formulas.
"""

from __future__ import annotations

import os

import numpy as np

from .base import ArrayBackend

#: minimum multiply-add count before a 2-D matmul is worth shipping to
#: an external BLAS (below this, dispatch overhead dominates)
DISPATCH_MIN_FLOPS = 1 << 18

_BLAS_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _load_torch():
    """torch, when importable and not disabled; else None."""
    if os.environ.get("REPRO_FAST_TORCH", "1") == "0":
        return None
    try:
        import torch
    except Exception:
        return None
    return torch


def _load_cupy():
    """cupy, when importable and explicitly enabled; else None."""
    if os.environ.get("REPRO_FAST_CUPY", "0") != "1":
        return None
    try:
        import cupy
        cupy.zeros(1)  # fail here, not mid-training, without a device
    except Exception:
        return None
    return cupy


class FastBackend(ArrayBackend):
    """float32 parameters, accelerated scatter, optional torch/cupy."""

    name = "fast"
    param_dtype = np.float32
    accelerated = True

    def __init__(self):
        self._torch = _load_torch()
        self._cupy = _load_cupy()
        if self._torch is None and self._cupy is None:
            # Nothing to dispatch to: bind the plain BLAS paths
            # directly so the hot loop never pays the per-call
            # dispatchability check.
            self.matmul = ArrayBackend.matmul.__get__(self)
            self.matmul_out = ArrayBackend.matmul_out.__get__(self)

    def _dispatchable(self, a: np.ndarray, b: np.ndarray) -> bool:
        return (a.ndim == 2 and b.ndim == 2
                and a.dtype == b.dtype and a.dtype in _BLAS_DTYPES
                and a.shape[0] * a.shape[1] * b.shape[1]
                >= DISPATCH_MIN_FLOPS)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._dispatchable(a, b):
            if self._cupy is not None:
                cp = self._cupy
                return cp.asnumpy(cp.asarray(a) @ cp.asarray(b))
            if self._torch is not None:
                t = self._torch
                ta = t.from_numpy(np.ascontiguousarray(a))
                tb = t.from_numpy(np.ascontiguousarray(b))
                return t.matmul(ta, tb).numpy()
        return a @ b

    def matmul_out(self, a: np.ndarray, b: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
        if self._torch is not None and self._dispatchable(a, b) \
                and out.flags.c_contiguous and out.dtype == a.dtype:
            t = self._torch
            ta = t.from_numpy(np.ascontiguousarray(a))
            tb = t.from_numpy(np.ascontiguousarray(b))
            t.matmul(ta, tb, out=t.from_numpy(out))
            return out
        return np.matmul(a, b, out=out)

    def gather_rows(self, table: np.ndarray,
                    indices: np.ndarray) -> np.ndarray:
        # np.take skips the fancy-indexing machinery (~30% on the small
        # per-step gathers that dominate embedding lookups)
        return np.take(table, indices, axis=0)

    def bincount_rows(self, inverse: np.ndarray, values: np.ndarray,
                      num_rows: int, cols: int) -> np.ndarray:
        # Sort-based segment sum instead of the reference flat bincount
        # when the table is much larger than the batch: np.bincount
        # forces a float64 weights round-trip and accumulates over the
        # full num_rows*cols range, while sorting the (short) bucket
        # vector and reducing contiguous segments stays in the input
        # dtype and touches O(batch) values. Below the crossover the
        # argsort overhead loses to the plain bincount, so small tables
        # keep the reference kernel. Summation *order* within a bucket
        # is preserved (stable sort), only the accumulator dtype
        # differs — which is exactly the fast tier's tolerance
        # contract.
        if inverse.size == 0:
            return np.zeros((num_rows, cols), dtype=values.dtype)
        if num_rows < 4 * inverse.size:
            block = super().bincount_rows(inverse, values, num_rows, cols)
            return block.astype(values.dtype, copy=False)
        order = np.argsort(inverse, kind="stable")
        sorted_inverse = inverse[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(sorted_inverse[1:]
                                 != sorted_inverse[:-1]) + 1))
        sums = np.add.reduceat(np.take(values, order, axis=0), starts,
                               axis=0)
        out = np.zeros((num_rows, cols), dtype=sums.dtype)
        out[sorted_inverse[starts]] = sums
        return out

    def describe(self) -> dict:
        info = super().describe()
        info["torch"] = self._torch is not None
        info["cupy"] = self._cupy is not None
        return info
