"""The array-backend interface: every primitive the system computes with.

An :class:`ArrayBackend` owns the numerical primitives the autograd
engine (:mod:`repro.autograd`), the frozen-graph engine
(:mod:`repro.engine`), and the serving kernels (:mod:`repro.serve`)
dispatch through — dense BLAS, sparse propagation, the transcendental
elementwise kernels, and the gather/scatter pair behind embedding
lookups. The base class *is* the reference implementation: every method
body is the exact NumPy expression the call sites ran before the
backend seam existed, so a backend that overrides nothing reproduces
the historical floating-point sequence bit for bit.

Backends carry two capability fields the rest of the system consults:

``param_dtype``
    Trainable-parameter dtype override (``None`` follows
    ``repro.autograd.init.PARAM_DTYPE``; the fast tier pins float32).
``accelerated``
    Whether the backend trades bit-exactness for speed. Bit-parity
    suites (golden fingerprints, exact replay tests) refuse to run on
    accelerated backends — drifted fingerprints would be attributed to
    regressions they are not.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


class ArrayBackend:
    """Reference (numpy/float64-preserving) implementations of every
    backend primitive; subclasses override what they accelerate."""

    #: registry name; subclasses must override
    name = "reference"
    #: parameter-dtype override (``None`` → ``init.PARAM_DTYPE``)
    param_dtype: np.dtype | None = None
    #: True when numerics may differ from the reference by rounding
    accelerated = False

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

    # -- introspection --------------------------------------------------
    def describe(self) -> dict:
        """Plain-data capability summary (timing rows embed it)."""
        return {
            "backend": self.name,
            "accelerated": self.accelerated,
            "param_dtype": (None if self.param_dtype is None
                            else np.dtype(self.param_dtype).name),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
