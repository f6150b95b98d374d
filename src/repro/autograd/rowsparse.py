"""Row-sparse gradients for embedding-table parameters.

A BPR mini-batch touches a few hundred rows of each embedding table, but
the dense gather backward materializes a full ``(num_rows, dim)`` array
of mostly zeros per gather — the training step then scales with the
catalog, not the batch. :class:`RowSparseGrad` stores only the touched
row indices and their value block, so gather backward, gradient
accumulation and clipping cost O(batch rows), and the optimizer step
costs the rows that have optimizer state instead of the whole table.

Bit-reproducibility contract
----------------------------
Every operation here consumes the *identical floating-point operation
sequence* as the dense path it replaces:

* coalescing duplicate row contributions sums them in input order via
  the same ``np.bincount`` (or ``np.add.at``) reduction the dense
  scatter-add ran, so block values equal the dense gradient rows bit
  for bit;
* accumulating two gradients merges blocks in arrival order, matching
  the elementwise ``dense_a + dense_b``;
* rows absent from a sparse gradient correspond to exact ``+0.0``
  contributions in the dense path, and adding ``0.0`` is exact — the
  only representable difference is the sign of a zero, which provably
  cannot propagate into Adam moments or parameter values.

``REPRO_SPARSE_GRAD=0`` disables sparse emission entirely, forcing the
historical dense path (the bit-parity reference).
"""

from __future__ import annotations

import os

import numpy as np


def enabled() -> bool:
    """Whether gather backward may emit row-sparse gradients.

    Read per call so tests (and operators) can flip the environment
    toggle without re-importing; the check is two dict lookups.
    """
    return os.environ.get("REPRO_SPARSE_GRAD", "1") != "0"


def _bincount_rows(inverse: np.ndarray, values: np.ndarray,
                   num_rows: int, cols: int) -> np.ndarray:
    """Sum ``values`` rows into ``num_rows`` buckets via one flat
    bincount (float64 accumulation, input-order sums per bucket).

    Dispatches through the array backend's scatter kernel
    (:meth:`repro.backend.ArrayBackend.bincount_rows`, which is exactly
    this bincount)."""
    from ..backend import active
    return active().bincount_rows(inverse, values, num_rows, cols)


class RowSparseGrad:
    """Gradient of a 2-D parameter touched only on ``rows``.

    ``rows`` is always unique and sorted (coalesced at construction);
    ``values`` is the matching ``(len(rows), dim)`` block. Logically this
    represents a dense ``shape`` array that is zero off the listed rows.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows = rows
        self.values = values
        self.shape = shape

    def __repr__(self) -> str:
        return (f"RowSparseGrad(rows={len(self.rows)}, "
                f"shape={self.shape}, dtype={self.values.dtype})")

    @property
    def dtype(self):
        return self.values.dtype

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_gather(cls, indices: np.ndarray, g: np.ndarray, shape: tuple,
                    dtype, via_bincount: bool = True) -> "RowSparseGrad":
        """Coalesce a gather backward (``d out[k] -> d table[indices[k]]``).

        ``via_bincount=True`` reproduces the ``take_rows`` dense kernel
        (float64 bincount, then cast); ``via_bincount=False`` reproduces
        the ``np.add.at`` kernel ``__getitem__`` used. Both sum duplicate
        contributions in input order, exactly like their dense
        counterparts did into the full array.
        """
        uniq, inverse = np.unique(indices, return_inverse=True)
        cols = shape[1]
        if via_bincount:
            block = _bincount_rows(inverse, g, len(uniq), cols)
            block = block.astype(dtype, copy=False)
        elif np.dtype(dtype) == np.float64:
            # For float64 the bincount reduction is bit-identical to
            # np.add.at (same sequential input-order sums, same dtype)
            # and roughly an order of magnitude faster.
            block = _bincount_rows(inverse, g, len(uniq), cols)
        else:
            block = np.zeros((len(uniq), cols), dtype=dtype)
            np.add.at(block, inverse, g)
        return cls(uniq, block, tuple(shape))

    # ------------------------------------------------------------------
    # conversions / accumulation
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the equivalent dense gradient array."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.rows] = self.values
        return dense

    def add(self, other: "RowSparseGrad") -> "RowSparseGrad":
        """Merge two coalesced sparse gradients (``self`` arrived first).

        Shared rows sum ``self`` block then ``other`` block — the same
        order the dense ``a += b`` consumed.
        """
        rows = np.concatenate([self.rows, other.rows])
        values = np.concatenate([self.values, other.values])
        uniq, inverse = np.unique(rows, return_inverse=True)
        cols = self.shape[1]
        if values.dtype == np.float64:
            block = _bincount_rows(inverse, values, len(uniq), cols)
        else:
            block = np.zeros((len(uniq), cols), dtype=values.dtype)
            np.add.at(block, inverse, values)
        return RowSparseGrad(uniq, block, self.shape)

    def add_to_dense(self, dense: np.ndarray) -> np.ndarray:
        """In-place ``dense += self`` (``dense`` arrived first)."""
        dense[self.rows] += self.values
        return dense

    def add_dense(self, dense: np.ndarray) -> np.ndarray:
        """Return ``self + dense`` as a dense array (``self`` first).

        Built from the dense operand plus a row scatter — one copy
        instead of a zeros table plus a full add. Bit-equal to the
        arrival-order sum because IEEE addition commutes exactly.
        """
        out = np.array(dense, dtype=self.values.dtype, copy=True)
        out[self.rows] += self.values
        return out

    def scale_(self, factor: float) -> None:
        """In-place multiply (gradient clipping); zero rows stay zero."""
        self.values *= factor


def grad_sum(a, b):
    """Accumulate two gradient contributions, ``a`` having arrived first.

    Handles every dense/sparse pairing with the arrival-order semantics
    of the dense reference (``a + b``); used by the backward sweep when
    several graph paths feed one node.
    """
    a_sparse = isinstance(a, RowSparseGrad)
    b_sparse = isinstance(b, RowSparseGrad)
    if a_sparse and b_sparse:
        return a.add(b)
    if a_sparse:
        return a.add_dense(b)
    if b_sparse:
        out = np.array(a, copy=True)
        out[b.rows] += b.values
        return out
    return a + b
