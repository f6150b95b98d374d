"""Adam (the paper's optimizer), stepped by rows, and gradient clipping.

Adam steps a 2-D parameter **by rows** when its gradient is row-sparse
(:mod:`repro.autograd.rowsparse`): the rows the gradient names take the
ordinary update, and every other row that already has moments takes
the dense update with a zero gradient row (the moment decay keeps
moving such a row). Both land in the same step, with the identical
floating-point operations the dense schedule runs, so trained
parameters and moments are bit-identical to it after every step.

Rows without moments are skipped outright: with ``m = v = 0`` the dense
update is ``p -= lr * (0 / b1) / (sqrt(0 / b2) + eps) = p - 0.0``, an
exact no-op. On catalog-dominated tables (strict cold-start items, rare
KG entities) this is most of the catalog, so a step costs the rows that
ever had a gradient instead of the whole table.

Row stepping is on unless ``REPRO_SPARSE_GRAD`` is ``0`` or the
optimizer is built with ``sparse=False``; parameters that are not 2-D
are always stepped densely (sparse gradients are densified on arrival).
"""

from __future__ import annotations

import numpy as np

from . import rowsparse
from .rowsparse import RowSparseGrad
from .tensor import Tensor

#: row-block size for gradient-norm accumulation (bounds temporaries to
#: ``_CLIP_CHUNK x dim`` instead of the full table).
_CLIP_CHUNK = 4096


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, sparse: bool | None = None):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        by_rows = rowsparse.enabled() if sparse is None else sparse
        #: per parameter: the boolean mask of rows with moments for a
        #: parameter stepped by rows, ``None`` for one stepped densely
        #: only.
        self._masks: list[np.ndarray | None] = []
        for p in self.params:
            mask = None
            if by_rows and p.data.ndim == 2:
                mask = np.zeros(p.data.shape[0], dtype=bool)
                p._lazy = True
            self._masks.append(mask)
        #: indices whose mask is recovered from the moment buffers
        #: before their next row step (after a dense step or a restore).
        self._stale: set[int] = set()

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        self._step_count += 1
        for i, p in enumerate(self.params):
            grad = p.grad
            if grad is None:
                continue
            mask = self._masks[i]
            if isinstance(grad, RowSparseGrad):
                if mask is not None:
                    self._row_step(i, mask, grad)
                    continue
                grad = grad.to_dense()
            self._dense_step(i, grad)
            if mask is not None:
                self._stale.add(i)

    def _dense_step(self, idx: int, grad: np.ndarray) -> None:
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        m, v = self._m[idx], self._v[idx]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        self.params[idx].data -= \
            self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _row_step(self, idx: int, mask: np.ndarray,
                  grad: RowSparseGrad) -> None:
        rows = grad.rows
        if idx in self._stale:
            mask |= self._m[idx].any(axis=1) | self._v[idx].any(axis=1)
            self._stale.discard(idx)
        mask[rows] = False
        idle = np.flatnonzero(mask)
        if idle.size:
            # The dense schedule's zero gradient row: m = m * b1 + 0.0,
            # v = v * b2 + 0.0, then the ordinary parameter update.
            self._row_kernel(idx, idle, 0.0)
        self._row_kernel(idx, rows, grad.values)
        mask[rows] = True

    def _row_kernel(self, idx: int, rows: np.ndarray, values) -> None:
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        m, v = self._m[idx], self._v[idx]
        mb = m[rows]
        mb *= self.beta1
        mb += (1.0 - self.beta1) * values
        m[rows] = mb
        vb = v[rows]
        vb *= self.beta2
        vb += (1.0 - self.beta2) * values * values
        v[rows] = vb
        self.params[idx].data[rows] -= \
            self.lr * (mb / bias1) / (np.sqrt(vb / bias2) + self.eps)


def _grad_sq_sum(grad) -> float:
    """Sum of squared gradient entries, in the row-ordered accumulation
    both representations can reproduce bit-for-bit.

    2-D gradients reduce per row first (the same contiguous-axis
    reduction for a dense row and a sparse block row), then over the
    full-length row-sum vector — absent sparse rows contribute the same
    exact ``+0.0`` a zero dense row does. Dense 2-D arrays stream
    through ``_CLIP_CHUNK``-row blocks, so no full-table ``grad ** 2``
    temporary is ever allocated.
    """
    if isinstance(grad, RowSparseGrad):
        row_sums = np.zeros(grad.shape[0], dtype=grad.values.dtype)
        if len(grad.rows):
            row_sums[grad.rows] = (grad.values * grad.values).sum(axis=1)
        return float(np.sum(row_sums))
    if grad.ndim >= 2:
        # >=3-D gradients (the stacked per-relation projections) flatten
        # to rows of the last axis: same bounded temporaries, same
        # row-ordered accumulation spec as the 2-D case.
        grad = grad.reshape(-1, grad.shape[-1])
        num_rows = grad.shape[0]
        row_sums = np.empty(num_rows, dtype=grad.dtype)
        for start in range(0, num_rows, _CLIP_CHUNK):
            block = grad[start:start + _CLIP_CHUNK]
            row_sums[start:start + _CLIP_CHUNK] = (block * block).sum(axis=1)
        return float(np.sum(row_sums))
    return float((grad ** 2).sum())


def clip_grad_norm(params: list[Tensor], max_norm: float) -> float:
    """Clip the global gradient norm in place; returns the pre-clip norm.

    Row-sparse gradients contribute only their stored blocks (zero rows
    add exact zeros), and dense 2-D gradients are reduced in bounded
    row chunks — the norm is bit-identical across the sparse and dense
    pipelines, and no catalog-sized temporary is allocated either way.

    Note the accumulation *specification* changed with the row-sparse
    pipeline: 2-D gradients now reduce per row and then over the
    row-sum vector, where the historical kernel ran one flat pairwise
    sum over all ``N*d`` entries. The flat order cannot be reproduced
    from a sparse block without materializing a catalog-sized
    temporary, so the row order is the one canonical spec both
    representations meet bit-for-bit. The two specs differ by a few
    ulps at most, which only matters when clipping actually binds —
    and no shipped training configuration comes within an order of
    magnitude of the trainer's ``GRAD_CLIP = 10`` bound (measured
    pre-clip norms peak around 0.35), so recorded results are
    unaffected. ``tests/optim/test_clip_norm.py`` pins the row-ordered
    spec and the sparse/dense equality.
    """
    total = 0.0
    for p in params:
        if p.grad is not None:
            total += _grad_sq_sum(p.grad)
    total = float(np.sqrt(total))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            if p.grad is None:
                continue
            if isinstance(p.grad, RowSparseGrad):
                p.grad.scale_(scale)
            else:
                p.grad *= scale
    return total
