"""Optimizers: SGD (with momentum) and Adam (the paper's choice).

Both optimizers understand the row-sparse gradients embedding gathers
emit (:mod:`repro.autograd.rowsparse`) and apply **lazy per-row
updates**: a step touches only the rows the batch gradient names, and
every skipped per-row update (Adam's moment decay keeps moving
parameters even without gradients) is recorded and replayed *exactly* —
the identical floating-point operation sequence the dense schedule would
have run — whenever a stale row is next read. Reads are intercepted by
:class:`repro.autograd.tensor._LazyParam`: gathering rows replays just
those rows; reading the full array (propagation, ``state_dict``,
serving exports) replays everything pending. Trained parameters are
therefore bit-identical to the dense schedule at every observation
point, while the per-step cost scales with the touched/active rows
instead of the catalog.

Rows never touched by any gradient are skipped outright: with
``m = v = 0`` the dense Adam update is ``p -= lr * (0 / b1) /
(sqrt(0 / b2) + eps) = p - 0.0``, an exact no-op (same for SGD), so
fast-forwarding them is bit-exact. On catalog-dominated tables (strict
cold-start items, rare KG entities) this is most of the catalog.

Laziness is enabled per-optimizer when ``REPRO_SPARSE_GRAD`` is not
``0`` and ``weight_decay == 0`` — decoupled weight decay touches every
row through ``p.data`` itself, so those configurations keep the dense
schedule (sparse gradients are densified on arrival).
"""

from __future__ import annotations

import time

import numpy as np

from . import rowsparse
from .rowsparse import RowSparseGrad
from .tensor import Tensor, install_lazy_state, release_lazy_state

#: row-block size for gradient-norm accumulation (bounds temporaries to
#: ``_CLIP_CHUNK x dim`` instead of the full table).
_CLIP_CHUNK = 4096

#: wall-clock seconds spent replaying deferred per-row updates, across
#: every optimizer in the process. Replay is *optimizer-step work* the
#: lazy schedule moved to read time (forward gathers, flushes); the
#: step-breakdown harness reads this to attribute it to the step phase
#: instead of whichever phase happened to trigger the read.
REPLAY_SECONDS = 0.0


class _LazyRowState:
    """Deferred per-row updates of one 2-D parameter under one optimizer.

    ``history[j] = (global_step, lr)`` records the j-th gradient step
    this *parameter* received since the last full sync (steps where the
    parameter had no gradient never existed for it — the dense loop
    ``continue``-d past it). ``applied[r]`` counts how many of those
    steps row ``r`` has consumed; ``touched[r]`` marks rows with any
    nonzero moment state (rows never touched replay as exact no-ops and
    are fast-forwarded without arithmetic).
    """

    __slots__ = ("opt", "idx", "param", "applied", "touched", "history",
                 "dirty", "_touched_stale")

    def __init__(self, opt: "Optimizer", idx: int, param: Tensor):
        self.opt = opt
        self.idx = idx
        self.param = param
        num_rows = param._rawdata().shape[0]
        self.applied = np.zeros(num_rows, dtype=np.int64)
        self.touched = np.zeros(num_rows, dtype=bool)
        self.history: list[tuple[int, float]] = []
        self.dirty = False
        # Set by dense steps, which update moments without per-row
        # bookkeeping; resolved lazily before the next sparse step.
        self._touched_stale = False

    # -- read-side synchronization (called via _LazyParam) --------------
    def sync_rows(self, rows: np.ndarray) -> None:
        """Replay pending updates for ``rows`` only (gather fast path).

        This is the forward hot path of every gather from a
        sparse-tracked table, so it does the minimum provably-needed
        work (PR 3 paid an ``np.unique`` plus full pending bookkeeping
        per gather here — the forward-phase regression):

        * rows never touched by a gradient replay as exact no-ops, so
          they are skipped without even advancing their counters — the
          next flush or touching step settles the bookkeeping;
        * ``rows`` may contain duplicates: the replay kernels are
          gather-modify-scatter (each copy computes the same value from
          the pre-replay state, and the scatter collapses them), so no
          dedup pass is needed.
        """
        if not self.dirty:
            return
        if not self.opt._has_idle_updates():
            # Every missed step is an exact no-op for every row (no
            # moment decay without idle updates).
            return
        self._refresh_touched()
        stale = rows[self.touched[rows]]
        stale = stale[self.applied[stale] < len(self.history)]
        if stale.size:
            self._replay(stale)

    def sync_all(self) -> None:
        """Replay every pending update; resets the step history."""
        if not self.dirty:
            return
        self._catch_up(None)
        self.history.clear()
        self.applied[:] = 0
        self.dirty = False

    def _catch_up(self, rows: np.ndarray | None) -> None:
        k = len(self.history)
        if rows is None:
            pending = np.flatnonzero(self.applied < k)
        else:
            pending = rows[self.applied[rows] < k]
        if not pending.size:
            return
        if self.opt._has_idle_updates():
            self._refresh_touched()
            stale = pending[self.touched[pending]]
            if stale.size:
                self._replay(stale)
        self.applied[pending] = k

    def _replay(self, stale: np.ndarray) -> None:
        """Replay each (row, missed step) pair exactly once, with the
        bias corrections / learning rate of that step."""
        global REPLAY_SECONDS
        clock_start = time.perf_counter()
        k = len(self.history)
        behind = self.applied[stale]
        # Sort by staleness: rows needing step j are then a prefix
        # slice (no per-step boolean masks). Sequential over missed
        # steps, vectorized over rows.
        order = np.argsort(behind, kind="stable")
        stale = stale[order]
        behind = behind[order]
        bounds = np.searchsorted(behind, np.arange(
            int(behind[0]), k), side="right")
        for j, hi in zip(range(int(behind[0]), k), bounds):
            step, lr = self.history[j]
            self.opt._idle_kernel(self, stale[:hi], step, lr)
        self.applied[stale] = k
        REPLAY_SECONDS += time.perf_counter() - clock_start

    def _refresh_touched(self) -> None:
        if self._touched_stale:
            self.touched |= self.opt._active_rows(self)
            self._touched_stale = False

    def _sync_siblings(self) -> None:
        """Fully replay *other* optimizers' pending updates before this
        optimizer writes (shared parameters, e.g. Firzen's embedding
        tables under both the trainer's Adam and the alternating KG
        optimizer). Sibling deferrals predate this step, so flushing
        them first lands every update in dense-schedule order — and
        guarantees at most one optimizer ever holds deferred updates on
        a parameter, which keeps the per-row replay chronology exact
        under arbitrary interleavings, not just the trainer's
        alternating-phase pattern.
        """
        states = self.param._lazy
        if states and len(states) > 1:
            for other in states:
                if other is not self and other.dirty:
                    other.sync_all()

    # -- write side (optimizer steps) -----------------------------------
    def sparse_step(self, grad: RowSparseGrad, step: int, lr: float) -> None:
        rows = grad.rows
        self._sync_siblings()
        self._refresh_touched()
        self._catch_up(rows)
        self.opt._row_kernel(self, rows, grad.values, step, lr)
        self.history.append((step, lr))
        self.applied[rows] = len(self.history)
        self.touched[rows] = True
        self.dirty = True

    def dense_step(self, grad: np.ndarray, step: int, lr: float) -> None:
        self._sync_siblings()
        self.sync_all()
        self.opt._dense_kernel(self.idx, grad, step, lr)
        # A full-array update advanced every row at once; per-row
        # touched flags are recovered from the moment buffers only if a
        # sparse step needs them later.
        self._touched_stale = True


class Optimizer:
    def __init__(self, params: list[Tensor]):
        self.params = [p for p in params if p.requires_grad]
        self._lr = 0.0
        self._states: list[_LazyRowState | None] = []

    @property
    def lr(self) -> float:
        return self._lr

    @lr.setter
    def lr(self, value: float) -> None:
        # The replay history records one learning rate per deferred
        # step; flushing before a change keeps that invariant without
        # storing per-step schedules.
        if value != self._lr and self._states:
            self.flush()
        self._lr = value

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def flush(self) -> None:
        """Replay every deferred row update (epoch boundaries, external
        snapshots). A no-op for dense configurations."""
        for state in self._states:
            if state is not None:
                state.sync_all()

    def release(self) -> None:
        """Flush and detach lazy hooks; parameters return to plain
        tensors. Further ``step()`` calls fall back to dense updates
        with the same moment buffers."""
        for i, state in enumerate(self._states):
            if state is not None:
                release_lazy_state(self.params[i], state)
                self._states[i] = None

    def _init_lazy_states(self, sparse: bool | None) -> None:
        lazy = (rowsparse.enabled() if sparse is None else sparse) \
            and self.weight_decay == 0.0
        self._states = []
        for i, p in enumerate(self.params):
            state = None
            if lazy and p._rawdata().ndim == 2:
                state = _LazyRowState(self, i, p)
                if not install_lazy_state(p, state):
                    state = None
            self._states.append(state)

    def step(self) -> None:
        raise NotImplementedError

    def _step_params(self, step: int, lr: float) -> None:
        for i, p in enumerate(self.params):
            grad = p.grad
            if grad is None:
                continue
            state = self._states[i] if i < len(self._states) else None
            if isinstance(grad, RowSparseGrad):
                if state is not None:
                    state.sparse_step(grad, step, lr)
                    continue
                grad = grad.to_dense()
            if state is not None:
                state.dense_step(grad, step, lr)
            else:
                if p._lazy:
                    # Another optimizer defers updates on this shared
                    # parameter; replay them before this eager write.
                    for other in p._lazy:
                        other.sync_all()
                self._dense_kernel(i, grad, step, lr)

    # Hooks the concrete optimizers provide.
    def _has_idle_updates(self) -> bool:
        raise NotImplementedError

    def _active_rows(self, state: _LazyRowState) -> np.ndarray:
        raise NotImplementedError

    def _dense_kernel(self, idx: int, grad, step: int, lr: float) -> None:
        raise NotImplementedError

    def _row_kernel(self, state, rows, values, step: int, lr: float) -> None:
        raise NotImplementedError

    def _idle_kernel(self, state, rows, step: int, lr: float) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    Gets the same row-sparse/lazy treatment as Adam: without momentum a
    zero-gradient row is an exact no-op (``p -= lr * 0.0``), with
    momentum the velocity decay is replayed per missed step — so sparse
    and dense schedules stay bit-identical, mirroring Adam's contract.
    """

    def __init__(self, params: list[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0,
                 sparse: bool | None = None):
        super().__init__(params)
        self._lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p._rawdata()) for p in self.params]
        self._init_lazy_states(sparse)

    def step(self) -> None:
        self._step_params(0, self._lr)

    def _has_idle_updates(self) -> bool:
        return bool(self.momentum)

    def _active_rows(self, state: _LazyRowState) -> np.ndarray:
        return self._velocity[state.idx].any(axis=1)

    def _dense_kernel(self, idx: int, grad, step: int, lr: float) -> None:
        p = self.params[idx]
        if self.weight_decay:
            grad = grad + self.weight_decay * p._rawdata()
        if self.momentum:
            vel = self._velocity[idx]
            vel *= self.momentum
            vel += grad
            grad = vel
        raw = p._rawdata()
        raw -= lr * grad

    def _row_kernel(self, state, rows, values, step: int, lr: float) -> None:
        raw = state.param._rawdata()
        if self.momentum:
            vel = self._velocity[state.idx]
            block = vel[rows]
            block *= self.momentum
            block += values
            vel[rows] = block
            values = block
        raw[rows] -= lr * values

    def _idle_kernel(self, state, rows, step: int, lr: float) -> None:
        # Dense schedule with a zero gradient row and momentum:
        # vel = vel * mu + 0.0; p -= lr * vel.
        vel = self._velocity[state.idx]
        block = vel[rows]
        block *= self.momentum
        block += 0.0
        vel[rows] = block
        state.param._rawdata()[rows] -= lr * block


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: list[Tensor], lr: float = 0.001,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8, weight_decay: float = 0.0,
                 sparse: bool | None = None):
        super().__init__(params)
        self._lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p._rawdata()) for p in self.params]
        self._v = [np.zeros_like(p._rawdata()) for p in self.params]
        self._init_lazy_states(sparse)

    def step(self) -> None:
        self._step_count += 1
        self._step_params(self._step_count, self._lr)

    def _has_idle_updates(self) -> bool:
        return True

    def _active_rows(self, state: _LazyRowState) -> np.ndarray:
        return (self._m[state.idx].any(axis=1)
                | self._v[state.idx].any(axis=1))

    def _dense_kernel(self, idx: int, grad, step: int, lr: float) -> None:
        bias1 = 1.0 - self.beta1 ** step
        bias2 = 1.0 - self.beta2 ** step
        p = self.params[idx]
        if self.weight_decay:
            grad = grad + self.weight_decay * p._rawdata()
        m, v = self._m[idx], self._v[idx]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        raw = p._rawdata()
        raw -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def _row_kernel(self, state, rows, values, step: int, lr: float) -> None:
        bias1 = 1.0 - self.beta1 ** step
        bias2 = 1.0 - self.beta2 ** step
        m, v = self._m[state.idx], self._v[state.idx]
        mb = m[rows]
        mb *= self.beta1
        mb += (1.0 - self.beta1) * values
        m[rows] = mb
        vb = v[rows]
        vb *= self.beta2
        vb += (1.0 - self.beta2) * values * values
        v[rows] = vb
        state.param._rawdata()[rows] -= \
            lr * (mb / bias1) / (np.sqrt(vb / bias2) + self.eps)

    def _idle_kernel(self, state, rows, step: int, lr: float) -> None:
        # Dense schedule with a zero gradient row:
        # m = m * b1 + 0.0; v = v * b2 + 0.0; p -= lr * m_hat / (...).
        bias1 = 1.0 - self.beta1 ** step
        bias2 = 1.0 - self.beta2 ** step
        m, v = self._m[state.idx], self._v[state.idx]
        mb = m[rows]
        mb *= self.beta1
        mb += 0.0
        m[rows] = mb
        vb = v[rows]
        vb *= self.beta2
        vb += 0.0
        v[rows] = vb
        state.param._rawdata()[rows] -= \
            lr * (mb / bias1) / (np.sqrt(vb / bias2) + self.eps)


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
    magnitude of the default ``grad_clip=10`` threshold (measured
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
