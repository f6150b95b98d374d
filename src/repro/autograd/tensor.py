"""Reverse-mode automatic differentiation on NumPy arrays.

This module is the compute substrate for the whole reproduction: the paper
trains its models with PyTorch, which is unavailable offline, so we provide
a small but complete tape-based autodiff engine with the same semantics
(broadcasting, chain rule, accumulation into ``.grad``).

The design is deliberately simple: each :class:`Tensor` stores its value,
its parents, and a closure that pushes the upstream gradient to the parents.
The binary ops compute a parent's gradient only when that parent requires
one. ``backward()`` runs a reverse topological sweep. Gradients are validated
against central finite differences in ``tests/autograd/test_gradcheck.py``.

The compute-dominant primitives — matmuls, the transcendental
elementwise kernels, embedding-row gathers — dispatch through the
array backend (:func:`repro.backend.active`). Its methods are the
exact NumPy expressions these ops always ran, so the engine is
bit-identical to history.
"""

from __future__ import annotations

import numpy as np

from ..backend import active as _active_backend
from . import rowsparse
from .rowsparse import RowSparseGrad


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


#: Floating dtypes the engine preserves. Everything else (ints, bools,
#: python lists) is promoted to float64. Parameters default to float64
#: (``init.PARAM_DTYPE``; the published tables are float64-reproducible)
#: but float32 pipelines flow through untouched — no silent upcasts.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _as_array(value) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype in _FLOAT_DTYPES:
            return value
        return value.astype(np.float64)
    arr = np.asarray(value)
    if arr.dtype in _FLOAT_DTYPES:
        return arr
    return arr.astype(np.float64)


def _is_pyscalar(value) -> bool:
    """Python (or numpy-float64) scalars get a dedicated fast path in the
    binary ops: numpy's weak scalar promotion keeps the tensor's dtype, so
    float32 pipelines stay float32 and float64 ones keep full precision."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class Tensor:
    """A NumPy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like value. float32 and float64 arrays keep their dtype
        (the whole engine is dtype-preserving); everything else is
        stored as float64.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name", "_lazy")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | RowSparseGrad | None = None
        self._backward = None
        self._parents: tuple = ()
        self.name = name
        #: set by an optimizer that steps this parameter by rows; its
        #: gathers then emit (and ``.grad`` keeps) row-sparse gradients.
        self._lazy = False

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # graph bookkeeping
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad) -> None:
        if not self.requires_grad:
            return
        if isinstance(grad, RowSparseGrad):
            # Sparse gradients are only kept sparse for parameters an
            # optimizer steps by rows; everything else densifies
            # immediately, preserving the historical `.grad` ndarray
            # contract.
            if not self._lazy:
                grad = grad.to_dense()
            elif self.grad is None:
                self.grad = grad
                return
            elif isinstance(self.grad, RowSparseGrad):
                self.grad = self.grad.add(grad)
                return
            else:
                grad.add_to_dense(self.grad)
                return
        if self.grad is None:
            self.grad = np.array(grad, dtype=self.data.dtype, copy=True)
        elif isinstance(self.grad, RowSparseGrad):
            self.grad = self.grad.add_dense(grad)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Run reverse-mode autodiff from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient; defaults to 1 for scalar outputs.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        # Topological order via iterative DFS (avoids recursion limits on
        # deep GNN stacks).
        topo: list = []
        visited: set[int] = set()
        stack: list[tuple] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited and parent.requires_grad:
                    stack.append((parent, False))

        # Apply gradients LIFO: every contribution to a node arrives
        # before the node runs, folded left in arrival order.
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                node._accumulate(node_grad)
                continue
            if isinstance(node_grad, RowSparseGrad) and not getattr(
                    node._backward, "accepts_sparse", False):
                # Only sparse-aware closures (axis-0 concat) can route a
                # row-sparse gradient; everything else gets the dense
                # array the closure was written against.
                node_grad = node_grad.to_dense()
            parent_grads = node._backward(node_grad)
            if not isinstance(parent_grads, tuple):
                parent_grads = (parent_grads,)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                if parent._backward is None and not parent._parents:
                    parent._accumulate(pgrad)
                elif id(parent) in grads:
                    grads[id(parent)] = rowsparse.grad_sum(
                        grads[id(parent)], pgrad)
                else:
                    grads[id(parent)] = pgrad

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            def backward(g):
                return (g,)

            return self._make(self.data + other, (self,), backward)
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad
                    else None,
                    _unbroadcast(g, other.shape) if other.requires_grad
                    else None)

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            def backward(g):
                return (g * other,)

            return self._make(self.data * other, (self,), backward)
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def backward(g):
            return (
                _unbroadcast(g * other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(g * self.data, other.shape)
                if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __sub__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            def backward(g):
                return (g,)

            return self._make(self.data - other, (self,), backward)
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def backward(g):
            return (_unbroadcast(g, self.shape) if self.requires_grad
                    else None,
                    _unbroadcast(-g, other.shape) if other.requires_grad
                    else None)

        return self._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            def backward(g):
                return (-g,)

            return self._make(other - self.data, (self,), backward)
        return Tensor(other) - self

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return self._make(-self.data, (self,), backward)

    def __truediv__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            def backward(g):
                return (g / other,)

            return self._make(self.data / other, (self,), backward)
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def backward(g):
            return (
                _unbroadcast(g / other.data, self.shape)
                if self.requires_grad else None,
                _unbroadcast(-g * self.data / (other.data ** 2), other.shape)
                if other.requires_grad else None,
            )

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        if _is_pyscalar(other):
            data = other / self.data

            def backward(g):
                return (-g * data / self.data,)

            return self._make(data, (self,), backward)
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(g):
            return (g * exponent * self.data ** (exponent - 1),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # matrix ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = _active_backend().matmul(self.data, other.data)

        def backward(g):
            grad_self = grad_other = None
            if self.data.ndim == 1 and other.data.ndim == 1:
                if self.requires_grad:
                    grad_self = g * other.data
                if other.requires_grad:
                    grad_other = g * self.data
            elif self.data.ndim == 1:
                if self.requires_grad:
                    grad_self = g @ other.data.T
                if other.requires_grad:
                    grad_other = np.outer(self.data, g)
            elif other.data.ndim == 1:
                if self.requires_grad:
                    grad_self = np.outer(g, other.data)
                if other.requires_grad:
                    grad_other = self.data.T @ g
            else:
                backend = _active_backend()
                if self.requires_grad:
                    grad_self = _unbroadcast(backend.matmul(
                        g, np.swapaxes(other.data, -1, -2)), self.shape)
                if other.requires_grad:
                    grad_other = _unbroadcast(backend.matmul(
                        np.swapaxes(self.data, -1, -2), g), other.shape)
            return (grad_self, grad_other)

        return self._make(data, (self, other), backward)

    __matmul__ = matmul

    def transpose(self, axes: tuple | None = None) -> "Tensor":
        data = np.transpose(self.data, axes)

        def backward(g):
            if axes is None:
                return (np.transpose(g),)
            inverse = np.argsort(axes)
            return (np.transpose(g, inverse),)

        return self._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(self.shape),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                return (np.broadcast_to(g, self.shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.shape[a] for a in axis]))
        else:
            count = self.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            g = np.asarray(g)
            if axis is None:
                mask = (self.data == data).astype(self.data.dtype)
                mask /= mask.sum()
                return (mask * g,)
            expanded = data if keepdims else np.expand_dims(data, axis)
            gexp = g if keepdims else np.expand_dims(g, axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            return (mask * gexp,)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = _active_backend().exp(self.data)

        def backward(g):
            return (g * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = _active_backend().log(self.data)

        def backward(g):
            return (g / self.data,)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = _active_backend().sqrt(self.data)

        def backward(g):
            return (g * 0.5 / np.maximum(data, 1e-12),)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = _active_backend().sigmoid(self.data)

        def backward(g):
            return (g * data * (1.0 - data),)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = _active_backend().tanh(self.data)

        def backward(g):
            return (g * (1.0 - data ** 2),)

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(g):
            return (g * (self.data > 0.0),)

        return self._make(data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        data = np.where(self.data > 0.0, self.data, negative_slope * self.data)

        def backward(g):
            return (g * np.where(self.data > 0.0, 1.0, negative_slope),)

        return self._make(data, (self,), backward)

    def logsigmoid(self) -> "Tensor":
        """Numerically stable log(sigmoid(x)); used by BPR losses."""
        data = -(np.maximum(-self.data, 0.0) + np.log1p(np.exp(-np.abs(self.data))))

        def backward(g):
            sig = _active_backend().sigmoid(-self.data)
            return (g * sig,)

        return self._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        expd = _active_backend().exp(shifted)
        data = expd / expd.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * data).sum(axis=axis, keepdims=True)
            return (data * (g - dot),)

        return self._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(g):
            inside = (self.data >= low) & (self.data <= high)
            return (g * inside,)

        return self._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(g):
            return (g * np.sign(self.data),)

        return self._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # indexing / gathering
    # ------------------------------------------------------------------
    def __getitem__(self, index) -> "Tensor":
        basic = isinstance(index, (slice, int)) or (
            isinstance(index, tuple)
            and all(isinstance(i, (slice, int)) for i in index))
        row_gather = (not basic and self.data.ndim == 2
                      and isinstance(index, np.ndarray)
                      and index.ndim == 1
                      and np.issubdtype(index.dtype, np.integer)
                      and (not index.size or index.min() >= 0))
        data = self.data[index]
        shape, dtype = self.data.shape, self.data.dtype

        def backward(g):
            if basic:
                # Basic indexing never aliases, so a direct assignment
                # replaces the (slow) unbuffered np.add.at.
                grad = np.zeros(shape, dtype=dtype)
                grad[index] = g
                return (grad,)
            if row_gather and self._sparse_grad_ok(index.size, shape[0]):
                return (RowSparseGrad.from_gather(
                    index, g, shape, dtype, via_bincount=False),)
            grad = np.zeros(shape, dtype=dtype)
            np.add.at(grad, index, g)
            return (grad,)

        return self._make(data, (self,), backward)

    def take_rows(self, indices) -> "Tensor":
        """Gather rows by integer index; the embedding-lookup primitive."""
        indices = np.asarray(indices, dtype=np.int64)
        data = _active_backend().gather_rows(self.data, indices)
        shape, dtype = self.data.shape, self.data.dtype

        def backward(g):
            if len(shape) == 2 and indices.ndim == 1 and (
                    not indices.size or indices.min() >= 0):
                if self._sparse_grad_ok(indices.size, shape[0]):
                    # O(batch) row-sparse gradient; the row-stepping
                    # optimizer (or a sparse-aware route like axis-0
                    # concat) consumes it downstream.
                    return (RowSparseGrad.from_gather(
                        indices, g, shape, dtype, via_bincount=True),)
                # Scatter-add via bincount: substantially faster than
                # np.add.at, which dominates backward time otherwise.
                # Same reduction kernel the sparse path coalesces with,
                # which is what keeps the two representations bit-equal.
                # (Negative indices fall through to np.add.at, which
                # resolves them like the gather did.)
                rows, cols = shape
                grad = rowsparse._bincount_rows(indices, g, rows, cols)
                return (grad.astype(dtype, copy=False),)
            grad = np.zeros(shape, dtype=dtype)
            np.add.at(grad, indices, g)
            return (grad,)

        return self._make(data, (self,), backward)

    def _sparse_grad_ok(self, num_gathered: int, num_rows: int) -> bool:
        """Whether a gather backward from this tensor should emit a
        row-sparse gradient.

        Only worthwhile when (a) something downstream consumes it
        sparsely — an optimizer stepping this parameter by rows, or a
        sparse-aware route (axis-0 concat of embedding tables, as in
        collaborative-KG node matrices); gathers from ordinary
        intermediates (propagated embeddings, whose upstream closures
        need dense arrays anyway) keep the direct dense scatter — and
        (b) the gather actually touches a small fraction of the table:
        on toy-sized tables the coalescing bookkeeping costs more than
        the dense bincount it avoids, so small tables stay on the dense
        kernel. Either representation is bit-identical; this only picks
        the cheaper one.
        """
        return (num_gathered * 2 <= num_rows
                and rowsparse.enabled()
                and (self._lazy
                     or getattr(self._backward, "accepts_sparse", False)))

    # ------------------------------------------------------------------
    # norms
    # ------------------------------------------------------------------
    def norm(self, axis=None, keepdims: bool = False, eps: float = 1e-12) -> "Tensor":
        """L2 norm, smoothed at zero so gradients stay finite."""
        sq = (self * self).sum(axis=axis, keepdims=keepdims)
        return (sq + eps).sqrt()

    def normalize(self, axis: int = -1, eps: float = 1e-12) -> "Tensor":
        """Return rows scaled to unit L2 norm (differentiable)."""
        return self / self.norm(axis=axis, keepdims=True, eps=eps)
