"""Frozen sparse-matrix propagation for graph neural networks.

All graphs in Firzen are *frozen* (the paper's central design point): the
adjacency structure never receives gradients. That lets us keep adjacency
matrices as ``scipy.sparse`` CSR and only differentiate through the dense
embedding operand of each propagation step.

Normalizers compute and emit float64 CSR — the dtype the published
benchmark tables were trained under (changing operator rounding re-rolls
every trained outcome). Each graph builder calls one of them once and
keeps the result; :func:`repro.engine.propagate` multiplies it as is.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..backend import active as _active_backend
from .tensor import Tensor


def sparse_matmul(matrix: sp.spmatrix, x: Tensor) -> Tensor:
    """Multiply a frozen sparse matrix by a dense tensor: ``matrix @ x``.

    Gradient flows only into ``x`` (``matrix.T @ upstream``); the matrix is
    a constant, matching the paper's frozen-graph training.

    ``matrix`` should already be CSR (every normalizer below emits CSR,
    and :func:`repro.engine.as_operator` pins a plan's operator to it):
    a CSR input is used as-is, with no per-call format conversion. Other sparse formats are converted here
    as a convenience — callers on hot paths should convert once instead.
    """
    if not sp.issparse(matrix):
        raise TypeError(
            f"sparse_matmul expects a scipy.sparse matrix, got "
            f"{type(matrix).__name__}")
    if matrix.format != "csr":
        matrix = matrix.tocsr()
    data = _active_backend().spmm(matrix, x.data)

    out = Tensor(data, requires_grad=x.requires_grad)
    if x.requires_grad:
        def backward(g):
            return (_active_backend().spmm_t(matrix, g),)

        out._parents = (x,)
        out._backward = backward
    return out


def symmetric_normalize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``D^-1/2 A D^-1/2`` (paper eq. 3); rows/cols with zero degree
    are left as zero rather than producing infinities."""
    adjacency = adjacency.tocsr()
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros_like(degree, dtype=np.float64)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    d_mat = sp.diags(inv_sqrt)
    return (d_mat @ adjacency @ d_mat).tocsr()


def row_normalize(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``D^-1 A`` (random-walk normalization)."""
    adjacency = adjacency.tocsr()
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    inv = np.zeros_like(degree, dtype=np.float64)
    nonzero = degree > 0
    inv[nonzero] = 1.0 / degree[nonzero]
    return (sp.diags(inv) @ adjacency).tocsr()


def row_softmax(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Apply a softmax over the nonzero entries of each row.

    Used for the user-user co-occurrence attention (paper eq. 19), where
    edge weights are co-interaction counts and attention is computed only
    over existing neighbors.

    Vectorized by bucketing rows of equal nonzero count and running the
    max/exp/normalize chain batched over each bucket's lanes — the
    per-lane reductions are the same kernels the historical per-row
    loop ran on each row slice, so the result is bit-identical to the
    loop (``tests/autograd/test_sparse.py`` pins it).
    """
    matrix = adjacency.tocsr().astype(np.float64).copy()
    lengths = np.diff(matrix.indptr)
    for length in np.unique(lengths):
        if length == 0:
            continue
        bucket = np.flatnonzero(lengths == length)
        lanes = matrix.indptr[bucket][:, None] + np.arange(length)
        vals = matrix.data[lanes]
        vals = np.exp(vals - vals.max(axis=1, keepdims=True))
        matrix.data[lanes] = vals / vals.sum(axis=1, keepdims=True)
    return matrix


def build_bipartite_adjacency(num_users: int, num_items: int,
                              user_index: np.ndarray,
                              item_index: np.ndarray) -> sp.csr_matrix:
    """Build the symmetric (users+items) x (users+items) interaction graph.

    Item nodes are offset by ``num_users`` — the layout LightGCN-style
    propagation expects.
    """
    n = num_users + num_items
    rows = np.concatenate([user_index, item_index + num_users])
    cols = np.concatenate([item_index + num_users, user_index])
    vals = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
