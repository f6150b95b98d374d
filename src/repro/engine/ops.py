"""Operator canonicalization for the frozen-graph engine.

Every propagation operator the engine touches is pinned to a canonical
form — CSR, float dtype — exactly once, and each plan carries
dtype-matched variants of it (see ``PropagationPlan``), so hot paths
(training forwards/backwards, serving aggregation) multiply without any
format or dtype conversion: scipy otherwise re-converts the sparse
operand on every mismatched multiply. Stored nonzero *order* is left
untouched: re-sorting indices would change floating-point summation
order and silently perturb trained results by ulps.

Float64 is the training dtype (the published benchmark tables are
float64-reproducible); :data:`OPERATOR_DTYPE` (float32) is the compact
dtype used by every float32 consumer — the serving store and its
incremental-kNN onboarding operators, and float32 training runs.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

#: Compact operator dtype: what float32 consumers (serving, float32
#: training) receive. Training operators default to float64.
OPERATOR_DTYPE = np.float32

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def as_operator(matrix: sp.spmatrix,
                dtype: np.dtype | None = None) -> sp.csr_matrix:
    """Pin ``matrix`` to canonical operator form: CSR with a float dtype
    (float32/float64 preserved, everything else promoted to float64 —
    or cast to an explicit ``dtype``).

    Returns the input unchanged when it already is canonical, so
    repeated calls are free.
    """
    if not sp.issparse(matrix):
        raise TypeError(
            f"propagation operators must be scipy.sparse matrices, got "
            f"{type(matrix).__name__}")
    if matrix.format != "csr":
        matrix = matrix.tocsr()
    if dtype is None:
        dtype = matrix.dtype if matrix.dtype in _FLOAT_DTYPES else np.float64
    if matrix.dtype != dtype:
        matrix = matrix.astype(dtype)
    return matrix


def mean_aggregation_operator(neighbor_ids: np.ndarray,
                              num_sources: int) -> sp.csr_matrix:
    """Row-stochastic gather operator for incremental kNN extension.

    ``neighbor_ids`` is ``(num_new, k)``: row ``i`` of the result places
    weight ``1/k`` on each of item ``i``'s ``k`` source neighbors, so
    ``operator @ source_vectors`` is the one-hop neighbor mean the
    serving-side onboarding rule (paper eq. 34-35) prescribes.
    """
    neighbor_ids = np.asarray(neighbor_ids, dtype=np.int64)
    num_new, top_k = neighbor_ids.shape
    data = np.full(neighbor_ids.size, 1.0 / max(top_k, 1),
                   dtype=OPERATOR_DTYPE)
    indptr = np.arange(0, neighbor_ids.size + 1, top_k)
    return sp.csr_matrix((data, neighbor_ids.ravel(), indptr),
                         shape=(num_new, num_sources))


def apply_dense(operator: sp.spmatrix, matrix: np.ndarray) -> np.ndarray:
    """Numpy-only operator application for the serving path (no autograd).

    Operator and operand are pinned to :data:`OPERATOR_DTYPE` (the
    serving store's dtype) before the multiply, so the multiply itself
    runs without scipy's implicit per-call upcast. The multiply itself
    dispatches through the array backend's sparse kernel
    (:func:`repro.backend.active`).
    """
    from ..backend import active
    operator = as_operator(operator, dtype=OPERATOR_DTYPE)
    matrix = np.asarray(matrix, dtype=OPERATOR_DTYPE)
    return active().spmm(operator, matrix)
