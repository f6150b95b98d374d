"""User-user co-occurrence graph (paper section III-B.3).

Edge weight between users a and b is the number of commonly interacted
items; each user keeps only their top-K co-occurring neighbors (eq. 4).
Message passing applies a softmax over each user's retained neighbors
(eq. 19), which we bake into a frozen row-stochastic matrix.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..engine import normalized_adjacency


def cooccurrence_counts(user_item: sp.spmatrix) -> sp.csr_matrix:
    """Number of commonly interacted items per user pair (diagonal zeroed)."""
    binary = user_item.tocsr().astype(np.float64)
    binary.data[:] = 1.0
    co = (binary @ binary.T).tocsr()
    co.setdiag(0.0)
    co.eliminate_zeros()
    return co


def topk_per_row(matrix: sp.csr_matrix, top_k: int) -> sp.csr_matrix:
    """Keep only the ``top_k`` largest entries in each row (eq. 4),
    preserving their weights (co-interaction counts).

    Vectorized by bucketing rows of equal length and running one
    batched ``np.argpartition`` per bucket. A 2-D partition applies the
    same introselect to each lane that the historical per-row loop
    applied to that row's values, so the selected entries — including
    which of several tied boundary values survive, which is what keeps
    the frozen graphs (and everything trained on them) bit-identical —
    match the loop exactly (``tests/graphs/test_user_user.py`` pins the
    equivalence).
    """
    matrix = matrix.tocsr()
    lengths = np.diff(matrix.indptr)
    rows_parts, cols_parts, vals_parts = [], [], []
    # Rows that keep everything: one flat gather.
    small = np.flatnonzero((lengths > 0) & (lengths <= top_k))
    if small.size:
        flat = _span_indices(matrix.indptr[small], lengths[small])
        rows_parts.append(np.repeat(small, lengths[small]))
        cols_parts.append(matrix.indices[flat])
        vals_parts.append(matrix.data[flat])
    # Rows that need selection, one batched argpartition per length.
    big = np.flatnonzero(lengths > top_k)
    for length in np.unique(lengths[big]):
        bucket = big[lengths[big] == length]
        lanes = matrix.indptr[bucket][:, None] + np.arange(length)
        vals = matrix.data[lanes]
        keep = np.argpartition(-vals, top_k - 1, axis=1)[:, :top_k]
        picked = np.take_along_axis(lanes, keep, axis=1).ravel()
        rows_parts.append(np.repeat(bucket, top_k))
        cols_parts.append(matrix.indices[picked])
        vals_parts.append(matrix.data[picked])
    if not rows_parts:
        return sp.csr_matrix(matrix.shape)
    return sp.csr_matrix(
        (np.concatenate(vals_parts),
         (np.concatenate(rows_parts), np.concatenate(cols_parts))),
        shape=matrix.shape)


def _span_indices(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` spans."""
    total = int(lengths.sum())
    out = np.ones(total, dtype=np.int64)
    ends = np.cumsum(lengths)
    out[0] = starts[0]
    out[ends[:-1]] = starts[1:] - (starts[:-1] + lengths[:-1] - 1)
    return np.cumsum(out)


class UserUserGraph:
    """Frozen user-user co-occurrence graph with softmax attention weights."""

    def __init__(self, user_item: sp.spmatrix, top_k: int):
        self.top_k = top_k
        counts = cooccurrence_counts(user_item)
        self.topk_counts = topk_per_row(counts, top_k)
        # eq. 19: attention = softmax over each row's co-occurrence counts.
        self.attention = normalized_adjacency(self.topk_counts, "softmax")

    @property
    def num_users(self) -> int:
        return self.attention.shape[0]
