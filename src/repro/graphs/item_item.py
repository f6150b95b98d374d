"""Modality-specific item-item relation graphs (paper section III-B.2).

Construction: cosine similarity on raw modality features (eq. 1), kNN
sparsification keeping the top-K similar items per row (eq. 2), symmetric
normalization ``D^-1/2 A D^-1/2`` (eq. 3). The graph is *frozen*.

Train/inference asymmetry (eq. 34-35): during training the graph covers
only warm items; at inference it is rebuilt over all items with a mask
that zeroes warm -> cold edges, so information flows *from* warm items
*to* cold items but never the other way.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd.sparse import symmetric_normalize
from ..data.kg_builder import similarity_panels


def knn_sparsify(features: np.ndarray, top_k: int,
                 restrict_to: np.ndarray | None = None) -> sp.csr_matrix:
    """Keep the top-K most cosine-similar neighbors per row as unweighted
    edges (eq. 1-2). ``restrict_to`` limits both the rows that get edges
    and the candidate neighbor set (used to build the warm-only training
    graph).

    Rows are scored a :func:`similarity_panels` panel at a time, so the
    n×n similarity matrix is never held. One 2-D ``np.argpartition``
    per panel applies to each row the same introselect as a per-row
    loop, so tied candidates at the cut resolve the same way.
    """
    n = len(features)
    if restrict_to is None:
        allowed = np.ones(n, dtype=bool)
    else:
        allowed = np.zeros(n, dtype=bool)
        allowed[np.asarray(restrict_to)] = True
    k = min(top_k, int(allowed.sum()) - 1)
    if k <= 0:
        return sp.csr_matrix((n, n))

    rows_parts, cols_parts = [], []
    for start, panel in similarity_panels(features):
        local = np.flatnonzero(allowed[start:start + len(panel)])
        sims = panel[local]
        sims[:, ~allowed] = -np.inf
        keep = np.argpartition(-sims, k - 1, axis=1)[:, :k]
        finite = np.isfinite(np.take_along_axis(sims, keep, axis=1))
        rows_parts.append(np.repeat(start + local, finite.sum(axis=1)))
        cols_parts.append(keep[finite])
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    return sp.csr_matrix((np.ones(len(rows), dtype=np.float64),
                          (rows, cols)), shape=(n, n))


def cold_mask_matrix(adjacency: sp.spmatrix, is_cold: np.ndarray) -> sp.csr_matrix:
    """Apply the inference mask M (eq. 34): zero entries where the *row*
    (receiving) item is warm and the *column* (sending) item is cold.

    Row a aggregates from column b in eq. 18, so blocking cold -> warm
    propagation means dropping (a warm, b cold) entries.
    """
    matrix = adjacency.tocoo()
    keep = ~((~is_cold[matrix.row]) & is_cold[matrix.col])
    return sp.csr_matrix(
        (matrix.data[keep], (matrix.row[keep], matrix.col[keep])),
        shape=matrix.shape)


class ItemItemGraph:
    """A frozen modality-specific item-item graph with train and inference
    views."""

    def __init__(self, modality: str, features: np.ndarray, top_k: int,
                 warm_items: np.ndarray, is_cold: np.ndarray):
        self.modality = modality
        self.top_k = top_k
        self.is_cold = np.asarray(is_cold, dtype=bool)
        # Training view: warm items only (cold items are invisible in
        # train).
        train_knn = knn_sparsify(features, top_k, restrict_to=warm_items)
        full_knn = knn_sparsify(features, top_k)
        self.train_adjacency = symmetric_normalize(train_knn)

        # Inference view: all items, with the cold->warm mask applied
        # *before* normalization so degrees reflect the masked structure.
        self.infer_adjacency = symmetric_normalize(
            cold_mask_matrix(full_knn, self.is_cold))

    def adjacency(self, mode: str = "train") -> sp.csr_matrix:
        """Return the propagation matrix for ``mode`` in {train, infer}."""
        if mode == "train":
            return self.train_adjacency
        if mode == "infer":
            return self.infer_adjacency
        raise ValueError(f"unknown mode {mode!r}")


def build_item_item_graphs(features: dict, top_k: int,
                           warm_items: np.ndarray,
                           is_cold: np.ndarray) -> dict:
    """One frozen graph per modality."""
    return {
        modality: ItemItemGraph(modality, feats, top_k, warm_items, is_cold)
        for modality, feats in features.items()
    }
