"""Batched top-k ranking: the serving layer's vectorized hot path.

The seed evaluation protocol ranked one user at a time in Python —
copy the score row, mask seen items by iterating a set, partition, sort.
This module replaces that loop with three composable pieces:

* :func:`apply_seen_mask` — vectorized ``-inf`` masking of already-seen
  items from a CSR interaction matrix;
* :func:`topk_from_scores` — per-row top-k with semantics *identical* to
  :func:`repro.eval.protocol.rank_candidates` (argpartition, then a
  stable descending sort), vectorized over the user axis;
* :class:`BatchRanker` — blocked matrix scoring over snapshot user/item
  representation matrices, bounding peak memory at
  ``block_size x num_items`` floats regardless of how many users are in
  the query batch.

The evaluation protocol reuses the first two pieces on scores produced by
``model.score_users``; the serving path adds the blocked matmul on top of
an :class:`repro.serve.store.EmbeddingStore` snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..backend import active as _active_backend

#: Fixed column-tile width for blocked scoring.  The tile grid depends
#: only on the item count — never on thread count or scheduling — so
#: every ranker issues the exact same GEMM calls on the exact same
#: operands and scores stay bitwise reproducible.  BLAS results are
#: *not* invariant to operand shape: re-partitioning the catalog would
#: change low-order bits, which is why the grid is fixed rather than
#: tuned per call.
SCORE_TILE = 4096


def interactions_to_csr(interactions: np.ndarray, num_users: int,
                        num_items: int) -> sp.csr_matrix:
    """Boolean user-item CSR mask from ``(n, 2)`` interaction pairs."""
    interactions = np.asarray(interactions)
    if len(interactions) == 0:
        return sp.csr_matrix((num_users, num_items), dtype=bool)
    data = np.ones(len(interactions), dtype=bool)
    matrix = sp.csr_matrix(
        (data, (interactions[:, 0], interactions[:, 1])),
        shape=(num_users, num_items))
    matrix.sum_duplicates()
    return matrix


def _csr_row_coords(seen: sp.csr_matrix,
                    users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row, col) coordinates of the nonzeros of ``seen[users]``, without
    scipy's fancy-indexing overhead (a pure index-arithmetic gather)."""
    starts = seen.indptr[users]
    counts = seen.indptr[users + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    rows = np.repeat(np.arange(len(users)), counts)
    run_starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within_run = np.arange(total) - np.repeat(run_starts, counts)
    cols = seen.indices[np.repeat(starts, counts) + within_run]
    return rows, cols


def apply_seen_mask(scores: np.ndarray, users: np.ndarray,
                    seen: sp.spmatrix | None = None) -> np.ndarray:
    """Set already-seen items to ``-inf`` in-place; returns ``scores``.

    Parameters
    ----------
    scores:
        ``(len(users), num_items)`` score matrix, row ``r`` for user
        ``users[r]``.
    seen:
        Optional ``(num_users_total, num_items)`` sparse mask; nonzero
        entries are masked.
    """
    if seen is not None:
        rows, cols = _csr_row_coords(seen.tocsr(),
                                     np.asarray(users, dtype=np.int64))
        scores[rows, cols] = -np.inf
    return scores


@dataclass
class TopKResult:
    """Ranked items (best first) and their scores, one row per user."""

    items: np.ndarray   # (num_users, k) int64 item ids
    scores: np.ndarray  # (num_users, k) scores aligned with ``items``


def _neg_topk_rows(neg_scores: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise top-k of *negated* scores: the one kernel both ranking
    paths share, so their tie-breaking (argpartition, then a stable
    ascending sort of the negated values) can never diverge. Matches
    :func:`repro.eval.protocol.rank_candidates` per row exactly, since
    IEEE negation is exact. Returns ``(column indices, negated scores)``.
    """
    top = np.argpartition(neg_scores, k - 1, axis=1)[:, :k]
    neg_top = np.take_along_axis(neg_scores, top, axis=1)
    order = np.argsort(neg_top, axis=1, kind="stable")
    return (np.take_along_axis(top, order, axis=1),
            np.take_along_axis(neg_top, order, axis=1))


def topk_from_scores(scores: np.ndarray, k: int,
                     candidates: np.ndarray | None = None) -> TopKResult:
    """Vectorized per-row top-k over a candidate item subset.

    Row semantics match :func:`repro.eval.protocol.rank_candidates`
    exactly (same partition + stable-sort tie-breaking), so rankings are
    bit-identical to the seed per-user path. ``scores`` is never
    written: the candidate columns are gathered into one new block,
    which is negated in place (IEEE negation is exact).
    """
    if candidates is None:
        neg_scores = np.negative(scores)
        candidates = np.arange(scores.shape[1], dtype=np.int64)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
        neg_scores = np.take(scores, candidates, axis=1)
        np.negative(neg_scores, out=neg_scores)
    k = min(int(k), len(candidates))
    if k <= 0:
        empty = np.empty((scores.shape[0], 0))
        return TopKResult(empty.astype(np.int64), empty.astype(scores.dtype))
    top, neg_top = _neg_topk_rows(neg_scores, k)
    return TopKResult(candidates[top], -neg_top)


class BatchRanker:
    """Top-k recommendation for batches of users via blocked scoring.

    Scoring is the inner product of snapshot user/item representation
    matrices (what every model in the paper uses); users are processed in
    blocks of ``block_size`` so a million-user query never materializes a
    full ``users x items`` score matrix.
    """

    def __init__(self, user_vectors: np.ndarray, item_vectors: np.ndarray,
                 seen: sp.spmatrix | None = None, block_size: int = 256,
                 score_tile: int = SCORE_TILE):
        user_vectors = np.asarray(user_vectors)
        item_vectors = np.asarray(item_vectors)
        if user_vectors.ndim != 2 or item_vectors.ndim != 2:
            raise ValueError("user/item vectors must be 2-D matrices")
        if user_vectors.shape[1] != item_vectors.shape[1]:
            raise ValueError(
                f"dimension mismatch: users are {user_vectors.shape[1]}-d, "
                f"items are {item_vectors.shape[1]}-d")
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        if score_tile <= 0:
            raise ValueError("score_tile must be positive")
        self.user_vectors = user_vectors
        self.item_vectors = item_vectors
        self.seen = seen.tocsr() if seen is not None else None
        self.block_size = int(block_size)
        self.score_tile = int(score_tile)

    @classmethod
    def from_model(cls, model, **kwargs) -> "BatchRanker":
        """Wrap a trained :class:`repro.baselines.base.Recommender`."""
        return cls(model.user_matrix(), model.item_matrix(), **kwargs)

    @classmethod
    def from_store(cls, store, **kwargs) -> "BatchRanker":
        """Wrap an :class:`repro.serve.store.EmbeddingStore` snapshot."""
        return cls(store.user_vectors, store.item_vectors, seen=store.seen,
                   **kwargs)

    @property
    def num_users(self) -> int:
        return self.user_vectors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_vectors.shape[0]

    def topk(self, user_ids: np.ndarray, k: int = 20,
             candidates: np.ndarray | None = None,
             mask_seen: bool = True) -> TopKResult:
        """Top-k items for each user in ``user_ids`` (best first).

        ``candidates`` restricts ranking to an item subset (e.g. only
        strict cold-start items); ``mask_seen`` excludes each user's
        training interactions.

        Per-row results match :func:`repro.eval.protocol.rank_candidates`
        on the same score matrix: scores are negated in place right after
        each tile's matmul (IEEE negation is exact), and the
        partition/stable-sort kernel then sees bitwise-identical inputs
        to the seed's ``argpartition(-scores)`` path.
        """
        users = np.asarray(user_ids, dtype=np.int64)
        mask = mask_seen and self.seen is not None
        col_of = None
        if candidates is not None:
            candidates = np.asarray(candidates, dtype=np.int64)
            items = self.item_vectors[candidates]
            if mask:
                col_of = np.full(self.num_items, -1, dtype=np.int64)
                col_of[candidates] = np.arange(len(candidates))
            num_candidates = len(candidates)
        else:
            items = self.item_vectors
            num_candidates = self.num_items
        k = min(int(k), num_candidates)
        out_items = np.empty((len(users), max(k, 0)), dtype=np.int64)
        out_scores = np.empty(
            (len(users), max(k, 0)),
            dtype=np.result_type(self.user_vectors, self.item_vectors))
        if k <= 0:
            return TopKResult(out_items, out_scores)
        for start in range(0, len(users), self.block_size):
            block = users[start:start + self.block_size]
            neg_scores = self._score_neg_block(self.user_vectors[block],
                                               items)
            if mask:
                self._mask_block(neg_scores, block, col_of)
            top, neg_top = _neg_topk_rows(neg_scores, k)
            stop = start + len(block)
            out_items[start:stop] = (top if candidates is None
                                     else candidates[top])
            out_scores[start:stop] = -neg_top
        return TopKResult(out_items, out_scores)

    def _score_neg_block(self, user_block: np.ndarray,
                         items: np.ndarray) -> np.ndarray:
        """Negated scores of a user block against an item matrix.

        Scoring is decomposed into fixed ``score_tile``-wide column
        tiles (see :data:`SCORE_TILE`); each tile is one GEMM whose
        output is negated in place, so no negated copy of the item
        matrix is ever materialized and peak extra memory is one
        ``block x tile`` buffer beyond the output.
        """
        backend = _active_backend()
        n = items.shape[0]
        if n <= self.score_tile:
            neg = backend.matmul(user_block, items.T)
            np.negative(neg, out=neg)
            return neg
        out = np.empty((user_block.shape[0], n),
                       dtype=np.result_type(user_block, items))
        for lo in range(0, n, self.score_tile):
            hi = min(lo + self.score_tile, n)
            tile = backend.matmul(user_block, items[lo:hi].T)
            np.negative(tile, out=tile)
            out[:, lo:hi] = tile
        return out

    def _mask_block(self, neg_scores: np.ndarray, block: np.ndarray,
                    col_of: np.ndarray | None) -> None:
        """Mask seen items to ``+inf`` in a block of negated scores,
        mapping item ids to candidate columns when ranking a subset."""
        rows, cols = _csr_row_coords(self.seen, block)
        if col_of is not None:
            cols = col_of[cols]
            keep = cols >= 0
            rows, cols = rows[keep], cols[keep]
        neg_scores[rows, cols] = np.inf
