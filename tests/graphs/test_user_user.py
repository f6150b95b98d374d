"""Tests for the user-user co-occurrence graph (eq. 4, 19)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.user_user import (UserUserGraph, cooccurrence_counts,
                                    topk_per_row)


@pytest.fixture()
def user_item():
    # users 0,1 share items {0,1}; user 2 shares one item with user 0
    dense = np.array([
        [1, 1, 1, 0],
        [1, 1, 0, 0],
        [0, 0, 1, 1],
    ], dtype=float)
    return sp.csr_matrix(dense)


class TestCooccurrence:
    def test_counts(self, user_item):
        co = cooccurrence_counts(user_item).toarray()
        assert co[0, 1] == 2
        assert co[0, 2] == 1
        assert co[1, 2] == 0

    def test_diagonal_zero(self, user_item):
        co = cooccurrence_counts(user_item).toarray()
        np.testing.assert_allclose(np.diag(co), 0.0)

    def test_symmetric(self, user_item):
        co = cooccurrence_counts(user_item).toarray()
        np.testing.assert_allclose(co, co.T)


class TestTopK:
    def test_keeps_largest(self, user_item):
        co = cooccurrence_counts(user_item)
        top1 = topk_per_row(co, 1).toarray()
        assert top1[0, 1] == 2
        assert top1[0, 2] == 0

    def test_preserves_weights(self, user_item):
        co = cooccurrence_counts(user_item)
        topped = topk_per_row(co, 5).toarray()
        np.testing.assert_allclose(topped, co.toarray())


class TestAttention:
    def test_rows_sum_to_one_when_nonempty(self, user_item):
        graph = UserUserGraph(user_item, top_k=2)
        att = graph.attention.toarray()
        for row in range(3):
            total = att[row].sum()
            if graph.topk_counts.getrow(row).nnz:
                np.testing.assert_allclose(total, 1.0)

    def test_higher_cooccurrence_gets_more_weight(self, user_item):
        graph = UserUserGraph(user_item, top_k=2)
        att = graph.attention.toarray()
        assert att[0, 1] > att[0, 2]

    def test_neighbors_of(self, user_item):
        graph = UserUserGraph(user_item, top_k=2)
        assert set(graph.topk_counts.getrow(0).indices.tolist()) == {1, 2}


class TestTopkVectorizationParity:
    """The length-bucketed batched argpartition must reproduce the
    historical per-row loop *exactly* — including which of several tied
    boundary values survive, since the selection freezes the graph the
    recorded results were trained on."""

    @staticmethod
    def _loop_reference(matrix, top_k):
        matrix = matrix.tocsr()
        rows, cols, vals = [], [], []
        for row in range(matrix.shape[0]):
            start, end = matrix.indptr[row], matrix.indptr[row + 1]
            if start == end:
                continue
            row_vals = matrix.data[start:end]
            row_cols = matrix.indices[start:end]
            if len(row_vals) > top_k:
                keep = np.argpartition(-row_vals, top_k - 1)[:top_k]
            else:
                keep = np.arange(len(row_vals))
            rows.extend([row] * len(keep))
            cols.extend(row_cols[keep].tolist())
            vals.extend(row_vals[keep].tolist())
        return sp.csr_matrix((vals, (rows, cols)), shape=matrix.shape)

    def _assert_bit_equal(self, got, want):
        got.sum_duplicates()
        want.sum_duplicates()
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data, want.data)

    def test_matches_loop_on_tie_heavy_counts(self):
        rng = np.random.default_rng(0)
        for trial in range(8):
            dense = rng.integers(0, 4, size=(37, 37)).astype(float)
            np.fill_diagonal(dense, 0.0)
            matrix = sp.csr_matrix(dense)
            for k in (1, 3, 10):
                self._assert_bit_equal(topk_per_row(matrix, k),
                                       self._loop_reference(matrix, k))

    def test_matches_loop_with_empty_and_short_rows(self):
        dense = np.zeros((6, 6))
        dense[0, 1] = 2.0
        dense[2, :4] = [1.0, 1.0, 1.0, 1.0]
        dense[5, 0] = 3.0
        matrix = sp.csr_matrix(dense)
        self._assert_bit_equal(topk_per_row(matrix, 2),
                               self._loop_reference(matrix, 2))

    def test_matches_loop_on_cooccurrence(self, user_item):
        co = cooccurrence_counts(user_item)
        for k in (1, 2, 5):
            self._assert_bit_equal(topk_per_row(co, k),
                                   self._loop_reference(co, k))

