"""Tests for the frozen interaction graph."""

from __future__ import annotations

import numpy as np

from repro.graphs.interaction import InteractionGraph


def _graph():
    inter = np.array([[0, 0], [0, 1], [1, 1], [2, 2]])
    return InteractionGraph(3, 3, inter)


class TestStructure:
    def test_degrees(self):
        g = _graph()
        np.testing.assert_array_equal(g.user_degree(), [2, 1, 1])
        np.testing.assert_array_equal(g.item_degree(), [1, 2, 1])

    def test_adjacency_symmetric_bipartite(self):
        g = _graph()
        dense = g.adjacency.toarray()
        np.testing.assert_allclose(dense, dense.T)
        assert dense[:3, :3].sum() == 0

    def test_norm_adjacency_entries(self):
        """Each entry must be 1/sqrt(deg_i * deg_j)."""
        g = _graph()
        dense = g.norm_adjacency.toarray()
        degrees = np.asarray(g.adjacency.sum(axis=1)).ravel()
        coo = g.adjacency.tocoo()
        for i, j in zip(coo.row, coo.col):
            expected = 1.0 / np.sqrt(degrees[i] * degrees[j])
            np.testing.assert_allclose(dense[i, j], expected)

    def test_cold_item_isolated(self, tiny_dataset):
        g = InteractionGraph(tiny_dataset.num_users, tiny_dataset.num_items,
                             tiny_dataset.split.train)
        cold = tiny_dataset.split.cold_items
        degrees = g.item_degree()
        np.testing.assert_allclose(degrees[cold], 0.0)


class TestExtension:
    def test_with_extra_interactions(self):
        g = _graph()
        extended = g.with_extra_interactions(np.array([[2, 0]]))
        assert extended.user_item_matrix[2, 0] == 1
        assert g.user_item_matrix[2, 0] == 0  # original untouched

    def test_extra_interactions_dedupe(self):
        g = _graph()
        extended = g.with_extra_interactions(np.array([[0, 0]]))
        assert len(extended.interactions) == len(g.interactions)

