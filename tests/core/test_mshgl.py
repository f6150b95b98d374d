"""Unit tests for MSHGL propagation and fusion."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.core.config import FirzenConfig
from repro.core.mshgl import MSHGL, ItemItemPropagation, UserUserPropagation
from repro.graphs.item_item import build_item_item_graphs
from repro.graphs.user_user import UserUserGraph
from repro.graphs.interaction import InteractionGraph


@pytest.fixture()
def graphs(tiny_dataset):
    item_graphs = build_item_item_graphs(
        tiny_dataset.features, 5, tiny_dataset.split.warm_items,
        tiny_dataset.split.is_cold)
    inter = InteractionGraph(tiny_dataset.num_users, tiny_dataset.num_items,
                             tiny_dataset.split.train)
    user_graph = UserUserGraph(inter.user_item_matrix, 5)
    return item_graphs, user_graph


class TestItemItemPropagation:
    def test_layer_mean_keeps_residual(self, tiny_dataset, graphs, rng):
        item_graphs, _ = graphs
        prop = ItemItemPropagation(item_graphs["text"], 1)
        x = Tensor(rng.normal(size=(tiny_dataset.num_items, 8)))
        out = prop(x, "infer")
        # isolated rows (if any) keep x/2; connected rows mix
        assert out.shape == x.shape
        assert not np.allclose(out.data, x.data)


class TestUserUserPropagation:
    def test_attention_is_convex_combination(self, tiny_dataset, graphs):
        _, user_graph = graphs
        prop = UserUserPropagation(user_graph, 1)
        x = Tensor(np.ones((tiny_dataset.num_users, 4)))
        out = prop(x)
        # rows with neighbors average ones -> stay one; empty rows -> zero
        row_nnz = np.diff(user_graph.attention.indptr)
        np.testing.assert_allclose(out.data[row_nnz > 0], 1.0, atol=1e-9)
        np.testing.assert_allclose(out.data[row_nnz == 0], 0.0, atol=1e-12)


class TestMSHGL:
    def test_forward_shapes(self, tiny_dataset, graphs, rng):
        item_graphs, user_graph = graphs
        config = FirzenConfig(embedding_dim=16)
        mshgl = MSHGL(config, item_graphs, user_graph, rng)
        users = Tensor(rng.normal(size=(tiny_dataset.num_users, 16)))
        items = Tensor(rng.normal(size=(tiny_dataset.num_items, 16)))
        final_u, final_i = mshgl(users, items, "infer")
        assert final_u.shape == users.shape
        assert final_i.shape == items.shape

    def test_modality_gating(self, tiny_dataset, graphs, rng):
        item_graphs, user_graph = graphs
        config = FirzenConfig(embedding_dim=16)
        mshgl = MSHGL(config, item_graphs, user_graph, rng)
        users = Tensor(rng.normal(size=(tiny_dataset.num_users, 16)))
        items = Tensor(rng.normal(size=(tiny_dataset.num_items, 16)))
        _, full = mshgl(users, items, "infer")
        _, text_only = mshgl(users, items, "infer",
                             active_modalities=("text",))
        assert not np.allclose(full.data, text_only.data)

    def test_empty_gating_passthrough(self, tiny_dataset, graphs, rng):
        item_graphs, user_graph = graphs
        config = FirzenConfig(embedding_dim=16)
        mshgl = MSHGL(config, item_graphs, user_graph, rng)
        users = Tensor(rng.normal(size=(tiny_dataset.num_users, 16)))
        items = Tensor(rng.normal(size=(tiny_dataset.num_items, 16)))
        _, gated = mshgl(users, items, "infer", active_modalities=())
        np.testing.assert_allclose(gated.data, items.data)
