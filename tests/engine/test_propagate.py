"""Propagation plans: parity, gradients, operator form."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import pytest

from repro.autograd import Tensor, mean_stack
from repro.engine import (OPERATOR_DTYPE, PropagationPlan, apply_dense,
                          as_operator, get_engine, mean_aggregation_operator,
                          propagate)
from repro.graphs.interaction import InteractionGraph
from repro.graphs.item_item import build_item_item_graphs
from repro.graphs.user_user import UserUserGraph


def graph_operators(dataset) -> dict:
    """One frozen operator per graph type of the paper."""
    interaction = InteractionGraph(dataset.num_users, dataset.num_items,
                                   dataset.split.train)
    item_graphs = build_item_item_graphs(
        {m: dataset.features[m] for m in dataset.modalities}, 5,
        dataset.split.warm_items, dataset.split.is_cold)
    user_graph = UserUserGraph(interaction.user_item_matrix, 5)
    return {
        "interaction": interaction.norm_adjacency,
        "item_item": item_graphs[dataset.modalities[0]].train_adjacency,
        "user_user": user_graph.attention,
    }


def dense_walk(operator, num_layers: int, pooling: str) -> np.ndarray:
    """The L-hop map as one dense NumPy matrix: ``A^L`` for ``last``,
    ``(1/(L+1)) sum_l A^l`` for ``mean`` (layer 0 included)."""
    hop = operator.toarray().astype(np.float64)
    power = np.eye(hop.shape[0])
    total = power.copy()
    for _ in range(num_layers):
        power = hop @ power
        total += power
    return power if pooling == "last" else total / (num_layers + 1)


class TestFoldedParity:
    """A plan equals the folded dense operator of its L-hop walk — on
    every one of the paper's three graph types."""

    @pytest.mark.parametrize("graph_kind",
                             ["interaction", "item_item", "user_user"])
    @pytest.mark.parametrize("pooling", ["mean", "last"])
    def test_forward_parity(self, tiny_dataset, rng, graph_kind, pooling):
        operator = graph_operators(tiny_dataset)[graph_kind]
        x = rng.normal(size=(operator.shape[0], 8))
        out = PropagationPlan(operator, 3, pooling).apply(Tensor(x))
        np.testing.assert_allclose(out.data,
                                   dense_walk(operator, 3, pooling) @ x,
                                   rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("graph_kind",
                             ["interaction", "item_item", "user_user"])
    def test_gradient_parity(self, tiny_dataset, rng, graph_kind):
        """The backward pass applies the transposed walk."""
        operator = graph_operators(tiny_dataset)[graph_kind]
        upstream = rng.normal(size=(operator.shape[0], 8))
        for pooling in ("mean", "last"):
            x = Tensor(rng.normal(size=(operator.shape[0], 8)),
                       requires_grad=True)
            out = PropagationPlan(operator, 3, pooling).apply(x)
            (out * Tensor(upstream)).sum().backward()
            np.testing.assert_allclose(
                x.grad, dense_walk(operator, 3, pooling).T @ upstream,
                rtol=1e-9, atol=1e-12)

    def test_apply_layers_matches_manual_stack(self, tiny_dataset, rng):
        operator = graph_operators(tiny_dataset)["interaction"]
        x = Tensor(rng.normal(size=(operator.shape[0], 4))
                   .astype(np.float32))
        plan = PropagationPlan(operator, 3, "mean")
        layers = plan.apply_layers(x)
        assert len(layers) == 4
        np.testing.assert_allclose(mean_stack(layers).data,
                                   plan.apply(x).data,
                                   rtol=1e-5, atol=1e-7)


class TestDtypeStability:
    def test_float64_operand_keeps_float64_and_exact_operator(self, rng):
        operator = as_operator(sp.random(20, 20, density=0.2, format="csr",
                                         random_state=2))
        x = Tensor(rng.normal(size=(20, 4)))
        plan = PropagationPlan(operator, 2, "mean")
        assert plan.apply(x).data.dtype == np.float64
        # The plan multiplies the original operator, not a converted
        # copy: training math is bit-identical to the pre-engine
        # implementation.
        assert plan.operator is operator

    def test_plan_operator_is_pinned_csr(self, rng):
        matrix = sp.random(20, 20, density=0.2, format="coo",
                           random_state=3)
        plan = PropagationPlan(matrix, 1, "last")
        assert plan.operator.format == "csr"

    def test_as_operator_preserves_nonzero_order(self, rng):
        """Re-sorting CSR indices would change summation order and
        perturb results by ulps; already-CSR inputs pass through."""
        matrix = sp.random(20, 20, density=0.2, format="csr",
                           random_state=3)
        assert as_operator(matrix) is matrix

    def test_as_operator_compact_dtype_for_serving(self, rng):
        matrix = sp.random(20, 20, density=0.2, format="csr",
                           random_state=3)
        compact = as_operator(matrix, dtype=OPERATOR_DTYPE)
        assert compact.dtype == np.float32
        assert as_operator(compact, dtype=OPERATOR_DTYPE) is compact


class TestPropagate:
    def test_propagate_applies_an_uncached_plan(self, rng):
        operator = as_operator(sp.random(25, 25, density=0.1, format="csr",
                                         random_state=4))
        x = Tensor(rng.normal(size=(25, 4)))
        expected = PropagationPlan(operator, 2, "mean").apply(x).data
        for _ in range(2):
            np.testing.assert_array_equal(
                propagate(operator, x, 2, pooling="mean").data, expected)
        # The repository benchmark's traced run reads these two keys.
        assert get_engine().stats.as_dict() == {"plan_hits": 0,
                                                "plans_folded": 0}


class TestServingOperators:
    def test_mean_aggregation_operator_is_neighbor_mean(self, rng):
        neighbors = np.array([[0, 2, 4], [1, 1, 3]])
        vectors = rng.normal(size=(5, 6)).astype(np.float32)
        operator = mean_aggregation_operator(neighbors, 5)
        out = apply_dense(operator, vectors)
        np.testing.assert_allclose(out, vectors[neighbors].mean(axis=1),
                                   rtol=1e-6, atol=1e-7)
        assert out.dtype == OPERATOR_DTYPE
