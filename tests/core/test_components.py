"""Tests for shared model components: segments, KGAT attention, TransR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.components.segments import (segment_indicator,
                                       segment_softmax_weighted_sum)
from repro.components.kgat import KnowledgeGraphAttention
from repro.components.transr import TransRScorer, transr_loss
from repro.graphs.ckg import build_collaborative_kg


class TestSegments:
    def test_indicator_sums(self):
        ids = np.array([0, 0, 1, 2])
        indicator = segment_indicator(ids, 3)
        values = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = indicator @ values
        np.testing.assert_allclose(out.ravel(), [3.0, 3.0, 4.0])

    def test_segment_softmax_uniform_logits(self, rng):
        """Equal logits -> plain mean within each segment."""
        ids = np.array([0, 0, 1])
        logits = Tensor(np.zeros(3))
        values = Tensor(np.array([[2.0, 0.0], [4.0, 2.0], [5.0, 5.0]]))
        out = segment_softmax_weighted_sum(logits, values, ids, 2)
        np.testing.assert_allclose(out.data, [[3.0, 1.0], [5.0, 5.0]])

    def test_segment_softmax_respects_logits(self):
        ids = np.array([0, 0])
        logits = Tensor(np.array([10.0, -10.0]))
        values = Tensor(np.array([[1.0], [100.0]]))
        out = segment_softmax_weighted_sum(logits, values, ids, 1)
        assert out.data[0, 0] < 2.0  # dominated by the first value

    def test_segment_softmax_gradcheck(self, rng):
        ids = np.array([0, 0, 1, 1, 1])
        logits_np = rng.normal(size=5)
        values_np = rng.normal(size=(5, 2))

        def f(logits, values):
            return segment_softmax_weighted_sum(logits, values, ids, 2)

        logits = Tensor(logits_np, requires_grad=True)
        values = Tensor(values_np, requires_grad=True)
        f(logits, values).sum().backward()

        eps = 1e-6
        for i in range(5):
            logits_np[i] += eps
            plus = f(Tensor(logits_np), Tensor(values_np)).data.sum()
            logits_np[i] -= 2 * eps
            minus = f(Tensor(logits_np), Tensor(values_np)).data.sum()
            logits_np[i] += eps
            np.testing.assert_allclose(
                logits.grad[i], (plus - minus) / (2 * eps), atol=1e-4)


class TestKGATAttention:
    def test_forward_shape_and_gradients(self, tiny_dataset, rng):
        ckg = build_collaborative_kg(
            tiny_dataset.kg, tiny_dataset.split.train, tiny_dataset.num_users)
        layer = KnowledgeGraphAttention(ckg, 8, 8, rng)
        nodes = Tensor(rng.normal(size=(ckg.num_nodes, 8)),
                       requires_grad=True)
        out = layer(nodes)
        assert out.shape == (ckg.num_nodes, 8)
        out.sum().backward()
        assert nodes.grad is not None
        assert layer.relation_emb.grad is not None

    def test_isolated_node_keeps_self_transform(self, tiny_dataset, rng):
        """Nodes with no outgoing triplets get zero neighborhood; output is
        the bi-interaction of (x, 0) which is finite."""
        ckg = build_collaborative_kg(
            tiny_dataset.kg, tiny_dataset.split.train, tiny_dataset.num_users)
        layer = KnowledgeGraphAttention(ckg, 8, 8, rng)
        nodes = Tensor(rng.normal(size=(ckg.num_nodes, 8)))
        out = layer(nodes)
        assert np.isfinite(out.data).all()


class TestTransR:
    def test_valid_triplets_score_higher_after_training(self, tiny_dataset,
                                                        rng):
        from repro.autograd.optim import Adam
        from repro.graphs.ckg import sample_kg_negatives
        kg = tiny_dataset.kg
        scorer = TransRScorer(kg.num_relations, 8, 8, rng)
        entities = Tensor(rng.normal(size=(kg.num_entities, 8)) * 0.1,
                          requires_grad=True)
        opt = Adam(scorer.parameters() + [entities], lr=0.05)
        sample_rng = np.random.default_rng(1)
        for _ in range(30):
            h, r, tp, tn = sample_kg_negatives(kg, 128, sample_rng)
            opt.zero_grad()
            loss = transr_loss(scorer, entities, h, r, tp, tn)
            loss.backward()
            opt.step()
        h, r, tp, tn = sample_kg_negatives(kg, 256,
                                           np.random.default_rng(2))
        pos = scorer.score(entities, h, r, tp).data
        neg = scorer.score(entities, h, r, tn).data
        assert (pos > neg).mean() > 0.8

    def test_score_order_matches_input(self, tiny_dataset, rng):
        kg = tiny_dataset.kg
        scorer = TransRScorer(kg.num_relations, 8, 8, rng)
        entities = Tensor(rng.normal(size=(kg.num_entities, 8)))
        idx = rng.integers(0, kg.num_triplets, size=16)
        h, r, t = (kg.triplets[idx, 0], kg.triplets[idx, 1],
                   kg.triplets[idx, 2])
        batched = scorer.score(entities, h, r, t).data
        singles = np.array([
            scorer.score(entities, h[i:i + 1], r[i:i + 1],
                         t[i:i + 1]).data[0]
            for i in range(16)])
        np.testing.assert_allclose(batched, singles, atol=1e-10)
