"""KGAT (Wang et al., 2019): knowledge graph attention network.

Users, items, and KG entities live in one collaborative knowledge graph;
stacked attentive aggregation layers (eq. 9-13 of the Firzen paper, which
adopts KGAT's formulation) propagate over it, and the per-layer outputs
are concatenated for scoring. TransR is trained alternately.

Strict cold-start items stay connected through their KG relations, which
is why KGAT is the strongest cold baseline in the paper's Table II while
losing some warm accuracy to interaction-unrelated knowledge.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, bpr_loss, concat, embedding_l2, rowwise_dot
from ..autograd.nn import Embedding
from ..autograd.optim import Adam
from ..components.kgat import KnowledgeGraphAttention
from ..components.transr import TransRScorer, transr_loss
from ..data.chunked import unique_pairs
from ..data.datasets import RecDataset
from ..graphs.ckg import build_collaborative_kg, sample_kg_negatives
from .base import Recommender


class KGATModel(Recommender):
    name = "KGAT"
    uses_kg = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, reg_weight: float = 1e-4,
                 kg_batches: int = 4, kg_batch_size: int = 512,
                 kg_lr: float = 0.01):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.reg_weight = reg_weight
        self.kg_batches = kg_batches
        self.kg_batch_size = kg_batch_size
        self.ckg = build_collaborative_kg(
            dataset.kg, dataset.split.train, self.num_users)
        self.node_emb = Embedding(self.ckg.num_nodes, embedding_dim, rng)
        self.attention_layers = [
            KnowledgeGraphAttention(self.ckg, embedding_dim, embedding_dim,
                                    rng)
            for _ in range(num_layers)
        ]
        self.transr = TransRScorer(self.ckg.num_relations, embedding_dim,
                                   embedding_dim, rng)
        self._kg_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
        self._kg_optimizer = Adam(
            self.transr.parameters() + self.node_emb.parameters(), lr=kg_lr)

    def _forward(self) -> Tensor:
        """Concatenated multi-layer node representations."""
        current = self.node_emb.weight
        outputs = [current]
        for layer in self.attention_layers:
            current = layer(current)
            current = current.normalize()
            outputs.append(current)
        return concat(outputs, axis=1)

    def loss(self, users, pos_items, neg_items):
        nodes = self._forward()
        u = nodes.take_rows(self.ckg.user_node(users))
        pos = nodes.take_rows(pos_items)
        neg = nodes.take_rows(neg_items)
        reg = embedding_l2([
            self.node_emb(self.ckg.user_node(users)),
            self.node_emb(pos_items), self.node_emb(neg_items)])
        return bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg)) \
            + self.reg_weight * reg

    def extra_step(self):
        for _ in range(self.kg_batches):
            heads, relations, pos_t, neg_t = sample_kg_negatives(
                self.dataset.kg, self.kg_batch_size, self._kg_rng)
            self._kg_optimizer.zero_grad()
            loss = transr_loss(self.transr, self.node_emb.weight,
                               heads, relations, pos_t, neg_t)
            loss.backward()
            self._kg_optimizer.step()

    def adapt_to_interactions(self, extra):
        combined = unique_pairs(np.concatenate(
            [self.dataset.split.train, extra]), self.num_items)
        self.ckg = build_collaborative_kg(
            self.dataset.kg, combined, self.num_users)
        for layer in self.attention_layers:
            layer.rebind(self.ckg)
        self.invalidate()

    def compute_representations(self):
        nodes = self._forward().data
        users = nodes[self.ckg.num_entities:
                      self.ckg.num_entities + self.num_users]
        items = nodes[:self.num_items]
        return users.copy(), items.copy()
