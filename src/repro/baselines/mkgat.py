"""MKGAT (Sun et al., 2020): multi-modal knowledge graph attention.

Represents multi-modal content as additional *nodes* in the collaborative
knowledge graph — each item links to a text node and an image node through
modality relations — and runs KGAT-style attentive propagation over the
extended graph. As the paper's analysis notes, the handful of modality
nodes is dwarfed by ordinary entities, diluting the content signal: MKGAT
trails Firzen in both scenarios.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, bpr_loss, concat, embedding_l2, rowwise_dot
from ..autograd.nn import Embedding, Linear
from ..autograd.optim import Adam
from ..components.kgat import KnowledgeGraphAttention
from ..components.transr import TransRScorer, transr_loss
from ..data.chunked import unique_pairs
from ..data.datasets import RecDataset
from ..data.kg_builder import KnowledgeGraph
from ..graphs.ckg import build_collaborative_kg, sample_kg_negatives
from .base import Recommender


def _extend_kg_with_modalities(kg: KnowledgeGraph,
                               num_modalities: int) -> KnowledgeGraph:
    """Add one modality node per (item, modality) and link item -> node
    with a dedicated relation per modality."""
    num_items = kg.num_items
    base_entities = kg.num_entities
    base_relations = kg.num_relations
    items = np.arange(num_items, dtype=np.int64)
    extra = [np.stack([items,
                       np.full(num_items, base_relations + m,
                               dtype=np.int64),
                       base_entities + m * num_items + items], axis=1)
             for m in range(num_modalities)]
    triplets = np.concatenate([kg.triplets] + extra)
    return KnowledgeGraph(
        triplets=triplets,
        num_entities=base_entities + num_modalities * num_items,
        num_relations=base_relations + num_modalities,
        num_items=num_items,
        entity_labels=kg.entity_labels,
        relation_names=tuple(list(kg.relation_names)
                             + [f"has_modality_{m}"
                                for m in range(num_modalities)]),
    )


class MKGATModel(Recommender):
    name = "MKGAT"
    uses_modalities = True
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

        self.modalities = dataset.modalities
        self.extended_kg = _extend_kg_with_modalities(
            dataset.kg, len(self.modalities))
        self.ckg = build_collaborative_kg(
            self.extended_kg, dataset.split.train, self.num_users)

        # Ordinary nodes are free embeddings; modality nodes are projected
        # from the frozen features (their "entity encoder").
        self.node_emb = Embedding(
            dataset.kg.num_entities + self.num_users, embedding_dim, rng)
        self.projectors = {
            m: Linear(dataset.feature_dim(m), embedding_dim, rng)
            for m in self.modalities
        }
        self._features = {m: Tensor(dataset.features[m])
                          for m in self.modalities}
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

        self._base_entities = dataset.kg.num_entities

    def _node_matrix(self) -> Tensor:
        """Assemble the full CKG node matrix in id order:
        [kg entities][modality nodes][users]."""
        base = self.node_emb.weight[:self._base_entities]
        modal_parts = [self.projectors[m](self._features[m])
                       for m in self.modalities]
        users = self.node_emb.weight[self._base_entities:]
        return concat([base] + modal_parts + [users], axis=0)

    def _forward(self) -> Tensor:
        current = self._node_matrix()
        outputs = [current]
        for layer in self.attention_layers:
            current = layer(current).normalize()
            outputs.append(current)
        return concat(outputs, axis=1)

    def loss(self, users, pos_items, neg_items):
        nodes = self._forward()
        u = nodes.take_rows(self.ckg.user_node(users))
        pos = nodes.take_rows(pos_items)
        neg = nodes.take_rows(neg_items)
        reg = embedding_l2([
            self.node_emb(np.asarray(users) + self._base_entities),
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
            self.extended_kg, combined, self.num_users)
        for layer in self.attention_layers:
            layer.rebind(self.ckg)
        self.invalidate()

    def compute_representations(self):
        nodes = self._forward().data
        users = nodes[self.ckg.num_entities:
                      self.ckg.num_entities + self.num_users]
        items = nodes[:self.num_items]
        return users.copy(), items.copy()
