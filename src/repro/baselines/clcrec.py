"""CLCRec (Wei et al., 2021): contrastive learning for cold-start.

Maximizes mutual information between content representations and
collaborative embeddings so that, at inference, a cold item's content
representation can stand in for the missing behavioral one. The heavy
contrastive pressure on the shared space is also why its *warm*
performance drops well below the LightGCN backbone — the compromise the
paper highlights when discussing CS baselines.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, bpr_loss, embedding_l2, infonce, rowwise_dot
from ..autograd.nn import Embedding, Linear
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..graphs.interaction import InteractionGraph
from ..utils.arrays import sorted_unique
from .base import Recommender


class CLCRecModel(Recommender):
    name = "CLCRec"
    uses_modalities = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, cl_weight: float = 2.0,
                 behavior_mix: float = 0.05,
                 temperature: float = 0.2, reg_weight: float = 1e-4):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.cl_weight = cl_weight
        # CLCRec commits to content-dominated representations for *all*
        # items (that is its compromise: one shared space serving cold
        # items at the price of warm accuracy, per the paper's CS
        # discussion); the behavioral part enters with a small mix weight.
        self.behavior_mix = behavior_mix
        self.temperature = temperature
        self.reg_weight = reg_weight
        self.graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        content = np.concatenate(
            [dataset.features[m] for m in dataset.modalities], axis=1)
        self._content = Tensor(content)
        self.content_encoder = Linear(content.shape[1], embedding_dim, rng)

    def _content_repr(self) -> Tensor:
        return self.content_encoder(self._content).tanh()

    def _propagate(self):
        return lightgcn_propagate(
            self.graph.norm_adjacency, self.user_emb.weight,
            self.item_emb.weight, self.num_layers)

    def loss(self, users, pos_items, neg_items):
        user_out, item_out = self._propagate()
        content = self._content_repr()
        u = user_out.take_rows(users)
        # Items are scored from content-dominated representations during
        # training so the shared space serves both pathways.
        pos = item_out.take_rows(pos_items) * self.behavior_mix \
            + content.take_rows(pos_items)
        neg = item_out.take_rows(neg_items) * self.behavior_mix \
            + content.take_rows(neg_items)
        main = bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg))

        unique_items = sorted_unique(np.concatenate([pos_items, neg_items]))
        contrast = infonce(
            content.take_rows(unique_items),
            item_out.take_rows(unique_items),
            temperature=self.temperature)
        # User-item mutual information (U-I contrastive task).
        contrast = contrast + infonce(
            u, content.take_rows(pos_items), temperature=self.temperature)

        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return main + self.cl_weight * contrast + self.reg_weight * reg

    def adapt_to_interactions(self, extra):
        self.graph = self.graph.with_extra_interactions(extra)
        self.invalidate()

    def compute_representations(self):
        user_out, item_out = self._propagate()
        content = self._content_repr()
        is_cold = self.dataset.split.is_cold
        items = self.behavior_mix * item_out.data + content.data
        # Cold items rely on content alone (their behavioral half carries
        # no signal beyond initialization).
        items[is_cold] = content.data[is_cold]
        return user_out.data.copy(), items.copy()
