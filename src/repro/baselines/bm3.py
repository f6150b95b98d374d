"""BM3 (Zhou et al., 2023): bootstrapped multi-modal recommendation.

Self-supervised bootstrap objective without negative sampling for the
auxiliary task: an online representation is dropout-perturbed and aligned
with its (detached) target both across the interaction graph and across
modalities. The main task stays BPR. ID embeddings dominate the final
representation, so BM3 is strong warm / weak cold, as in Table II.
"""

from __future__ import annotations

import numpy as np

from ..autograd import (Tensor, bpr_loss, cosine_similarity, dropout,
                        embedding_l2, rowwise_dot)
from ..autograd.nn import Embedding, Linear
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..graphs.interaction import InteractionGraph
from ..utils.arrays import sorted_unique
from .base import Recommender


class BM3Model(Recommender):
    name = "BM3"
    uses_modalities = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, reg_weight: float = 1e-4,
                 cl_weight: float = 0.3, dropout_rate: float = 0.3):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.reg_weight = reg_weight
        self.cl_weight = cl_weight
        self.dropout_rate = dropout_rate
        self.graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        self.projectors = {
            m: Linear(dataset.feature_dim(m), embedding_dim, rng)
            for m in dataset.modalities
        }
        self.predictor = Linear(embedding_dim, embedding_dim, rng)
        self._features = {m: Tensor(dataset.features[m])
                          for m in dataset.modalities}
        self._drop_rng = np.random.default_rng(
            int(self.rng.integers(0, 2 ** 31)))

    def _propagate(self):
        return lightgcn_propagate(
            self.graph.norm_adjacency, self.user_emb.weight,
            self.item_emb.weight, self.num_layers)

    def loss(self, users, pos_items, neg_items):
        user_out, item_out = self._propagate()
        u = user_out.take_rows(users)
        pos = item_out.take_rows(pos_items)
        neg = item_out.take_rows(neg_items)
        main = bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg))

        # Bootstrap alignment: online (dropout + predictor) vs detached
        # target, on the graph view and each modality view.
        items_online = self.predictor(
            dropout(item_out, self.dropout_rate, self._drop_rng,
                    training=self.training))
        target_items = item_out.detach()
        unique_items = sorted_unique(np.concatenate([pos_items, neg_items]))
        graph_align = (1.0 - cosine_similarity(
            items_online.take_rows(unique_items),
            target_items.take_rows(unique_items))).mean()

        modal_align = None
        for modality in self.dataset.modalities:
            modal = self.projectors[modality](self._features[modality])
            modal_online = self.predictor(
                dropout(modal, self.dropout_rate, self._drop_rng,
                        training=self.training))
            term = (1.0 - cosine_similarity(
                modal_online.take_rows(unique_items),
                target_items.take_rows(unique_items))).mean()
            inter = (1.0 - cosine_similarity(
                modal.take_rows(unique_items),
                target_items.take_rows(unique_items))).mean()
            term = term + inter
            modal_align = term if modal_align is None else modal_align + term

        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return main + self.cl_weight * (graph_align + modal_align) \
            + self.reg_weight * reg

    def adapt_to_interactions(self, extra):
        self.graph = self.graph.with_extra_interactions(extra)
        self.invalidate()

    def compute_representations(self):
        user_out, item_out = self._propagate()
        return user_out.data.copy(), item_out.data.copy()
