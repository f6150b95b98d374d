"""MMSSL (Wei et al., 2023): multi-modal self-supervised learning.

Combines (i) modality-aware user/item representations aggregated over the
interaction graph, (ii) an adversarial objective aligning the modality-
generated virtual interaction graph with the observed one, and (iii) a
cross-modal contrastive loss. The final representation is dominated by the
propagated ID embeddings, so MMSSL leads the warm scenario but fails on
strict cold items (it "relies on a complete user-item interaction graph",
as the paper notes).
"""

from __future__ import annotations

import numpy as np

from ..autograd import (Tensor, bpr_loss, embedding_l2, infonce, row_normalize,
                        rowwise_dot)
from ..autograd.nn import (BatchNorm1d, Dropout, Embedding, LeakyReLU,
                           Linear, Sequential, Sigmoid)
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..engine import propagate
from ..graphs.interaction import InteractionGraph
from ..utils.arrays import sorted_unique
from .base import Recommender


class MMSSLModel(Recommender):
    name = "MMSSL"
    uses_modalities = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, reg_weight: float = 1e-4,
                 adv_weight: float = 0.1, cl_weight: float = 0.05,
                 modal_weight: float = 0.2):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.reg_weight = reg_weight
        self.adv_weight = adv_weight
        self.cl_weight = cl_weight
        self.modal_weight = modal_weight
        self.graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        self._rebind_aggregators()
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        self.projectors = {
            m: Linear(dataset.feature_dim(m), embedding_dim, rng)
            for m in dataset.modalities
        }
        self.discriminator = Sequential(
            Linear(self.num_items, 64, rng),
            LeakyReLU(0.2),
            BatchNorm1d(64),
            Dropout(0.2, np.random.default_rng(
                int(rng.integers(0, 2 ** 31)))),
            Linear(64, 1, rng),
            Sigmoid(),
        )
        self._features = {m: Tensor(dataset.features[m])
                          for m in dataset.modalities}

    def _rebind_aggregators(self) -> None:
        user_item = self.graph.user_item_matrix
        self._user_norm = row_normalize(user_item)
        self._item_norm = row_normalize(user_item.T.tocsr())

    def _modal_user_item(self, modality: str):
        """Aggregate projected features over interactions (eqs. 7-8 style)."""
        projected = self.projectors[modality](self._features[modality])
        x_user = propagate(self._user_norm, projected, pooling="last")
        x_item = propagate(self._item_norm, x_user, pooling="last")
        return x_user, x_item

    def _forward(self):
        user_out, item_out = lightgcn_propagate(
            self.graph.norm_adjacency, self.user_emb.weight,
            self.item_emb.weight, self.num_layers)
        modal_users, modal_items = [], []
        for modality in self.dataset.modalities:
            x_user, x_item = self._modal_user_item(modality)
            modal_users.append(x_user)
            modal_items.append(x_item)
        for x_user, x_item in zip(modal_users, modal_items):
            user_out = user_out + self.modal_weight * x_user
            item_out = item_out + self.modal_weight * x_item
        return user_out, item_out, modal_users

    def loss(self, users, pos_items, neg_items):
        user_out, item_out, modal_users = self._forward()
        u = user_out.take_rows(users)
        pos = item_out.take_rows(pos_items)
        neg = item_out.take_rows(neg_items)
        main = bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg))

        # Adversarial: discriminator scores rows of the virtual graph
        # (generated from modality features) vs the observed graph.
        unique_users = sorted_unique(users)
        adv = None
        observed = Tensor(np.asarray(
            self.graph.user_item_matrix[unique_users].todense()))
        for modality in self.dataset.modalities:
            x_user, x_item = self._modal_user_item(modality)
            virtual = x_user.take_rows(unique_users).normalize().matmul(
                x_item.normalize().transpose())
            score_virtual = self.discriminator(virtual).mean()
            score_observed = self.discriminator(observed).mean()
            term = score_virtual - score_observed
            # Generator side: make virtual rows look real.
            adv = term if adv is None else adv + term

        # Contrastive: modality user embeddings vs final user embeddings.
        cl = None
        for x_user in modal_users:
            term = infonce(u, x_user.take_rows(users))
            cl = term if cl is None else cl + term

        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return main + self.adv_weight * adv + self.cl_weight * cl \
            + self.reg_weight * reg

    def adapt_to_interactions(self, extra):
        self.graph = self.graph.with_extra_interactions(extra)
        self._rebind_aggregators()
        self.invalidate()

    def compute_representations(self):
        user_out, item_out, _ = self._forward()
        return user_out.data.copy(), item_out.data.copy()
