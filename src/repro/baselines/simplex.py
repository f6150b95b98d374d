"""SimpleX (Mao et al., 2021): CF with behavior aggregation and the
cosine contrastive loss (CCL).

User representation mixes the ID embedding with the average of interacted
item embeddings; the loss pushes the positive cosine above a margin while
averaging hinge penalties over multiple negatives.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, cosine_similarity, embedding_l2, row_normalize
from ..autograd.nn import Embedding
from ..data.datasets import RecDataset
from ..engine import propagate
from .base import Recommender


class SimpleXModel(Recommender):
    name = "SimpleX"

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 margin: float = 0.4, negative_weight: float = 0.5,
                 gamma: float = 0.5, num_negatives: int = 5,
                 reg_weight: float = 1e-4):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.margin = margin
        self.negative_weight = negative_weight
        self.gamma = gamma  # mixing: gamma * e_u + (1-gamma) * mean(items)
        self.num_negatives = num_negatives
        self.reg_weight = reg_weight
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)

        import scipy.sparse as sp
        train = dataset.split.train
        matrix = sp.csr_matrix(
            (np.ones(len(train)), (train[:, 0], train[:, 1])),
            shape=(self.num_users, self.num_items))
        self._history = row_normalize(matrix)
        self._neg_rng = np.random.default_rng(
            int(self.rng.integers(0, 2 ** 31)))
        self._warm_items = dataset.split.warm_items

    def _user_repr(self) -> Tensor:
        aggregated = propagate(self._history, self.item_emb.weight,
                               pooling="last")
        return self.user_emb.weight * self.gamma + aggregated * (1 - self.gamma)

    def loss(self, users, pos_items, neg_items):
        user_repr = self._user_repr().take_rows(users)
        pos = self.item_emb(pos_items)
        pos_cos = cosine_similarity(user_repr, pos)
        pos_loss = (Tensor(1.0) - pos_cos).relu().mean()

        neg_losses = None
        for _ in range(self.num_negatives):
            sampled = self._warm_items[self._neg_rng.integers(
                0, len(self._warm_items), size=len(users))]
            neg = self.item_emb(sampled)
            neg_cos = cosine_similarity(user_repr, neg)
            hinge = (neg_cos - self.margin).relu().mean()
            neg_losses = hinge if neg_losses is None else neg_losses + hinge
        neg_loss = neg_losses * (1.0 / self.num_negatives)

        reg = embedding_l2([self.user_emb(users), pos])
        return pos_loss + self.negative_weight * neg_loss \
            + self.reg_weight * reg

    def compute_representations(self):
        user_repr = self._user_repr()
        # Score by cosine: normalize both sides so the dot product used by
        # the protocol equals cosine similarity.
        users = user_repr.data
        items = self.item_emb.weight.data
        users = users / np.maximum(
            np.linalg.norm(users, axis=1, keepdims=True), 1e-12)
        items = items / np.maximum(
            np.linalg.norm(items, axis=1, keepdims=True), 1e-12)
        return users.copy(), items.copy()
