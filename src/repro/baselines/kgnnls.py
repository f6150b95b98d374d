"""KGNN-LS (Wang et al., 2019): KGCN plus label-smoothness regularization.

Label smoothness treats user engagement as labels over entities and
penalizes predictions that vary across KG edges. We realize it as a
Laplacian smoothing term on the item-side entity embeddings over the
item-item portion of the KG — neighboring items should receive similar
representations — which is the regularizer's effective behavior.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, symmetric_normalize
from ..data.datasets import RecDataset
from ..engine import propagate
from .kgcn import KGCNModel


class KGNNLSModel(KGCNModel):
    name = "KGNNLS"

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 reg_weight: float = 1e-4, ls_weight: float = 0.1):
        super().__init__(dataset, embedding_dim, rng, reg_weight=reg_weight)
        self.ls_weight = ls_weight
        triplets = dataset.kg.triplets
        item_item = triplets[
            (triplets[:, 0] < self.num_items)
            & (triplets[:, 2] < self.num_items)]
        # Label smoothness only constrains *labeled* items: labels come
        # from training interactions, and strict cold items have none, so
        # edges touching a cold item carry no smoothing signal.
        warm = ~dataset.split.is_cold
        item_item = item_item[
            warm[item_item[:, 0]] & warm[item_item[:, 2]]]
        adjacency = sp.csr_matrix(
            (np.ones(len(item_item)),
             (item_item[:, 0], item_item[:, 2])),
            shape=(self.num_items, self.num_items))
        adjacency = adjacency + adjacency.T
        adjacency.data[:] = 1.0
        self._smooth = symmetric_normalize(adjacency)

    def _label_smoothness(self) -> Tensor:
        items = self.entity_emb.weight[:self.num_items]
        smoothed = propagate(self._smooth, items, pooling="last")
        diff = items - smoothed
        return (diff * diff).mean()

    def loss(self, users, pos_items, neg_items):
        base = super().loss(users, pos_items, neg_items)
        return base + self.ls_weight * self._label_smoothness()
