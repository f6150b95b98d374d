"""SGL (Wu et al., 2021): self-supervised graph learning on LightGCN.

Adds an InfoNCE contrastive term between node representations computed on
two edge-dropped augmentations of the interaction graph. Like the paper's
version we use the edge-dropout (ED) variant.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd import infonce
from ..autograd.sparse import build_bipartite_adjacency, symmetric_normalize
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..utils.arrays import sorted_unique
from .lightgcn import LightGCNModel


class SGLModel(LightGCNModel):
    name = "SGL"

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, reg_weight: float = 1e-4,
                 ssl_weight: float = 0.1, ssl_temperature: float = 0.2,
                 edge_dropout: float = 0.1):
        super().__init__(dataset, embedding_dim, rng,
                         num_layers=num_layers, reg_weight=reg_weight)
        self.ssl_weight = ssl_weight
        self.ssl_temperature = ssl_temperature
        self.edge_dropout = edge_dropout
        self._aug_rng = np.random.default_rng(
            int(self.rng.integers(0, 2 ** 31)))

    def _augmented_adjacency(self) -> sp.csr_matrix:
        inter = self.graph.interactions
        keep = self._aug_rng.random(len(inter)) >= self.edge_dropout
        kept = inter[keep]
        adjacency = build_bipartite_adjacency(
            self.num_users, self.num_items, kept[:, 0], kept[:, 1])
        return symmetric_normalize(adjacency)

    def loss(self, users, pos_items, neg_items):
        base = super().loss(users, pos_items, neg_items)
        if self.ssl_weight <= 0:
            return base
        view1_u, view1_i = lightgcn_propagate(
            self._augmented_adjacency(), self.user_emb.weight,
            self.item_emb.weight, self.num_layers)
        view2_u, view2_i = lightgcn_propagate(
            self._augmented_adjacency(), self.user_emb.weight,
            self.item_emb.weight, self.num_layers)
        unique_users = sorted_unique(users)
        unique_items = sorted_unique(np.concatenate([pos_items, neg_items]))
        ssl = infonce(view1_u.take_rows(unique_users),
                      view2_u.take_rows(unique_users),
                      temperature=self.ssl_temperature)
        ssl = ssl + infonce(view1_i.take_rows(unique_items),
                            view2_i.take_rows(unique_items),
                            temperature=self.ssl_temperature)
        return base + self.ssl_weight * ssl
