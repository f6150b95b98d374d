"""DRAGON (Zhou et al., 2023): dyadic relations + homogeneous graphs.

Learns on three graphs: the user-item bipartite graph, a modality-fused
item-item kNN graph, and a user-user co-occurrence graph. Item content
enters through frozen projected features attached to the item-item
propagation; user and item ID embeddings carry the dyadic signal.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, bpr_loss, concat, embedding_l2, rowwise_dot
from ..autograd.nn import Embedding, Linear
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..engine import propagate
from ..graphs.interaction import InteractionGraph
from ..graphs.item_item import build_item_item_graphs
from ..graphs.user_user import UserUserGraph
from .base import Recommender


class DragonModel(Recommender):
    name = "DRAGON"
    uses_modalities = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, item_topk: int = 10,
                 user_topk: int = 10, reg_weight: float = 1e-4):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.reg_weight = reg_weight
        self.graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        self.item_graphs = build_item_item_graphs(
            dataset.features, item_topk, dataset.split.warm_items,
            dataset.split.is_cold)
        self.user_graph = UserUserGraph(self.graph.user_item_matrix,
                                        user_topk)
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        self.projectors = {
            m: Linear(dataset.feature_dim(m), embedding_dim, rng)
            for m in dataset.modalities
        }
        self._features = {m: Tensor(dataset.features[m])
                          for m in dataset.modalities}

    def _forward(self, mode: str):
        user_out, item_out = lightgcn_propagate(
            self.graph.norm_adjacency, self.user_emb.weight,
            self.item_emb.weight, self.num_layers)

        # Homogeneous item graph: propagate content-projected + id signal.
        modal_parts = []
        for modality in self.dataset.modalities:
            projected = self.projectors[modality](self._features[modality])
            adjacency = self.item_graphs[modality].adjacency(mode)
            propagated = propagate(adjacency, projected + item_out,
                                   pooling="last")
            modal_parts.append(propagated)
        item_homogeneous = modal_parts[0]
        for part in modal_parts[1:]:
            item_homogeneous = item_homogeneous + part
        item_homogeneous = item_homogeneous * (1.0 / len(modal_parts))

        # Homogeneous user graph.
        user_homogeneous = propagate(self.user_graph.attention, user_out,
                                     pooling="last")

        user_final = concat([user_out, user_homogeneous], axis=1)
        item_final = concat([item_out, item_homogeneous], axis=1)
        return user_final, item_final

    def loss(self, users, pos_items, neg_items):
        user_final, item_final = self._forward("train")
        u = user_final.take_rows(users)
        pos = item_final.take_rows(pos_items)
        neg = item_final.take_rows(neg_items)
        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg)) \
            + self.reg_weight * reg

    def compute_representations(self):
        # DRAGON has no cold-start mechanism: its homogeneous item graph is
        # built over training items and stays frozen at inference, so strict
        # cold items keep their (untrained) ID half and an empty homogeneous
        # half — the behavior behind its weak cold rows in Table II.
        user_final, item_final = self._forward("train")
        return user_final.data.copy(), item_final.data.copy()
