"""Modality-Specific Homogeneous Graph Learning (paper section III-D).

* Light GCN-style propagation of fused item embeddings over each frozen
  modality-specific item-item graph (eq. 18);
* softmax graph attention over the frozen user-user co-occurrence graph
  (eq. 19);
* dependency-aware fusion of the per-modality item representations with
  multi-head self-attention + mean pooling (eq. 20-21).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, mean_stack
from ..autograd.nn import Module, MultiHeadSelfAttention
from ..engine import propagate
from ..graphs.item_item import ItemItemGraph
from ..graphs.user_user import UserUserGraph
from .config import FirzenConfig


class ItemItemPropagation(Module):
    """Stacked frozen-graph convolutions on one modality's item graph.

    The per-layer outputs (including layer 0) are mean-pooled, which
    keeps a residual path to the fused SAHGL embedding — without it,
    warm items are fully replaced by their neighborhood average and warm
    accuracy drops. Strict cold items still receive warm signal because
    their layer-0 fused embedding carries KG information only.
    """

    def __init__(self, graph: ItemItemGraph, num_layers: int):
        super().__init__()
        self.graph = graph
        self.num_layers = num_layers

    def forward(self, item_emb: Tensor, mode: str) -> Tensor:
        return propagate(self.graph.adjacency(mode), item_emb,
                         self.num_layers, pooling="mean")


class UserUserPropagation(Module):
    """Stacked softmax-attention hops on the user-user graph (eq. 19)."""

    def __init__(self, graph: UserUserGraph, num_layers: int):
        super().__init__()
        self.graph = graph
        self.num_layers = num_layers

    def forward(self, user_emb: Tensor) -> Tensor:
        return propagate(self.graph.attention, user_emb, self.num_layers,
                         pooling="last")


class MSHGL(Module):
    """The full homogeneous-graph stage."""

    def __init__(self, config: FirzenConfig, item_graphs: dict,
                 user_graph: UserUserGraph, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.modalities = tuple(item_graphs.keys())
        self.item_propagation = {
            modality: ItemItemPropagation(graph, config.item_item_layers)
            for modality, graph in item_graphs.items()
        }
        self.user_propagation = UserUserPropagation(
            user_graph, config.user_user_layers)
        self.fusion_attention = MultiHeadSelfAttention(
            config.embedding_dim, config.attention_heads, rng)

    def forward(self, fused_users: Tensor, fused_items: Tensor, mode: str,
                active_modalities: tuple | None = None):
        """Returns final ``(user, item)`` representations.

        ``active_modalities`` restricts which item-item graphs propagate
        (Table VIII inference gating); None means all.
        """
        modalities = (self.modalities if active_modalities is None
                      else tuple(m for m in self.modalities
                                 if m in active_modalities))
        if not modalities:
            return self.user_propagation(fused_users), fused_items

        per_modality = [self.item_propagation[m](fused_items, mode)
                        for m in modalities]
        if len(per_modality) > 1:
            attended = self.fusion_attention(per_modality)
            final_items = mean_stack(attended)
        else:
            final_items = per_modality[0]

        final_users = self.user_propagation(fused_users)
        return final_users, final_items
