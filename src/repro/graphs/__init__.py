"""Frozen graph construction: interaction graph, CKG, item-item, user-user."""

from .ckg import CollaborativeKG, build_collaborative_kg, sample_kg_negatives
from .interaction import InteractionGraph
from .item_item import (
    ItemItemGraph,
    build_item_item_graphs,
    cold_mask_matrix,
    knn_sparsify,
)
from .user_user import UserUserGraph, cooccurrence_counts, topk_per_row

__all__ = [
    "CollaborativeKG",
    "build_collaborative_kg",
    "sample_kg_negatives",
    "InteractionGraph",
    "ItemItemGraph",
    "build_item_item_graphs",
    "cold_mask_matrix",
    "knn_sparsify",
    "UserUserGraph",
    "cooccurrence_counts",
    "topk_per_row",
]
