"""User-item interaction graph (``G_inter``) in frozen sparse form."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd.sparse import build_bipartite_adjacency, symmetric_normalize
from ..data.chunked import unique_pairs


class InteractionGraph:
    """The bipartite interaction graph with LightGCN normalization.

    Node layout: users occupy ``[0, num_users)``, items occupy
    ``[num_users, num_users + num_items)``. Strict cold-start items simply
    have no edges — after behavior-aware convolution their embeddings stay
    zero, exactly the property the paper relies on (section III-C.1).
    """

    def __init__(self, num_users: int, num_items: int,
                 interactions: np.ndarray):
        self.num_users = num_users
        self.num_items = num_items
        self.interactions = np.asarray(interactions, dtype=np.int64)
        if self.interactions.size == 0:
            self.interactions = self.interactions.reshape(0, 2)
        users = self.interactions[:, 0]
        items = self.interactions[:, 1]
        self.adjacency = build_bipartite_adjacency(
            num_users, num_items, users, items)
        self.norm_adjacency = symmetric_normalize(self.adjacency)
        self.user_item_matrix = sp.csr_matrix(
            (np.ones(len(users)), (users, items)),
            shape=(num_users, num_items))

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def user_degree(self) -> np.ndarray:
        return np.asarray(self.user_item_matrix.sum(axis=1)).ravel()

    def item_degree(self) -> np.ndarray:
        return np.asarray(self.user_item_matrix.sum(axis=0)).ravel()

    def with_extra_interactions(self,
                                extra: np.ndarray) -> "InteractionGraph":
        """Graph extended with additional user-item edges.

        Used by the normal cold-start protocol (Table VI), where the *known*
        half of cold interactions becomes available at inference.
        """
        combined = unique_pairs(np.concatenate([self.interactions, extra]),
                                self.num_items)
        return InteractionGraph(self.num_users, self.num_items, combined)
