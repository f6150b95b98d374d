"""FREEDOM (Zhou, 2022): freezing and denoising graph structures.

The second ancestor of Firzen's MSHGL (the paper adopts its finding that
item-item graphs can be *frozen*): raw-feature kNN graphs built once,
never updated; the interaction graph is denoised by degree-sensitive
edge pruning during training. Included as an extra baseline to make the
frozen-vs-dynamic comparison three-way (FREEDOM frozen / LATTICE dynamic
/ Firzen frozen + KG + masking).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, bpr_loss, embedding_l2, rowwise_dot
from ..autograd.sparse import build_bipartite_adjacency
from ..autograd.nn import Embedding, Linear
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..engine import get_engine
from ..graphs.interaction import InteractionGraph
from ..graphs.item_item import build_item_item_graphs
from .base import Recommender


class FreedomModel(Recommender):
    name = "FREEDOM"
    uses_modalities = True

    def __init__(self, dataset: RecDataset, embedding_dim: int = 32,
                 rng: np.random.Generator | None = None,
                 num_layers: int = 2, item_topk: int = 10,
                 edge_drop: float = 0.2, mix_weight: float = 0.5,
                 reg_weight: float = 1e-4):
        rng = rng or np.random.default_rng(0)
        super().__init__(dataset, embedding_dim, rng)
        self.num_layers = num_layers
        self.mix_weight = mix_weight
        self.edge_drop = edge_drop
        self.reg_weight = reg_weight
        self.graph = InteractionGraph(
            self.num_users, self.num_items, dataset.split.train)
        self.user_emb = Embedding(self.num_users, embedding_dim, rng)
        self.item_emb = Embedding(self.num_items, embedding_dim, rng)
        self.projectors = {
            m: Linear(dataset.feature_dim(m), embedding_dim, rng)
            for m in dataset.modalities
        }
        self._features = {m: Tensor(dataset.features[m])
                          for m in dataset.modalities}
        # Frozen graphs from raw features — built once (the FREEDOM point).
        self.item_graphs = build_item_item_graphs(
            dataset.features, item_topk, dataset.split.warm_items,
            dataset.split.is_cold)
        self._drop_rng = np.random.default_rng(
            int(self.rng.integers(0, 2 ** 31)))

    def _denoised_adjacency(self) -> sp.csr_matrix:
        """Degree-sensitive edge sampling of the interaction graph: edges
        to high-degree endpoints are dropped more often, pruning popular-
        item noise (FREEDOM's denoising)."""
        inter = self.graph.interactions
        item_degree = self.graph.item_degree()
        weights = 1.0 / np.sqrt(item_degree[inter[:, 1]] + 1.0)
        keep_prob = (1.0 - self.edge_drop) * weights / weights.mean()
        keep = self._drop_rng.random(len(inter)) < np.clip(keep_prob, 0, 1)
        kept = inter[keep]
        denoised = build_bipartite_adjacency(
            self.num_users, self.num_items, kept[:, 0], kept[:, 1])
        # Throwaway graph (re-sampled on every loss() call, i.e. per
        # batch): normalize without caching.
        return get_engine().normalized(denoised, "sym", cache=False)

    def _forward(self, mode: str, denoise: bool):
        adjacency = (self._denoised_adjacency() if denoise
                     else self.graph.norm_adjacency)
        user_out, item_out = lightgcn_propagate(
            adjacency, self.user_emb.weight, self.item_emb.weight,
            self.num_layers)
        homogeneous = None
        for modality in self.dataset.modalities:
            graph_adj = self.item_graphs[modality].adjacency(mode)
            projected = self.projectors[modality](self._features[modality])
            part = get_engine().propagate(graph_adj, item_out + projected,
                                          pooling="last")
            homogeneous = part if homogeneous is None else \
                homogeneous + part
        homogeneous = homogeneous * (1.0 / len(self.dataset.modalities))
        return user_out, item_out + self.mix_weight * homogeneous

    def loss(self, users, pos_items, neg_items):
        user_out, items = self._forward("train", denoise=True)
        u = user_out.take_rows(users)
        pos = items.take_rows(pos_items)
        neg = items.take_rows(neg_items)
        reg = embedding_l2([self.user_emb(users), self.item_emb(pos_items),
                            self.item_emb(neg_items)])
        return bpr_loss(rowwise_dot(u, pos), rowwise_dot(u, neg)) \
            + self.reg_weight * reg

    def compute_representations(self):
        user_out, items = self._forward("infer", denoise=False)
        return user_out.data.copy(), items.data.copy()
