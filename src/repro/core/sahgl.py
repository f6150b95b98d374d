"""Side information-Aware Heterogeneous Graph Learning (paper section III-C).

Three encoders over the frozen heterogeneous structure plus the
importance-aware fusion:

* behavior-aware graph convolution — LightGCN over ``G_inter`` (eq. 5-6);
* modality-aware graph convolution — projected raw features aggregated
  over interactions (eq. 7-8);
* knowledge-aware graph attention — KGAT-style attentive hops over the
  collaborative KG (eq. 9-13);
* importance-aware fusion (eq. 14-15) with discriminator-driven momentum
  weights beta_t, beta_i (eq. 16-17).
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, dropout as ag_dropout
from ..autograd.nn import Embedding, Linear, Module
from ..components.kgat import KnowledgeGraphAttention
from ..engine import get_engine
from ..components.lightgcn import lightgcn_propagate
from ..data.datasets import RecDataset
from ..graphs.ckg import CollaborativeKG
from ..graphs.interaction import InteractionGraph
from .config import FirzenConfig


class BehaviorEncoder(Module):
    """Behavior-aware graph convolution (eq. 5-6).

    Strict cold-start items have no edges; mean-pooling over layers leaves
    them with ``e0 / (L+1)`` — i.e. essentially no behavioral signal, as the
    paper notes ("the embeddings of strict cold-start items are zero
    vectors, same as skipping the collaborative filtering module").
    """

    def __init__(self, graph: InteractionGraph, user_emb: Embedding,
                 item_emb: Embedding, num_layers: int):
        super().__init__()
        self.graph = graph
        self.user_emb = user_emb
        self.item_emb = item_emb
        self.num_layers = num_layers

    def forward(self):
        return lightgcn_propagate(
            self.graph.norm_adjacency, self.user_emb.weight,
            self.item_emb.weight, self.num_layers)


class ModalityEncoder(Module):
    """Modality-aware graph convolution for one modality (eq. 7-8).

    ``x_u = sum_i Linear(f_i) / sqrt|N_u|``, ``x_i = sum_u x_u / sqrt|N_i|``.
    We fold the two 1/sqrt degree factors into row-normalized propagation
    matrices (the frozen-graph equivalent).
    """

    def __init__(self, dataset: RecDataset, graph: InteractionGraph,
                 modality: str, dim: int, dropout_rate: float,
                 rng: np.random.Generator):
        super().__init__()
        self.modality = modality
        self.dropout_rate = dropout_rate
        self.features = Tensor(dataset.features[modality])
        self.projector = Linear(dataset.feature_dim(modality), dim, rng)
        self._drop_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))
        self.rebind(graph)

    def rebind(self, graph: InteractionGraph) -> None:
        """Rebuild the frozen aggregation matrices against a (possibly
        extended) interaction graph."""
        engine = get_engine()
        user_item = graph.user_item_matrix
        self._to_users = engine.normalized(user_item, "row")
        # The transpose is a fresh one-shot matrix: nothing to cache on.
        self._to_items = engine.normalized(user_item.T.tocsr(), "row",
                                           cache=False)

    def forward(self):
        """Returns ``(x_u, x_i, projected_items)`` for this modality."""
        engine = get_engine()
        projected = self.projector(self.features)
        projected = ag_dropout(projected, self.dropout_rate, self._drop_rng,
                               training=self.training)
        x_user = engine.propagate(self._to_users, projected, pooling="last")
        x_item = engine.propagate(self._to_items, x_user, pooling="last")
        return x_user, x_item, projected


class KnowledgeEncoder(Module):
    """Knowledge-aware graph attention over the CKG (eq. 9-13).

    Node embeddings for users/items are the shared ID embeddings (eq. 12);
    ordinary KG entities get their own table. Returns knowledge-aware user
    and item representations.
    """

    def __init__(self, ckg: CollaborativeKG, user_emb: Embedding,
                 item_emb: Embedding, dim: int, num_layers: int,
                 rng: np.random.Generator):
        super().__init__()
        self.ckg = ckg
        self.user_emb = user_emb
        self.item_emb = item_emb
        num_plain_entities = ckg.num_entities - ckg.num_items
        self.entity_emb = Embedding(num_plain_entities, dim, rng)
        self.layers = [KnowledgeGraphAttention(ckg, dim, dim, rng)
                       for _ in range(num_layers)]

    def node_matrix(self) -> Tensor:
        from ..autograd import concat
        return concat([
            self.item_emb.weight,       # entities [0, num_items)
            self.entity_emb.weight,     # remaining KG entities
            self.user_emb.weight,       # user nodes
        ], axis=0)

    def forward(self):
        nodes = self.node_matrix()
        for layer in self.layers:
            nodes = layer(nodes).normalize()
        x_items = nodes[:self.ckg.num_items]
        x_users = nodes[self.ckg.num_entities:]
        return x_users, x_items


class ImportanceFusion(Module):
    """Importance-aware fusion (eq. 14-17).

    beta_t/beta_i are *buffers*, not parameters: they are updated by the
    momentum rule from discriminator scores, never by gradients.
    """

    def __init__(self, config: FirzenConfig, modalities: tuple):
        super().__init__()
        self.config = config
        self.modalities = tuple(modalities)
        self.beta = {m: 1.0 / len(self.modalities) for m in self.modalities}

    def update_beta(self, discriminator_scores: dict) -> None:
        """Momentum update from discriminator outputs (eq. 16-17)."""
        eta = self.config.beta_momentum
        scores = np.array([discriminator_scores[m] for m in self.modalities])
        scores = np.exp(scores - scores.max())
        scores /= scores.sum()
        for m, s in zip(self.modalities, scores):
            self.beta[m] = eta * self.beta[m] + (1.0 - eta) * float(s)

    def forward(self, behavior, knowledge, modality_parts):
        """Fuse per eq. 14-15. Any component may be None (ablations)."""
        config = self.config
        fused_u, fused_i = None, None

        def _add(total, part):
            return part if total is None else total + part

        if behavior is not None:
            fused_u = _add(fused_u, behavior[0])
            fused_i = _add(fused_i, behavior[1])
        if knowledge is not None:
            fused_u = _add(fused_u, knowledge[0] * config.lambda_k)
            fused_i = _add(fused_i, knowledge[1] * config.lambda_k)
        for modality, (x_u, x_i) in modality_parts.items():
            weight = config.lambda_m * self.beta[modality]
            fused_u = _add(fused_u, x_u * weight)
            fused_i = _add(fused_i, x_i * weight)
        return fused_u, fused_i
