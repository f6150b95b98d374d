"""Knowledge-aware graph attention (paper eq. 9-13, following KGAT).

For each head entity h, neighbors are the triplets (h, r, t) in the
collaborative KG. Attention logits are

    pi(h, r, t) = (W_r x_t)^T tanh(W_r x_h + e_r)

softmaxed over h's ego network (eq. 10), the neighborhood message is the
attention-weighted sum of tail embeddings (eq. 9), and the output combines
head and message through the bi-interaction aggregator (eq. 13).

The per-relation work runs through the fused kernel
(:func:`repro.autograd.fused.attention_message`): it projects each
distinct (relation, head) and (relation, tail) row once against the
stacked ``(num_relations, dim, relation_dim)`` projection tensor and
runs the per-triplet work through sparse operators frozen in a
:class:`~repro.autograd.fused.RelationPlan` at :meth:`rebind`. The
per-relation node graph it replaced stays in
``tests/autograd/test_fused.py`` as a reference, checked to a fixed
tolerance.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd import fused
from ..autograd import init as _init
from ..autograd.init import xavier_uniform
from ..autograd.nn import Module
from ..graphs.ckg import CollaborativeKG


def stacked_relation_projections(rng: np.random.Generator,
                                 num_relations: int, dim: int,
                                 relation_dim: int) -> Tensor:
    """One stacked ``(num_relations, dim, relation_dim)`` parameter,
    drawn relation-by-relation so the RNG stream and the initial values
    match the historical list of separate per-relation parameters."""
    if num_relations == 0:
        return Tensor(np.zeros((0, dim, relation_dim),
                               dtype=_init.PARAM_DTYPE),
                      requires_grad=True)
    blocks = [xavier_uniform(rng, dim, relation_dim).data
              for _ in range(num_relations)]
    return Tensor(np.stack(blocks), requires_grad=True)


class KnowledgeGraphAttention(Module):
    """One layer of KGAT-style attentive aggregation over a frozen CKG."""

    def __init__(self, ckg: CollaborativeKG, dim: int, relation_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.ckg = ckg
        self.dim = dim
        self.relation_dim = relation_dim
        self.relation_emb = xavier_uniform(rng, ckg.num_relations,
                                           relation_dim)
        # Stacked W_r — block r is the projection of relation r.
        self.relation_proj = stacked_relation_projections(
            rng, ckg.num_relations, dim, relation_dim)
        self.w_sum = xavier_uniform(rng, dim, dim)
        self.w_prod = xavier_uniform(rng, dim, dim)

        self.rebind(ckg)

    def rebind(self, ckg: CollaborativeKG) -> None:
        """Re-index the frozen triplet groupings against a (possibly
        extended) CKG with the same relation vocabulary. Used by the
        normal cold-start protocol when new Interact edges appear."""
        if ckg.num_relations != len(self.relation_proj):
            raise ValueError("relation vocabulary changed")
        self.ckg = ckg
        triplets = ckg.triplets
        by_relation = []
        for relation in range(ckg.num_relations):
            mask = triplets[:, 1] == relation
            by_relation.append((triplets[mask, 0].copy(),
                                triplets[mask, 2].copy()))
        # The layout is as frozen as the CKG itself: distinct-row maps,
        # the SDDMM branch of each relation, the softmax segments and
        # the sparse operators' structures are built once, not per call.
        self._plan = fused.RelationPlan(by_relation, ckg.num_nodes,
                                        self.relation_dim)

    def forward(self, node_emb: Tensor) -> Tensor:
        """Aggregate one attention hop; input/output are (num_nodes, dim)."""
        neighborhood = fused.attention_message(
            node_emb, self.relation_proj, self.relation_emb, self._plan)

        # Bi-interaction aggregator (eq. 13).
        summed = (node_emb + neighborhood).matmul(self.w_sum).leaky_relu()
        prod = (node_emb * neighborhood).matmul(self.w_prod).leaky_relu()
        return summed + prod
