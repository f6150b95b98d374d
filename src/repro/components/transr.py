"""TransR knowledge-graph embedding objective (paper eq. 30-31).

Score of a triplet: ``-|| W_r e_h + e_r - W_r e_t ||^2``; training uses the
pairwise logistic loss over (valid, corrupted) tail pairs.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor
from ..autograd import fused
from ..autograd.init import xavier_uniform
from ..autograd.nn import Module


class TransRScorer(Module):
    """Relation-specific projection + translation scorer over entity
    embeddings supplied by the caller.

    Scoring runs through the fused kernel
    (:func:`repro.autograd.fused.transr_scores`): a stable relation
    sort, then ``(e_h - e_t) W_r + e_r`` with one GEMM per relation and
    one pre-summed gradient per parameter. The per-relation node graph
    it replaced stays in ``tests/autograd/test_fused.py`` as a
    reference, checked to a fixed tolerance.
    """

    def __init__(self, num_relations: int, entity_dim: int,
                 relation_dim: int, rng: np.random.Generator):
        super().__init__()
        self.relation_emb = xavier_uniform(rng, num_relations, relation_dim)
        # One projection per relation. Kept as separate parameters (not
        # a stacked tensor): relations absent from a sampled KG batch
        # get no gradient, and Adam's skip of grad-less parameters is
        # part of the recorded training schedule.
        self.relation_proj = [xavier_uniform(rng, entity_dim, relation_dim)
                              for _ in range(num_relations)]
        self.num_relations = num_relations

    def score(self, entity_emb: Tensor, heads: np.ndarray,
              relations: np.ndarray, tails: np.ndarray) -> Tensor:
        """Batched triplet scores, grouped internally by relation."""
        return fused.transr_scores(
            entity_emb, self.relation_proj, self.relation_emb,
            heads, relations, tails)


def transr_loss(scorer: TransRScorer, entity_emb: Tensor,
                heads: np.ndarray, relations: np.ndarray,
                pos_tails: np.ndarray, neg_tails: np.ndarray) -> Tensor:
    """Pairwise ranking loss over valid vs corrupted triplets (eq. 30)."""
    pos = scorer.score(entity_emb, heads, relations, pos_tails)
    neg = scorer.score(entity_emb, heads, relations, neg_tails)
    return -((pos - neg).logsigmoid()).mean()
