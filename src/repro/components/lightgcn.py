"""LightGCN propagation (paper eq. 5-6), used by most graph models here.

The joint user+item embedding runs the L hops of
:func:`repro.engine.propagate` over the frozen normalized adjacency.
"""

from __future__ import annotations

import scipy.sparse as sp

from ..autograd import Tensor, concat
from ..engine import propagate


def lightgcn_propagate(norm_adjacency: sp.spmatrix, user_emb: Tensor,
                       item_emb: Tensor, num_layers: int):
    """Run LightGCN message passing over the joint (user+item) graph.

    Layer-wise embeddings are mean-pooled (the paper's aggregation). The
    initial embeddings participate in the mean, so isolated nodes keep
    their layer-0 vectors scaled by ``1/(L+1)``.

    Returns ``(user_out, item_out)`` Tensors.
    """
    num_users = user_emb.shape[0]
    ego = concat([user_emb, item_emb], axis=0)
    pooled = propagate(norm_adjacency, ego, num_layers, pooling="mean")
    return pooled[:num_users], pooled[num_users:]
