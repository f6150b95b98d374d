"""Reverse-mode autodiff engine (the reproduction's PyTorch substitute)."""

from .functional import (
    bpr_loss,
    concat,
    cosine_similarity,
    dropout,
    embedding_l2,
    infonce,
    mean_stack,
    rowwise_dot,
    stack,
)
from .rowsparse import RowSparseGrad
from .sparse import (
    build_bipartite_adjacency,
    row_normalize,
    row_softmax,
    sparse_matmul,
    symmetric_normalize,
)
from .tensor import Tensor

__all__ = [
    "Tensor",
    "RowSparseGrad",
    "bpr_loss",
    "concat",
    "cosine_similarity",
    "dropout",
    "embedding_l2",
    "infonce",
    "mean_stack",
    "rowwise_dot",
    "stack",
    "sparse_matmul",
    "symmetric_normalize",
    "row_normalize",
    "row_softmax",
    "build_bipartite_adjacency",
]
