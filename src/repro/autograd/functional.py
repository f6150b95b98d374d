"""Free-function tensor operations that combine multiple tensors.

These complement the methods on :class:`~repro.autograd.tensor.Tensor` with
operations that are more natural as functions (concatenation, stacking,
pairwise similarities, losses used across several models).
"""

from __future__ import annotations

import numpy as np

from .rowsparse import RowSparseGrad
from .tensor import Tensor


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    shapes = [t.data.shape for t in tensors]

    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        def backward(g):
            if isinstance(g, RowSparseGrad):
                # Row-range split of a coalesced sparse gradient: each
                # part keeps its (already unique, sorted) rows shifted
                # into part coordinates. Only reachable when axis == 0.
                grads = []
                for i in range(len(tensors)):
                    lo, hi = np.searchsorted(g.rows,
                                             [offsets[i], offsets[i + 1]])
                    grads.append(RowSparseGrad(
                        g.rows[lo:hi] - offsets[i], g.values[lo:hi],
                        tuple(shapes[i])))
                return tuple(grads)
            slicer = [slice(None)] * g.ndim
            grads = []
            for i in range(len(tensors)):
                slicer[axis] = slice(offsets[i], offsets[i + 1])
                grads.append(g[tuple(slicer)])
            return tuple(grads)

        # Sparse upstream gradients only make sense for row (axis-0)
        # concatenation of 2-D blocks; the backward sweep densifies
        # otherwise.
        backward.accepts_sparse = (axis == 0 and all(
            len(s) == 2 for s in shapes))
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis``."""
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    requires = any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires)
    if requires:
        def backward(g):
            pieces = np.split(g, len(tensors), axis=axis)
            return tuple(np.squeeze(p, axis=axis) for p in pieces)

        out._parents = tuple(tensors)
        out._backward = backward
    return out


def mean_stack(tensors: list[Tensor]) -> Tensor:
    """Mean of a list of same-shaped tensors (layer aggregation in GNNs)."""
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total * (1.0 / len(tensors))


def rowwise_dot(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner products: ``(a * b).sum(axis=-1)``."""
    return (a * b).sum(axis=-1)


def cosine_similarity(a: Tensor, b: Tensor, eps: float = 1e-12) -> Tensor:
    """Row-wise cosine similarity between two batches of vectors."""
    return rowwise_dot(a.normalize(eps=eps), b.normalize(eps=eps))


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate) at train time."""
    if not training or rate <= 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep).astype(x.data.dtype) / keep
    return x * Tensor(mask)


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian Personalized Ranking loss (paper eq. 33)."""
    return -((pos_scores - neg_scores).logsigmoid()).mean()


def embedding_l2(batch_embeddings: list[Tensor]) -> Tensor:
    """Batch-mean L2 penalty over gathered embedding rows.

    Standard practice in BPR-style training: penalize only the rows touched
    by the current batch, normalized by batch size.
    """
    total = None
    for emb in batch_embeddings:
        term = (emb * emb).sum()
        total = term if total is None else total + term
    count = max(len(batch_embeddings[0]), 1)
    return total * (0.5 / count)


def infonce(anchor: Tensor, positive: Tensor, temperature: float = 0.2) -> Tensor:
    """InfoNCE with in-batch negatives over unit-normalized embeddings.

    ``anchor[i]`` is pulled toward ``positive[i]`` and pushed from every
    ``positive[j != i]``.
    """
    a = anchor.normalize()
    p = positive.normalize()
    logits = a.matmul(p.transpose()) * (1.0 / temperature)
    # log-softmax diagonal
    logsumexp = _logsumexp(logits, axis=1)
    diag = rowwise_dot(a, p) * (1.0 / temperature)
    return (logsumexp - diag).mean()


def _logsumexp(x: Tensor, axis: int = -1) -> Tensor:
    shifted_max = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shifted_max
    summed = shifted.exp().sum(axis=axis)
    return summed.log() + Tensor(np.squeeze(shifted_max.data, axis=axis))

