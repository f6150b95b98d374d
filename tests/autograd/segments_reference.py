"""Segment softmax built from frozen sparse matmuls: the test reference
of the fused KG attention.

The knowledge-aware attention (paper eq. 9-11) needs a softmax over each
head entity's ego network — a segment softmax. Here segment sums are
multiplication by an indicator matrix, so the existing autograd
primitives provide the gradients. KGAT layers run the fused
:func:`repro.autograd.fused.attention_message` instead; this composable
form is what ``test_fused.py`` checks it against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, sparse_matmul
from repro.autograd import init as _init


def segment_indicator(segment_ids: np.ndarray,
                      num_segments: int) -> sp.csr_matrix:
    """Indicator matrix S of shape (num_segments, n): S[s, j] = 1 iff
    element j belongs to segment s. ``S @ v`` is then a segment sum.

    The indicator follows the parameter dtype (read at call time, so
    a flipped ``PARAM_DTYPE`` reaches it) and the segment matmuls never
    convert — its 0/1 entries are exact in either float width.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    n = len(segment_ids)
    data = np.ones(n, dtype=_init.PARAM_DTYPE)
    return sp.csr_matrix((data, (segment_ids, np.arange(n))),
                         shape=(num_segments, n))


def segment_softmax_weighted_sum(logits: Tensor, values: Tensor,
                                 segment_ids: np.ndarray,
                                 num_segments: int) -> Tensor:
    """Per-segment ``sum_j softmax(logits)_j * values_j``.

    ``logits`` has shape ``(n,)``, ``values`` shape ``(n, d)``; the result
    has shape ``(num_segments, d)``. Fully differentiable in both inputs.
    """
    indicator = segment_indicator(segment_ids, num_segments)
    indicator_t = indicator.T.tocsr()

    # Stabilize with the per-segment max (a constant w.r.t. gradients).
    seg_max = np.full(num_segments, -np.inf)
    np.maximum.at(seg_max, segment_ids, logits.data)
    seg_max[~np.isfinite(seg_max)] = 0.0
    shifted = logits - Tensor(seg_max[segment_ids].astype(
        logits.data.dtype, copy=False))

    exp = shifted.clip(-60.0, 60.0).exp()
    denom = sparse_matmul(indicator, exp.reshape(-1, 1))          # (S, 1)
    denom_per_elem = sparse_matmul(indicator_t, denom)            # (n, 1)
    alpha = exp.reshape(-1, 1) / (denom_per_elem + 1e-12)
    weighted = values * alpha
    return sparse_matmul(indicator, weighted)
