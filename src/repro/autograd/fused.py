"""Fused multi-node kernels with bit-exact backward replay.

The knowledge-graph attention layer (paper eq. 9-13) and the TransR
scorer (eq. 30) historically built one autograd node per relation —
2 gathers, 2 matmuls, and several elementwise nodes each — then
concatenated the per-relation pieces every forward. The kernels here
collapse each of those subgraphs into a *single* autograd node driven
by a relation-sorted permutation of the triplet array and a stacked
``(num_relations, dim, relation_dim)`` projection tensor: one gather
pair, block-sliced matmuls over contiguous relation segments, no
per-forward ``concat``, and persistent scratch buffers instead of a
fresh temporary per op.

Bit-reproducibility contract
----------------------------
Outputs and gradients are bit-identical to the per-relation graphs they
replace:

* every forward/backward value is produced by the *same numpy
  expression on the same operands* the per-relation nodes ran —
  block-sliced BLAS calls on contiguous row ranges equal the separate
  per-relation calls, and elementwise/rowwise kernels are
  batching-invariant;
* the replaced nodes each delivered a *separate* gradient contribution
  to shared parents (the node matrix, the stacked projections), and the
  engine left-folds contributions in arrival order. The fused backward
  therefore returns :class:`~repro.autograd.rowsparse.GradParts` —
  per-relation partials in the replaced graph's empirically-pinned
  arrival order — instead of pre-summing them, because float addition
  commutes but does not associate;
* per-relation scatter gradients keep the historical representation
  rule: row-sparse blocks when the gather is small and something
  downstream consumes them sparsely, the full-table bincount otherwise
  (the same ``take_rows`` emission logic, see ``_gather_grad``).

Bit-parity is pinned by ``tests/autograd/test_fused.py``, which keeps
the per-relation graphs as its reference.

Segment maxima are computed with a precomputed sort + ``reduceat``
instead of ``np.maximum.at`` — ``max`` is exact, so any evaluation
order yields identical bits.

Scratch lifetime contract: a fused node's backward never clobbers its
stored forward intermediates, so running the same node's backward again
is exact *as long as no new forward of the same layer ran in between*
(a new forward may reclaim the pooled scratch).
"""

from __future__ import annotations

import numpy as np

from ..backend import active as _active_backend
from . import rowsparse
from .rowsparse import GradParts, RowSparseGrad
from .tensor import Tensor


def _gather_grad(source: Tensor, indices: np.ndarray, flat, g_block,
                 shape: tuple, dtype):
    """One gather node's gradient, in the representation the historical
    ``take_rows`` backward would have emitted for the same gather
    (``Tensor._sparse_grad_ok`` is the single source of truth for the
    emission rule, so the fused and per-relation graphs can never
    drift)."""
    if source._sparse_grad_ok(indices.size, shape[0]):
        return RowSparseGrad.from_gather(indices, g_block, shape, dtype,
                                         via_bincount=True)
    cols = shape[1]
    if flat is None:
        flat = (indices[:, None] * cols
                + np.arange(cols)[None, :]).ravel()
    dense = np.bincount(flat, weights=np.ascontiguousarray(g_block).ravel(),
                        minlength=shape[0] * cols).reshape(shape[0], cols)
    return dense.astype(dtype, copy=False)


class _Scratch:
    """One in-flight fused call's reusable buffer set.

    A plan keeps at most one set; a second overlapping call (forward
    held alive across another forward of the same layer) allocates its
    own so stored intermediates are never clobbered before backward.
    """

    def __init__(self, n: int, d: int, k: int, dtype):
        self.shape = (n, d, k, dtype)
        self.nd = [np.empty((n, d), dtype=dtype) for _ in range(3)]
        self.nk = [np.empty((n, k), dtype=dtype) for _ in range(6)]
        self.n1 = [np.empty(n, dtype=dtype) for _ in range(5)]


class RelationPlan:
    """Frozen relation-sorted layout of a CKG's triplets.

    Precomputed once per (graph, layer): the concatenated head/tail
    index arrays in ascending-relation order, the per-relation slice
    bounds, flattened scatter indices for the backward bincounts, and
    the segment-max sort. ``segments`` equals the concatenated heads —
    the segmentation a per-relation graph feeds the segment softmax.
    """

    def __init__(self, by_relation: list, num_nodes: int, dim: int):
        self.num_nodes = num_nodes
        self.dim = dim
        self.rels = []          # (relation, start, end) for nonempty ones
        heads_parts, tails_parts = [], []
        offset = 0
        for relation, (heads, tails) in enumerate(by_relation):
            if len(heads) == 0:
                continue
            self.rels.append((relation, offset, offset + len(heads)))
            heads_parts.append(heads)
            tails_parts.append(tails)
            offset += len(heads)
        self.num_triplets = offset
        self.heads = (np.concatenate(heads_parts) if heads_parts
                      else np.empty(0, dtype=np.int64))
        self.tails = (np.concatenate(tails_parts) if tails_parts
                      else np.empty(0, dtype=np.int64))
        self._flat_heads: np.ndarray | None = None
        self._flat_tails: np.ndarray | None = None
        # segment-max sort: max is exact, so reduceat over a sorted
        # permutation equals np.maximum.at in any order.
        self.segments = self.heads
        order = np.argsort(self.segments, kind="stable")
        self.seg_order = order
        sorted_segs = self.segments[order]
        self.seg_uniq = np.unique(sorted_segs)
        self.seg_starts = np.searchsorted(sorted_segs, self.seg_uniq,
                                          side="left")
        self._scratch: _Scratch | None = None
        self._scratch_free = True

    @property
    def flat_heads(self) -> np.ndarray:
        """Flattened ``(row, col)`` scatter indices for the backward
        bincounts — ``num_triplets * dim`` int64 per direction, so they
        materialize on first backward use (inference-only models never
        pay the residency) and stay resident after (rebuilding per call
        would cost the very multiply they exist to avoid)."""
        if self._flat_heads is None:
            cols = np.arange(self.dim, dtype=np.int64)[None, :]
            self._flat_heads = (self.heads[:, None] * self.dim
                                + cols).ravel()
        return self._flat_heads

    @property
    def flat_tails(self) -> np.ndarray:
        if self._flat_tails is None:
            cols = np.arange(self.dim, dtype=np.int64)[None, :]
            self._flat_tails = (self.tails[:, None] * self.dim
                                + cols).ravel()
        return self._flat_tails

    def checkout(self, n: int, d: int, k: int, dtype) -> _Scratch:
        if (self._scratch_free and self._scratch is not None
                and self._scratch.shape == (n, d, k, dtype)):
            self._scratch_free = False
            return self._scratch
        # The pooled set is busy (overlapping graphs) or was stranded by
        # a forward whose backward never ran (inference passes check in
        # only on the no-grad path): hand out a fresh set and make *it*
        # the pooled one, so reuse resumes at its check-in instead of
        # being disabled for good. The displaced set stays referenced by
        # its own closure and is simply dropped when that graph dies.
        scratch = _Scratch(n, d, k, dtype)
        self._scratch = scratch
        self._scratch_free = False
        return scratch

    def checkin(self, scratch: _Scratch) -> None:
        if scratch is self._scratch:
            self._scratch_free = True


def attention_message(nodes: Tensor, w_stack: Tensor, rel_emb: Tensor,
                      plan: RelationPlan, operators: tuple) -> Tensor:
    """Fused eq. 9-11: per-relation projections, attention logits, and
    the segment-softmax-weighted neighborhood message, as one node.

    Equals, bit-for-bit, a per-relation loop of gathers, matmuls and
    logits followed by the segment softmax — everything in
    :class:`repro.components.kgat.KnowledgeGraphAttention` between the
    node matrix and the bi-interaction aggregator.
    """
    indicator, indicator_t = operators
    heads, tails = plan.heads, plan.tails
    n, num_nodes = plan.num_triplets, plan.num_nodes
    # Both calls are load-bearing: each replays any deferred lazy-row
    # updates for its index set before the rows are gathered.
    nodes._gather_source(heads)
    src = nodes._gather_source(tails)
    Wd, Ed = w_stack.data, rel_emb.data
    d, k = Wd.shape[1], Wd.shape[2]
    dtype = src.dtype
    S = plan.checkout(n, d, k, dtype)
    g_xh, g_xt, mm_scratch = S.nd
    proj_t, mm_h, th, pr, g_nk, th2 = S.nk
    logits, shifted, expv, v_scratch, v_scratch2 = S.n1

    # Fancy row gathers beat np.take(out=...) here; the fresh arrays
    # double as the stored forward intermediates.
    backend = _active_backend()
    x_h = src[heads]
    x_t = src[tails]
    for r, s, e in plan.rels:
        backend.matmul_out(x_t[s:e], Wd[r], proj_t[s:e])
        backend.matmul_out(x_h[s:e], Wd[r], mm_h[s:e])
        np.add(mm_h[s:e], Ed[r], out=mm_h[s:e])
    np.tanh(mm_h, out=th)
    np.multiply(proj_t, th, out=pr)
    pr.sum(axis=1, out=logits)

    seg_max = np.full(num_nodes, -np.inf)
    seg_max[plan.seg_uniq] = np.maximum.reduceat(
        logits[plan.seg_order], plan.seg_starts)
    seg_max[~np.isfinite(seg_max)] = 0.0
    np.subtract(logits, seg_max[plan.segments].astype(dtype, copy=False),
                out=shifted)
    np.clip(shifted, -60.0, 60.0, out=v_scratch)
    np.exp(v_scratch, out=expv)
    exp2d = expv.reshape(-1, 1)
    denom = backend.spmm(indicator, exp2d)
    denomp_eps = backend.spmm(indicator_t, denom) + 1e-12
    alpha = exp2d / denomp_eps
    weighted = np.multiply(x_t, alpha, out=g_xt)   # reused later
    neighborhood = backend.spmm(indicator, weighted)

    requires = (nodes.requires_grad or w_stack.requires_grad
                or rel_emb.requires_grad)
    out = Tensor(neighborhood, requires_grad=requires)
    if not requires:
        plan.checkin(S)
        return out

    def backward(g):
        g_weighted = backend.spmm_t(indicator, g)
        # g_xh is free until the projection backward; borrow it for the
        # (n, d) product feeding alpha's unbroadcast row-sum.
        sq = np.multiply(g_weighted, x_t, out=g_xh)
        g_alpha = sq.sum(axis=1, keepdims=True)
        g_values = np.multiply(g_weighted, alpha, out=g_xt)
        g_exp2d = g_alpha / denomp_eps
        g_exp2d = g_exp2d + backend.spmm_t(indicator, backend.spmm_t(
            indicator_t, -g_alpha * exp2d / denomp_eps ** 2))
        g_exp = g_exp2d.reshape(-1)
        np.multiply(g_exp, expv, out=v_scratch2)
        inside = (shifted >= -60.0) & (shifted <= 60.0)
        np.multiply(v_scratch2, inside, out=v_scratch2)
        g2 = np.broadcast_to(v_scratch2[:, None], (n, k))
        g_projt = np.multiply(g2, th, out=pr)
        g_th = np.multiply(g2, proj_t, out=g_nk)
        # th stays intact: no forward intermediate is ever clobbered
        # (the scratch lifetime contract above).
        np.multiply(th, th, out=th2)
        np.subtract(1.0, th2, out=th2)
        g_mm_h = np.multiply(g_th, th2, out=g_th)
        grad_w = np.zeros_like(Wd)
        grad_e = np.zeros_like(Ed)
        for r, s, e in plan.rels:
            grad_e[r] = g_mm_h[s:e].sum(axis=0)
            backend.matmul_out(g_mm_h[s:e], Wd[r].T, g_xh[s:e])
            grad_w[r] = backend.matmul(x_t[s:e].T, g_projt[s:e])
            grad_w[r] += backend.matmul(x_h[s:e].T, g_mm_h[s:e])
            # g_xt accumulates the projection-path gradient on top of
            # the attention-values path already stored there.
            backend.matmul_out(g_projt[s:e], Wd[r].T, mm_scratch[s:e])
            g_values[s:e] += mm_scratch[s:e]
        # Per-relation scatters in the replaced graph's arrival order:
        # tails then heads, relations ascending.
        shape = (num_nodes, d)
        parts = []
        for r, s, e in plan.rels:
            parts.append(_gather_grad(
                nodes, tails[s:e], plan.flat_tails[s * d:e * d],
                g_values[s:e], shape, dtype))
            parts.append(_gather_grad(
                nodes, heads[s:e], plan.flat_heads[s * d:e * d],
                g_xh[s:e], shape, dtype))
        plan.checkin(S)
        return (GradParts(parts), grad_w, grad_e)

    out._parents = (nodes, w_stack, rel_emb)
    out._backward = backward
    return out


def transr_scores(entity_emb: Tensor, w_list: list, rel_emb: Tensor,
                  heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> Tensor:
    """Fused eq. 30 triplet scores ``-|| W_r e_h + e_r - W_r e_t ||^2``
    in input order, as one node.

    Equals a per-relation loop bit-for-bit: the stable relation sort
    equals a unique/flatnonzero grouping, and the backward replays each
    replaced node's expression and arrival order (heads before tails
    per relation, ascending).

    ``w_list`` stays a *list* of per-relation parameters, not a stacked
    tensor: relations absent from a sampled batch historically received
    no gradient at all, and Adam skips grad-less parameters entirely —
    no moment decay that step. A stacked parameter would decay every
    relation's moments on every step and drift from the recorded
    schedule; per-relation parents with ``None`` grads keep the skip
    semantics exact.
    """
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    order = np.argsort(relations, kind="stable")
    inverse = np.argsort(order, kind="stable")
    h_sorted, t_sorted = heads[order], tails[order]
    rel_sorted = relations[order]
    uniq, starts = np.unique(rel_sorted, return_index=True)
    bounds = np.append(starts, len(rel_sorted))
    rels = [(int(uniq[i]), int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(uniq))]

    # Both calls are load-bearing: each replays any deferred lazy-row
    # updates for its index set before the rows are gathered.
    entity_emb._gather_source(h_sorted)
    src = entity_emb._gather_source(t_sorted)
    Ed = rel_emb.data
    dtype = src.dtype
    m = len(heads)
    entity_dim = src.shape[1]
    k = Ed.shape[1]                      # relation_dim
    backend = _active_backend()
    x_h, x_t = src[h_sorted], src[t_sorted]
    diff = np.empty((m, k), dtype=dtype)
    for r, s, e in rels:
        w_r = w_list[r].data
        diff[s:e] = (backend.matmul(x_h[s:e], w_r) + Ed[r]
                     ) - backend.matmul(x_t[s:e], w_r)
    scores_sorted = -(diff * diff).sum(axis=1)
    out_data = scores_sorted[inverse]

    requires = (entity_emb.requires_grad or rel_emb.requires_grad
                or any(w.requires_grad for w in w_list))
    out = Tensor(out_data, requires_grad=requires)
    if not requires:
        return out

    def backward(g):
        g_sorted = np.zeros(m, dtype=g.dtype)
        g_sorted[inverse] = g
        grad_e = np.zeros_like(Ed)
        grad_w: list = [None] * len(w_list)
        # Entity gradients are entity_dim wide (d_diff @ W_r.T maps
        # relation space back to entity space).
        shape = (entity_emb._rawdata().shape[0], entity_dim)
        parts = []
        for r, s, e in rels:
            w_r = w_list[r].data
            g2 = np.broadcast_to((-g_sorted[s:e])[:, None], (e - s, k))
            t1 = g2 * diff[s:e]
            d_diff = t1 + t1
            d_t_mm = -d_diff
            grad_e[r] = d_diff.sum(axis=0)
            grad_w[r] = GradParts([backend.matmul(x_h[s:e].T, d_diff),
                                   backend.matmul(x_t[s:e].T, d_t_mm)])
            parts.append(_gather_grad(entity_emb, h_sorted[s:e], None,
                                      backend.matmul(d_diff, w_r.T),
                                      shape, dtype))
            parts.append(_gather_grad(entity_emb, t_sorted[s:e], None,
                                      backend.matmul(d_t_mm, w_r.T),
                                      shape, dtype))
        return tuple([GradParts(parts), grad_e] + grad_w)

    out._parents = tuple([entity_emb, rel_emb] + list(w_list))
    out._backward = backward
    return out
