"""Fused kernels for the KG attention, TransR and the discriminator.

The knowledge-graph attention layer (paper eq. 9-13), the TransR
scorer (eq. 30) and one pass of Firzen's discriminator (eq. 26-27)
each run as a *single* autograd node that returns one pre-summed
gradient per parent.

Distinct-row projections
------------------------
The attention logit ``pi(h, r, t) = (x_t W_r)^T tanh(x_h W_r + e_r)``
reads the tail projection only through the pair (r, t) and the tanh
branch only through (r, h). A CKG repeats those pairs heavily (on
beauty/small, 27,649 triplets carry 1,246 distinct (r, t) and 1,685
distinct (r, h) pairs), so :func:`attention_message` projects each
distinct row once, one GEMM per relation, and never materializes a
``(num_triplets, relation_dim)`` array.

Frozen operators
----------------
Everything per-triplet runs through operators that
:class:`RelationPlan` freezes once per (graph, layer):

* the **message CSR** ``A`` (head x tail) whose data is the attention
  weight alpha: the message is ``A @ x`` and its value-path gradient
  ``A.T @ g``;
* the **pair CSR** ``G`` (distinct (r, t) x distinct (r, h)) whose data
  is the logit gradient: the distinct-row gradients are ``G @ tanh`` and
  ``G.T @ proj``;
* a ``reduceat`` **segment softmax** over each head's ego network,
  run in the head-sorted order ``seg_order``;
* :func:`sddmm` for both per-triplet dot products (the logits and the
  alpha gradient): a dense GEMM over a relation's distinct rows when the
  pair block is no larger than the ``(T_r, relation_dim)`` gather it
  replaces (``U_h * U_t <= relation_dim * T_r``), row gathers otherwise.
  The branch is fixed per relation in the plan.

TransR computes ``(x_h - x_t) W_r + e_r`` with one GEMM and one
``grad_w[r]`` per relation.

Discriminator pass
------------------
:func:`discriminator_pass` runs Linear -> LeakyReLU -> BatchNorm1d ->
Dropout -> Linear -> Sigmoid -> mean (or sum) over the layers of a
``Sequential``, which keeps owning the parameters, the batch-norm
running statistics and the dropout generator. Given a factored pair
``(U, I)`` instead of explicit rows, the first layer is
``U (I^T W1)``: the ``len(U) x len(I)`` matrix ``U I^T`` is never
built. A ``frozen`` pass takes no parameter gradients.

Numerics
--------
The kernels are not bit-identical to the graphs they replaced (GEMM
shapes and summation order differ). Those graphs stay in the tests as
the reference (the per-relation graphs in
``tests/autograd/test_fused.py``, the ``Sequential`` network in
``tests/core/test_discriminator.py``), held to ``1e-12`` for one call
and ``1e-10`` for parameters and losses after training; finite
differences in ``tests/autograd/test_gradcheck.py`` cover both SDDMM
branches, duplicate CSR entries and both discriminator input forms.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..backend import active as _active_backend
from .rowsparse import RowSparseGrad
from .tensor import Tensor


def _indptr(rows: np.ndarray, num_rows: int) -> np.ndarray:
    indptr = np.zeros(num_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=num_rows), out=indptr[1:])
    return indptr


class RelationPlan:
    """Frozen layout of a CKG's triplets for :func:`attention_message`.

    Built once per (graph, layer):

    * ``heads`` / ``tails`` / ``rels`` — the triplets in ascending
      relation order and each nonempty relation's ``(relation, start,
      end)`` slice;
    * ``head_rows`` / ``tail_rows`` — the entity of each distinct (r, h)
      and (r, t) row, one contiguous block per relation, and
      ``head_index`` / ``tail_index`` mapping each triplet to its rows;
    * ``steps`` — per relation, its triplet slice, its row blocks and
      its SDDMM branch (a flat pick into the pair block, or ``None``
      for row gathers);
    * the head-sorted ``seg_order`` with segment starts for the softmax,
      and the structures of the message, pair and row-scatter CSRs.
    """

    def __init__(self, by_relation: list, num_nodes: int,
                 relation_dim: int):
        self.num_nodes = num_nodes
        self.rels = []          # (relation, start, end) for nonempty ones
        heads_parts, tails_parts = [], []
        offset = 0
        for relation, (heads, tails) in enumerate(by_relation):
            if len(heads) == 0:
                continue
            self.rels.append((relation, offset, offset + len(heads)))
            heads_parts.append(np.asarray(heads, dtype=np.int64))
            tails_parts.append(np.asarray(tails, dtype=np.int64))
            offset += len(heads)
        self.num_triplets = offset
        self.heads = (np.concatenate(heads_parts) if heads_parts
                      else np.empty(0, dtype=np.int64))
        self.tails = (np.concatenate(tails_parts) if tails_parts
                      else np.empty(0, dtype=np.int64))

        head_rows, tail_rows = [], []
        self.head_index = np.empty(offset, dtype=np.int64)
        self.tail_index = np.empty(offset, dtype=np.int64)
        self.steps = []
        h_off = t_off = 0
        for relation, s, e in self.rels:
            uh, hi = np.unique(self.heads[s:e], return_inverse=True)
            ut, ti = np.unique(self.tails[s:e], return_inverse=True)
            head_rows.append(uh)
            tail_rows.append(ut)
            self.head_index[s:e] = hi + h_off
            self.tail_index[s:e] = ti + t_off
            pairs = len(uh) * len(ut) <= relation_dim * (e - s)
            pick = hi * len(ut) + ti if pairs else None
            self.steps.append((relation, s, e,
                               slice(h_off, h_off + len(uh)),
                               slice(t_off, t_off + len(ut)), pick))
            h_off += len(uh)
            t_off += len(ut)
        self.head_rows = (np.concatenate(head_rows) if head_rows
                          else np.empty(0, dtype=np.int64))
        self.tail_rows = (np.concatenate(tail_rows) if tail_rows
                          else np.empty(0, dtype=np.int64))

        # Segment softmax over each head's ego network, head-sorted.
        self.seg_order = np.argsort(self.heads, kind="stable")
        sorted_heads = self.heads[self.seg_order]
        _, self.seg_starts, counts = np.unique(
            sorted_heads, return_index=True, return_counts=True)
        self.seg_of = np.repeat(np.arange(len(counts)), counts)

        # Message CSR (head x tail): one entry per triplet in seg order.
        self._msg_indices = self.tails[self.seg_order].astype(np.int32)
        self._msg_indptr = _indptr(sorted_heads, num_nodes)
        # Pair CSR (distinct (r, t) x distinct (r, h)): seg-order
        # entries regrouped by their (r, t) row.
        tail_of = self.tail_index[self.seg_order]
        self._pair_pick = np.argsort(tail_of, kind="stable")
        self._pair_indices = self.head_index[self.seg_order][
            self._pair_pick].astype(np.int32)
        self._pair_indptr = _indptr(tail_of, t_off)
        self._pair_shape = (t_off, h_off)
        # Row scatter (node x stacked distinct rows): sums the stacked
        # [tail rows; head rows] gradients back onto node rows.
        stacked = np.concatenate([self.tail_rows, self.head_rows])
        self.row_scatter = sp.csr_matrix(
            (np.ones(len(stacked)), (stacked, np.arange(len(stacked)))),
            shape=(num_nodes, len(stacked)))

    # Both operators keep one entry per triplet: duplicate entries in a
    # cell stay separate, so each call's data maps 1:1 onto triplets.
    def message_operator(self, alpha: np.ndarray) -> sp.csr_matrix:
        """``A`` with alpha (in seg order) as its data."""
        return sp.csr_matrix((alpha, self._msg_indices, self._msg_indptr),
                             shape=(self.num_nodes, self.num_nodes))

    def pair_operator(self, g_logits: np.ndarray) -> sp.csr_matrix:
        """``G`` with the logit gradient (in seg order) as its data."""
        return sp.csr_matrix((g_logits[self._pair_pick],
                              self._pair_indices, self._pair_indptr),
                             shape=self._pair_shape)


def sddmm(a: np.ndarray, b: np.ndarray, plan: RelationPlan) -> np.ndarray:
    """Per-triplet dot products ``a[head_index] . b[tail_index]`` in
    relation order: ``a`` holds one row per distinct (r, h), ``b`` one
    per distinct (r, t). Each relation takes the branch its plan fixed:
    a dense GEMM over its row blocks and a pick, or row gathers."""
    backend = _active_backend()
    out = np.empty(plan.num_triplets, dtype=np.result_type(a, b))
    for _, s, e, hs, ts, pick in plan.steps:
        if pick is not None:
            block = backend.matmul(a[hs], b[ts].T)
            out[s:e] = block.ravel()[pick]
        else:
            out[s:e] = np.einsum("ij,ij->i", a[plan.head_index[s:e]],
                                 b[plan.tail_index[s:e]])
    return out


def attention_message(nodes: Tensor, w_stack: Tensor, rel_emb: Tensor,
                      plan: RelationPlan) -> Tensor:
    """Fused eq. 9-11: distinct-row projections, attention logits, and
    the segment-softmax-weighted neighborhood message, as one node —
    everything in :class:`repro.components.kgat.KnowledgeGraphAttention`
    between the node matrix and the bi-interaction aggregator."""
    src = nodes.data
    Wd, Ed = w_stack.data, rel_emb.data
    k = Wd.shape[2]
    dtype = src.dtype
    backend = _active_backend()
    x_h = src[plan.head_rows]
    x_t = src[plan.tail_rows]
    proj = np.empty((len(x_t), k), dtype=dtype)
    th = np.empty((len(x_h), k), dtype=dtype)
    for relation, _, _, hs, ts, _ in plan.steps:
        backend.matmul_out(x_t[ts], Wd[relation], proj[ts])
        backend.matmul_out(x_h[hs], Wd[relation], th[hs])
        th[hs] += Ed[relation]
    np.tanh(th, out=th)

    # Segment softmax over each head's triplets, in seg order.
    logits = sddmm(th, proj, plan)[plan.seg_order]
    seg_max = np.maximum.reduceat(logits, plan.seg_starts)
    shifted = logits - seg_max[plan.seg_of]
    inside = (shifted >= -60.0) & (shifted <= 60.0)
    expv = np.exp(np.clip(shifted, -60.0, 60.0))
    denom = np.add.reduceat(expv, plan.seg_starts)[plan.seg_of] + 1e-12
    alpha = expv / denom
    message = plan.message_operator(alpha)
    neighborhood = backend.spmm(message, src)

    requires = (nodes.requires_grad or w_stack.requires_grad
                or rel_emb.requires_grad)
    out = Tensor(neighborhood, requires_grad=requires)
    if not requires:
        return out

    def backward(g):
        grad_nodes = backend.spmm_t(message, g)
        g_alpha = sddmm(g[plan.head_rows], x_t, plan)[plan.seg_order]
        g_dot = np.add.reduceat(g_alpha * alpha, plan.seg_starts)
        g_logits = (g_alpha - g_dot[plan.seg_of]) / denom * expv * inside
        pair = plan.pair_operator(g_logits)
        g_proj = backend.spmm(pair, th)
        g_pre = backend.spmm_t(pair, proj) * (1.0 - th * th)
        grad_w = np.zeros_like(Wd)
        grad_e = np.zeros_like(Ed)
        g_x_t = np.empty_like(x_t)
        g_x_h = np.empty_like(x_h)
        for relation, _, _, hs, ts, _ in plan.steps:
            w = Wd[relation]
            grad_e[relation] = g_pre[hs].sum(axis=0)
            grad_w[relation] = (backend.matmul(x_t[ts].T, g_proj[ts])
                                + backend.matmul(x_h[hs].T, g_pre[hs]))
            backend.matmul_out(g_proj[ts], w.T, g_x_t[ts])
            backend.matmul_out(g_pre[hs], w.T, g_x_h[hs])
        grad_nodes += backend.spmm(plan.row_scatter,
                                   np.concatenate([g_x_t, g_x_h]))
        return (grad_nodes, grad_w, grad_e)

    out._parents = (nodes, w_stack, rel_emb)
    out._backward = backward
    return out


def transr_scores(entity_emb: Tensor, w_list: list, rel_emb: Tensor,
                  heads: np.ndarray, relations: np.ndarray,
                  tails: np.ndarray) -> Tensor:
    """Fused eq. 30 triplet scores ``-|| (e_h - e_t) W_r + e_r ||^2`` in
    input order, as one node: a stable relation sort, one GEMM per
    relation, and one pre-summed gradient per parent.

    ``w_list`` stays a *list* of per-relation parameters, not a stacked
    tensor: relations absent from a sampled batch receive no gradient at
    all, and Adam skips grad-less parameters entirely — no moment decay
    that step. A stacked parameter would decay every relation's moments
    on every step; per-relation parents with ``None`` grads keep the skip
    semantics.
    """
    heads = np.asarray(heads, dtype=np.int64)
    relations = np.asarray(relations, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    order = np.argsort(relations, kind="stable")
    rows = np.concatenate([heads[order], tails[order]])
    uniq, starts = np.unique(relations[order], return_index=True)
    bounds = np.append(starts, len(order))
    rels = [(int(uniq[i]), int(bounds[i]), int(bounds[i + 1]))
            for i in range(len(uniq))]

    src = entity_emb.data
    Ed = rel_emb.data
    m = len(order)
    backend = _active_backend()
    x_diff = src[rows[:m]] - src[rows[m:]]
    diff = np.empty((m, Ed.shape[1]), dtype=src.dtype)
    for r, s, e in rels:
        backend.matmul_out(x_diff[s:e], w_list[r].data, diff[s:e])
        diff[s:e] += Ed[r]
    out_data = np.empty(m, dtype=src.dtype)
    out_data[order] = -(diff * diff).sum(axis=1)

    requires = (entity_emb.requires_grad or rel_emb.requires_grad
                or any(w.requires_grad for w in w_list))
    out = Tensor(out_data, requires_grad=requires)
    if not requires:
        return out

    def backward(g):
        d_diff = (-2.0 * g[order])[:, None] * diff
        grad_e = np.zeros_like(Ed)
        grad_w: list = [None] * len(w_list)
        g_x = np.empty_like(x_diff)
        for r, s, e in rels:
            grad_e[r] = d_diff[s:e].sum(axis=0)
            grad_w[r] = backend.matmul(x_diff[s:e].T, d_diff[s:e])
            backend.matmul_out(d_diff[s:e], w_list[r].data.T, g_x[s:e])
        values = np.concatenate([g_x, -g_x])
        shape = src.shape
        if entity_emb._sparse_grad_ok(len(rows), shape[0]):
            grad_entity = RowSparseGrad.from_gather(rows, values, shape,
                                                    src.dtype)
        else:
            grad_entity = backend.bincount_rows(
                rows, values, *shape).astype(src.dtype, copy=False)
        return tuple([grad_entity, grad_e] + grad_w)

    out._parents = tuple([entity_emb, rel_emb] + list(w_list))
    out._backward = backward
    return out


def discriminator_mask(network, num_rows: int) -> np.ndarray | None:
    """The inverted-dropout mask of one training pass over ``num_rows``
    rows, drawn from the network's ``Dropout`` generator as that module
    draws it (``rng.random(shape) < keep``, scaled by ``1 / keep``);
    ``None`` in eval mode or at rate 0."""
    drop, linear2 = network.layers[3], network.layers[4]
    if not drop.training or drop.rate <= 0.0:
        return None
    keep = 1.0 - drop.rate
    shape = (num_rows, linear2.weight.shape[0])
    return (drop.rng.random(shape) < keep).astype(
        linear2.weight.data.dtype) / keep


def discriminator_pass(network, rows: Tensor, items: Tensor | None = None,
                       *, reduce: str = "mean", frozen: bool = False,
                       mask: np.ndarray | None = None) -> Tensor:
    """Fused eq. 26: the mean (or ``reduce="sum"``) score of one pass of
    ``network`` — a ``Sequential`` of Linear, LeakyReLU, BatchNorm1d,
    Dropout, Linear and Sigmoid — as one node.

    ``rows`` are the input rows or, with ``items``, the factors of the
    rows ``rows @ items.T``. In training mode the batch statistics
    normalize, the running statistics update with ``BatchNorm1d``'s
    expressions, and ``mask`` (by default a fresh
    :func:`discriminator_mask`) drops units; in eval mode the running
    statistics normalize and nothing drops. A ``frozen`` pass returns
    gradients for its inputs only.
    """
    linear1, act, bn, _, linear2, _ = network.layers
    params = (linear1.weight, linear1.bias, bn.gamma, bn.beta,
              linear2.weight, linear2.bias)
    w1, b1, gamma, beta, w2, b2 = (p.data for p in params)
    backend = _active_backend()
    x = rows.data
    n = len(x)
    if items is None:
        pre = backend.matmul(x, w1) + b1
    else:
        item_w = backend.matmul(items.data.T, w1)
        pre = backend.matmul(x, item_w) + b1
    slope = act.negative_slope
    hidden = np.where(pre > 0.0, pre, slope * pre)
    training = bn.training
    if training:
        mean = hidden.sum(axis=0, keepdims=True) * (1.0 / n)
        centered = hidden - mean
        var = (centered * centered).sum(axis=0, keepdims=True) * (1.0 / n)
        bn.running_mean = ((1 - bn.momentum) * bn.running_mean
                           + bn.momentum * mean.ravel())
        bn.running_var = ((1 - bn.momentum) * bn.running_var
                          + bn.momentum * var.ravel())
        std = backend.sqrt(var + bn.eps)
        norm = centered / std
    else:
        std = np.sqrt(bn.running_var + bn.eps)
        norm = (hidden - bn.running_mean) / std
    if mask is None:
        mask = discriminator_mask(network, n)
    dropped = norm * gamma + beta
    if mask is not None:
        dropped *= mask
    scores = backend.sigmoid(backend.matmul(dropped, w2) + b2)
    scale = 1.0 / scores.size if reduce == "mean" else 1.0
    total = scores.sum() * scale

    inputs = (rows,) if items is None else (rows, items)
    parents = inputs if frozen else inputs + params
    requires = any(p.requires_grad for p in parents)
    out = Tensor(total, requires_grad=requires)
    if not requires:
        return out

    def backward(g):
        g_pre2 = np.broadcast_to(g * scale, scores.shape) \
            * scores * (1.0 - scores)
        g_scaled = backend.matmul(g_pre2, w2.T)
        if mask is not None:
            g_scaled *= mask
        g_norm = g_scaled * gamma
        if training:
            g_hidden = (g_norm - g_norm.mean(axis=0)
                        - norm * (g_norm * norm).mean(axis=0)) / std
        else:
            g_hidden = g_norm / std
        g_pre = g_hidden * np.where(pre > 0.0, 1.0, slope)
        if items is None:
            grads = [backend.matmul(g_pre, w1.T)
                     if rows.requires_grad else None]
            grad_w1 = None if frozen else backend.matmul(x.T, g_pre)
        else:
            g_item_w = backend.matmul(x.T, g_pre)
            grads = [backend.matmul(g_pre, item_w.T)
                     if rows.requires_grad else None,
                     backend.matmul(w1, g_item_w.T)
                     if items.requires_grad else None]
            grad_w1 = (None if frozen
                       else backend.matmul(items.data, g_item_w))
        if not frozen:
            grads += [grad_w1, g_pre.sum(axis=0),
                      (g_scaled * norm).sum(axis=0), g_scaled.sum(axis=0),
                      backend.matmul(dropped.T, g_pre2),
                      g_pre2.sum(axis=0)]
        return tuple(grads)

    out._parents = parents
    out._backward = backward
    return out
