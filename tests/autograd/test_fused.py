"""The fused relation-batched kernels vs per-relation node graphs.

The reference graphs live here, not in the library: one gather pair,
matmul pair and logits chain per relation, then concatenation — the
graphs the fused kernels replaced. Tests swap them in for
``fused.attention_message`` / ``fused.transr_scores`` and compare.

The kernels project distinct (relation, entity) rows and sum in a
different order than the reference, so the comparison holds to a
tolerance fixed up front: ``rtol = atol = 1e-12`` for one call's
outputs and gradients, and ``atol = 1e-10`` for parameters and losses
after training (two KGAT or Firzen epochs, four TransR steps). The
``*_bit_equal`` tests compare to these tolerances too.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.autograd import Tensor, concat, fused
from repro.autograd.optim import Adam, clip_grad_norm
from repro.baselines import create_model
from repro.components.transr import TransRScorer, transr_loss
from repro.data import load_amazon
from repro.train.trainer import TrainConfig, train_model
from segments_reference import segment_softmax_weighted_sum


@pytest.fixture(scope="module")
def dataset():
    return load_amazon("beauty", size="tiny")


#: one call's outputs and gradients
CALL_TOL = dict(rtol=1e-12, atol=1e-12)
#: parameters and losses after training
TRAINED_TOL = dict(rtol=0.0, atol=1e-10)


def per_relation_attention(nodes, w_stack, rel_emb, plan):
    """Eq. 9-11 as one autograd subgraph per relation (the reference
    for :func:`repro.autograd.fused.attention_message`)."""
    logits_parts, tails_parts = [], []
    for relation, start, end in plan.rels:
        x_h = nodes.take_rows(plan.heads[start:end])
        x_t = nodes.take_rows(plan.tails[start:end])
        w_r = w_stack[relation]
        proj_t = x_t.matmul(w_r)
        proj_h = (x_h.matmul(w_r) + rel_emb[relation]).tanh()
        logits_parts.append((proj_t * proj_h).sum(axis=1))
        tails_parts.append(x_t)
    return segment_softmax_weighted_sum(
        concat(logits_parts, axis=0), concat(tails_parts, axis=0),
        plan.heads, plan.num_nodes)


def per_relation_transr(entity_emb, w_list, rel_emb, heads, relations,
                        tails):
    """Eq. 30 scores as one autograd subgraph per relation, reassembled
    in input order (the reference for
    :func:`repro.autograd.fused.transr_scores`)."""
    relations = np.asarray(relations, dtype=np.int64)
    parts = []
    for relation in np.unique(relations):
        mask = np.flatnonzero(relations == relation)
        w_r = w_list[int(relation)]
        h = entity_emb.take_rows(heads[mask]).matmul(w_r)
        t = entity_emb.take_rows(tails[mask]).matmul(w_r)
        diff = h + rel_emb[int(relation)] - t
        parts.append((mask, -(diff * diff).sum(axis=1)))
    order = np.concatenate([mask for mask, _ in parts])
    stacked = concat([score for _, score in parts], axis=0)
    return stacked.take_rows(np.argsort(order, kind="stable"))


@contextmanager
def _reference_graphs(monkeypatch):
    """Run the per-relation reference graphs in place of the fused
    kernels, and fail if no kernel call was actually redirected."""
    calls = []

    def attention(*args):
        calls.append("attention")
        return per_relation_attention(*args)

    def transr(*args):
        calls.append("transr")
        return per_relation_transr(*args)

    with monkeypatch.context() as patch:
        patch.setattr(fused, "attention_message", attention)
        patch.setattr(fused, "transr_scores", transr)
        yield
    assert calls, "the per-relation reference never ran"


def _kernels(monkeypatch, fused_on: bool):
    """The fused kernels (``fused_on``) or the per-relation reference."""
    return nullcontext() if fused_on else _reference_graphs(monkeypatch)


class TestAttentionParity:
    def _run(self, dataset, monkeypatch, fused_on: bool):
        with _kernels(monkeypatch, fused_on):
            model = create_model("KGAT", dataset, seed=0)
            layer = model.attention_layers[0]
            x = Tensor(np.random.default_rng(1).normal(
                size=(model.ckg.num_nodes, 32)), requires_grad=True)
            out = layer(x)
            out.backward(np.ones_like(out.data))
            return (out.data, x.grad, layer.relation_proj.grad,
                    layer.relation_emb.grad, layer.w_sum.grad,
                    layer.w_prod.grad)

    def test_layer_forward_and_grads_bit_equal(self, dataset, monkeypatch):
        fused_out = self._run(dataset, monkeypatch, True)
        reference_out = self._run(dataset, monkeypatch, False)
        for got, want in zip(fused_out, reference_out):
            np.testing.assert_allclose(got, want, **CALL_TOL)

    def test_trained_kgat_bit_equal(self, dataset, monkeypatch):
        states = []
        for fused_on in (True, False):
            with _kernels(monkeypatch, fused_on):
                model = create_model("KGAT", dataset, seed=0)
                train_model(model, dataset,
                            TrainConfig(epochs=2, eval_every=3, seed=0))
                states.append(model.state_dict())
        assert states[0].keys() == states[1].keys()
        for key in states[0]:
            np.testing.assert_allclose(states[0][key], states[1][key],
                                       err_msg=key, **TRAINED_TOL)

    def test_trained_firzen_bit_equal(self, dataset, monkeypatch):
        states = []
        losses = []
        for fused_on in (True, False):
            with _kernels(monkeypatch, fused_on):
                model = create_model("Firzen", dataset, seed=0)
                result = train_model(model, dataset,
                                     TrainConfig(epochs=2, eval_every=3,
                                                 seed=0))
                states.append(model.state_dict())
                losses.append(result.losses)
        np.testing.assert_allclose(losses[0], losses[1], **TRAINED_TOL)
        for key in states[0]:
            np.testing.assert_allclose(states[0][key], states[1][key],
                                       err_msg=key, **TRAINED_TOL)


class TestTransRParity:
    def _loss_grads(self, monkeypatch, fused_on: bool, lazy: bool):
        with _kernels(monkeypatch, fused_on):
            rng = np.random.default_rng(5)
            scorer = TransRScorer(4, 8, 8, rng)
            emb = Tensor(np.random.default_rng(7).normal(size=(600, 8)),
                         requires_grad=True)
            optimizer = Adam([emb] + scorer.parameters(), lr=0.01,
                             sparse=lazy)
            sampler = np.random.default_rng(9)
            for _ in range(4):
                heads = sampler.integers(0, 600, 64)
                rels = sampler.integers(0, 4, 64)
                pos = sampler.integers(0, 600, 64)
                neg = sampler.integers(0, 600, 64)
                optimizer.zero_grad()
                loss = transr_loss(scorer, emb, heads, rels, pos, neg)
                loss.backward()
                clip_grad_norm(optimizer.params, 10.0)
                optimizer.step()
            return ([emb.data.copy()]
                    + [w.data.copy() for w in scorer.relation_proj]
                    + [scorer.relation_emb.data.copy()])

    @pytest.mark.parametrize("lazy", [False, True])
    def test_trained_transr_bit_equal(self, monkeypatch, lazy):
        fused_state = self._loss_grads(monkeypatch, True, lazy)
        reference_state = self._loss_grads(monkeypatch, False, lazy)
        for got, want in zip(fused_state, reference_state):
            np.testing.assert_allclose(got, want, **TRAINED_TOL)

    def test_scores_match_input_order(self, monkeypatch):
        # Forward values in input order, both paths.
        rng = np.random.default_rng(5)
        scorer = TransRScorer(3, 8, 8, rng)
        emb = Tensor(np.random.default_rng(7).normal(size=(40, 8)))
        r = np.random.default_rng(11)
        heads = r.integers(0, 40, 30)
        rels = r.integers(0, 3, 30)
        tails = r.integers(0, 40, 30)
        fused_scores = scorer.score(emb, heads, rels, tails).data
        with _reference_graphs(monkeypatch):
            reference_scores = scorer.score(emb, heads, rels, tails).data
        np.testing.assert_allclose(fused_scores, reference_scores,
                                   **CALL_TOL)

    def test_distinct_entity_and_relation_dims(self, monkeypatch):
        # entity_dim != relation_dim: the entity gradient is
        # entity_dim wide (regression: the fused backward once sized it
        # with relation_dim and crashed).
        results = []
        for fused_on in (True, False):
            with _kernels(monkeypatch, fused_on):
                rng = np.random.default_rng(5)
                scorer = TransRScorer(3, entity_dim=8, relation_dim=4,
                                      rng=rng)
                emb = Tensor(np.random.default_rng(7).normal(
                    size=(40, 8)), requires_grad=True)
                r = np.random.default_rng(11)
                loss = transr_loss(scorer, emb,
                                   r.integers(0, 40, 30),
                                   r.integers(0, 3, 30),
                                   r.integers(0, 40, 30),
                                   r.integers(0, 40, 30))
                loss.backward()
                results.append((loss.data.copy(), emb.grad))
        np.testing.assert_allclose(results[0][0], results[1][0],
                                   **CALL_TOL)
        np.testing.assert_allclose(results[0][1], results[1][1],
                                   **CALL_TOL)

    def test_absent_relations_receive_no_grad(self):
        # Adam skips grad-less parameters; a relation absent from the
        # batch must keep grad None exactly like the per-relation loop.
        rng = np.random.default_rng(5)
        scorer = TransRScorer(4, 8, 8, rng)
        emb = Tensor(np.random.default_rng(7).normal(size=(40, 8)),
                     requires_grad=True)
        heads = np.array([0, 1, 2])
        rels = np.array([0, 0, 2])
        tails = np.array([3, 4, 5])
        loss = transr_loss(scorer, emb, heads, rels, pos_tails=tails,
                           neg_tails=tails[::-1].copy())
        loss.backward()
        assert scorer.relation_proj[0].grad is not None
        assert scorer.relation_proj[1].grad is None
        assert scorer.relation_proj[2].grad is not None
        assert scorer.relation_proj[3].grad is None
