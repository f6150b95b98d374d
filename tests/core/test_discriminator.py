"""Tests for the WGAN-GP discriminator and the augmented graph.

The reference for :func:`repro.autograd.fused.discriminator_pass` lives
here, not in the library: the discriminator's ``Sequential`` network
run module by module, one autograd node per op, on the explicit
virtual graph. The kernel sums in a different order (and factors the
first layer), so the comparison holds to tolerances fixed up front:
``rtol = atol = 1e-12`` for one call's outputs and gradients, and
``atol = 1e-10`` for Firzen's parameters, losses and batch-norm
statistics after two training epochs.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro.autograd import Tensor, fused
from repro.baselines import create_model
from repro.core.discriminator import (GraphRowDiscriminator,
                                      gumbel_augmented_graph)
from repro.data import load_amazon
from repro.train.trainer import TrainConfig, train_model

#: one call's outputs and gradients
CALL_TOL = dict(rtol=1e-12, atol=1e-12)
#: parameters, losses and running statistics after training
TRAINED_TOL = dict(rtol=0.0, atol=1e-10)


@contextmanager
def _detached(network):
    """Swap every parameter of ``network`` for a constant view."""
    owners = [(layer, name) for layer in network.layers
              for name in ("weight", "bias", "gamma", "beta")
              if isinstance(getattr(layer, name, None), Tensor)]
    saved = [getattr(layer, name) for layer, name in owners]
    for (layer, name), param in zip(owners, saved):
        setattr(layer, name, param.detach())
    try:
        yield
    finally:
        for (layer, name), param in zip(owners, saved):
            setattr(layer, name, param)


def composite_pass(network, rows, items=None, *, reduce="mean",
                   frozen=False, mask=None):
    """The ``Sequential`` network module by module (the reference for
    :func:`repro.autograd.fused.discriminator_pass`), on the explicit
    rows ``rows @ items.T`` when given the factored pair."""
    if items is not None:
        rows = rows.matmul(items.transpose())
    linear1, act, bn, drop, linear2, sigmoid = network.layers
    with _detached(network) if frozen else nullcontext():
        hidden = bn(act(linear1(rows)))
        hidden = drop(hidden) if mask is None else hidden * Tensor(mask)
        scores = sigmoid(linear2(hidden))
    return scores.mean() if reduce == "mean" else scores.sum()


def _pass(kernel, form, frozen, training, reduce):
    """One pass and its backward through ``kernel``, on a discriminator
    with non-trivial running statistics."""
    rng = np.random.default_rng(3)
    disc = GraphRowDiscriminator(30, 8, np.random.default_rng(1))
    bn = disc.network.layers[2]
    bn.running_mean = rng.normal(scale=0.1, size=8)
    bn.running_var = rng.uniform(0.5, 1.5, size=8)
    if not training:
        disc.eval()
    arrays = ([rng.normal(size=(12, 30))] if form == "rows"
              else [rng.normal(size=(12, 6)), rng.normal(size=(30, 6))])
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    out = kernel(disc.network, *inputs, reduce=reduce, frozen=frozen)
    out.backward()
    return (out.data, [t.grad for t in inputs],
            [p.grad for p in disc.parameters()],
            bn.running_mean, bn.running_var)


class TestDiscriminator:
    def test_score_in_unit_interval(self, rng):
        disc = GraphRowDiscriminator(20, 8, rng)
        score = disc(Tensor(rng.normal(size=(6, 20))))
        assert 0.0 <= score.item() <= 1.0

    def test_gradient_penalty_finite_and_nonnegative(self, rng):
        disc = GraphRowDiscriminator(20, 8, rng)
        penalty = disc.gradient_penalty(Tensor(rng.normal(size=(6, 20))))
        assert penalty.item() >= 0.0
        assert np.isfinite(penalty.item())

    def test_penalty_backpropagates_to_weights(self, rng):
        disc = GraphRowDiscriminator(20, 8, rng)
        disc.gradient_penalty(Tensor(rng.normal(size=(6, 20)))).backward()
        grads = [p.grad for p in disc.parameters() if p.grad is not None]
        assert grads, "penalty produced no weight gradients"

    def test_can_learn_to_separate(self, rng):
        """A short adversarial fit must push real scores above fake."""
        from repro.autograd.optim import Adam
        disc = GraphRowDiscriminator(10, 8, rng)
        opt = Adam(disc.parameters(), lr=0.02)
        real = rng.normal(2.0, 0.5, size=(32, 10))
        fake = rng.normal(-2.0, 0.5, size=(32, 10))
        for _ in range(60):
            opt.zero_grad()
            loss = disc(Tensor(fake)) - disc(Tensor(real))
            loss.backward()
            opt.step()
        disc.eval()
        assert disc(Tensor(real)).item() > disc(Tensor(fake)).item()


class TestFusedPass:
    @pytest.mark.parametrize("reduce", ["mean", "sum"])
    @pytest.mark.parametrize("training", [True, False],
                             ids=["train", "eval"])
    @pytest.mark.parametrize("frozen", [False, True],
                             ids=["trainable", "frozen"])
    @pytest.mark.parametrize("form", ["rows", "factored"])
    def test_matches_composite(self, form, frozen, training, reduce):
        got = _pass(fused.discriminator_pass, form, frozen, training,
                    reduce)
        want = _pass(composite_pass, form, frozen, training, reduce)
        np.testing.assert_allclose(got[0], want[0], **CALL_TOL)
        for got_grad, want_grad in zip(got[1], want[1]):
            np.testing.assert_allclose(got_grad, want_grad, **CALL_TOL)
        for got_grad, want_grad in zip(got[2], want[2]):
            if frozen:
                assert got_grad is None and want_grad is None
            else:
                np.testing.assert_allclose(got_grad, want_grad,
                                           **CALL_TOL)
        # On explicit rows the kernel computes the statistics with the
        # module's own expressions; the factored first layer rounds
        # differently.
        for got_stat, want_stat in zip(got[3:], want[3:]):
            if form == "rows":
                assert np.array_equal(got_stat, want_stat)
            else:
                np.testing.assert_allclose(got_stat, want_stat,
                                           **CALL_TOL)

    def test_gradient_penalty_passes_share_one_mask(self, rng):
        """With a zero direction the two passes see the same input, so
        one mask makes them agree exactly: |0 / eps - 1|^2 = 1."""
        class ZeroNormal:
            def normal(self, size):
                return np.zeros(size)

        disc = GraphRowDiscriminator(20, 8, rng)
        disc._fd_rng = ZeroNormal()
        penalty = disc.gradient_penalty(Tensor(rng.normal(size=(6, 20))))
        assert penalty.item() == 1.0


def _trained_firzen(dataset):
    model = create_model("Firzen", dataset, seed=0)
    result = train_model(model, dataset,
                         TrainConfig(epochs=2, eval_every=3, seed=0))
    bn = model.discriminator.network.layers[2]
    return (model.state_dict(), result.losses,
            [bn.running_mean, bn.running_var])


def test_trained_firzen_matches_composite(monkeypatch):
    dataset = load_amazon("beauty", size="tiny")
    fused_run = _trained_firzen(dataset)
    calls = []

    def reference(*args, **kwargs):
        calls.append(kwargs.get("frozen", False))
        return composite_pass(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(fused, "discriminator_pass", reference)
        reference_run = _trained_firzen(dataset)
    # the generator's frozen passes and the trainable D phase both ran
    assert set(calls) == {False, True}
    np.testing.assert_allclose(fused_run[1], reference_run[1],
                               **TRAINED_TOL)
    for key in fused_run[0]:
        np.testing.assert_allclose(fused_run[0][key], reference_run[0][key],
                                   err_msg=key, **TRAINED_TOL)
    for got, want in zip(fused_run[2], reference_run[2]):
        np.testing.assert_allclose(got, want, **TRAINED_TOL)


class TestAugmentedGraph:
    def test_rows_are_distributions_plus_aux(self, rng):
        observed = (rng.random((4, 10)) > 0.7).astype(float)
        users = np.arange(4)
        user_final = rng.normal(size=(4, 6))
        item_final = rng.normal(size=(10, 6))
        out = gumbel_augmented_graph(observed, user_final, item_final,
                                     users, 0.5, 0.0, rng)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_aux_signal_shifts_rows(self, rng):
        observed = (rng.random((4, 10)) > 0.7).astype(float)
        users = np.arange(4)
        user_final = rng.normal(size=(4, 6))
        item_final = rng.normal(size=(10, 6))
        base_rng = np.random.default_rng(42)
        without = gumbel_augmented_graph(observed, user_final, item_final,
                                         users, 0.5, 0.0,
                                         np.random.default_rng(42))
        with_aux = gumbel_augmented_graph(observed, user_final, item_final,
                                          users, 0.5, 0.5,
                                          np.random.default_rng(42))
        assert not np.allclose(without, with_aux)

    def test_output_finite(self, rng):
        observed = np.zeros((3, 8))
        out = gumbel_augmented_graph(
            observed, rng.normal(size=(3, 4)), rng.normal(size=(8, 4)),
            np.arange(3), 0.5, 0.1, rng)
        assert np.isfinite(out).all()
