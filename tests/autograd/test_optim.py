"""Optimizer behavior tests."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.autograd.optim import Adam, clip_grad_norm


def quadratic_loss(param: Tensor) -> Tensor:
    target = Tensor(np.array([1.0, -2.0, 3.0]))
    diff = param - target
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, [1.0, -2.0, 3.0], atol=1e-3)

    def test_skips_params_without_grad(self):
        used = Tensor(np.zeros(2), requires_grad=True)
        unused = Tensor(np.ones(2), requires_grad=True)
        opt = Adam([used, unused], lr=0.1)
        opt.zero_grad()
        (used * used).sum().backward()
        opt.step()
        np.testing.assert_allclose(unused.data, 1.0)

    def test_first_step_magnitude_bounded_by_lr(self):
        param = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([param], lr=0.1)
        opt.zero_grad()
        quadratic_loss(param).backward()
        opt.step()
        # Adam's bias-corrected first step has magnitude ~lr
        assert np.all(np.abs(param.data) <= 0.1 + 1e-8)


class TestClipGradNorm:
    def test_clips_large_gradients(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        param.grad = np.full(4, 10.0)
        pre = clip_grad_norm([param], max_norm=1.0)
        assert pre > 1.0
        np.testing.assert_allclose(np.linalg.norm(param.grad), 1.0)

    def test_leaves_small_gradients(self):
        param = Tensor(np.zeros(4), requires_grad=True)
        param.grad = np.full(4, 0.01)
        clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, 0.01)
