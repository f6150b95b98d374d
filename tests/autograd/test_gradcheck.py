"""Finite-difference validation of every differentiable primitive.

Two layers of coverage:

* the per-op classes below — one hand-picked case per primitive;
* :class:`TestPrimitiveGrid` — every primitive ``Tensor.backward``
  sweeps through (``src/repro/autograd/tensor.py``), over a grid of
  random shapes and parameter dtypes, plus the fused KGAT-attention /
  TransR / discriminator kernels and the row-sparse gather paths.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, concat, infonce, sparse_matmul, stack
from repro.autograd import fused
from repro.autograd.nn import (BatchNorm1d, Dropout, LeakyReLU, Linear,
                               Sequential, Sigmoid)
from repro.autograd.rowsparse import RowSparseGrad
from repro.backend import ArrayBackend, active


def numeric_gradient(func, arrays, index, eps=1e-6):
    """Central-difference gradient of sum(func(arrays)) w.r.t. one input."""
    arr = arrays[index]
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = func(*[Tensor(a) for a in arrays]).data.sum()
        flat[i] = orig - eps
        minus = func(*[Tensor(a) for a in arrays]).data.sum()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check(func, *arrays, tol=1e-4):
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = func(*tensors)
    out.sum().backward() if out.data.size > 1 else out.backward()
    for i, t in enumerate(tensors):
        expected = numeric_gradient(func, arrays, i)
        assert t.grad is not None, f"input {i} received no gradient"
        np.testing.assert_allclose(t.grad, expected, atol=tol,
                                   err_msg=f"input {i}")


@pytest.fixture()
def arr(rng):
    return rng.normal(size=(4, 5))


class TestElementwise:
    def test_add(self, rng, arr):
        check(lambda a, b: a + b, arr, rng.normal(size=(4, 5)))

    def test_add_broadcast(self, rng, arr):
        check(lambda a, b: a + b, arr, rng.normal(size=(5,)))

    def test_mul(self, rng, arr):
        check(lambda a, b: a * b, arr, rng.normal(size=(4, 5)))

    def test_sub_scalar_broadcast(self, arr):
        check(lambda a: 1.0 - a, arr)

    def test_div(self, rng, arr):
        check(lambda a, b: a / b, arr, rng.normal(size=(4, 5)) + 3.0)

    def test_pow(self, arr):
        check(lambda a: a ** 3, arr)

    def test_neg(self, arr):
        check(lambda a: -a, arr)


class TestNonlinearities:
    def test_sigmoid(self, arr):
        check(lambda a: a.sigmoid(), arr)

    def test_tanh(self, arr):
        check(lambda a: a.tanh(), arr)

    def test_relu(self, arr):
        check(lambda a: a.relu(), arr + 0.1)  # avoid kink at 0

    def test_leaky_relu(self, arr):
        check(lambda a: a.leaky_relu(0.2), arr + 0.1)

    def test_exp_log(self, arr):
        check(lambda a: (a.exp() + 1.0).log(), arr)

    def test_logsigmoid(self, arr):
        check(lambda a: a.logsigmoid(), arr)

    def test_softmax(self, arr):
        check(lambda a: a.softmax(axis=1), arr)

    def test_sqrt(self, arr):
        check(lambda a: (a * a + 1.0).sqrt(), arr)

    def test_abs(self, arr):
        check(lambda a: a.abs(), arr + 0.1)

    def test_clip_interior(self, arr):
        check(lambda a: a.clip(-10.0, 10.0), arr)


class TestMatrixOps:
    def test_matmul(self, rng):
        check(lambda a, b: a.matmul(b),
              rng.normal(size=(3, 4)), rng.normal(size=(4, 2)))

    def test_matmul_vector(self, rng):
        check(lambda a, b: a.matmul(b),
              rng.normal(size=(3, 4)), rng.normal(size=(4,)))

    def test_transpose(self, arr):
        check(lambda a: a.transpose().matmul(a), arr)

    def test_reshape(self, arr):
        check(lambda a: a.reshape(2, 10).sum(axis=0), arr)


class TestReductions:
    def test_sum_all(self, arr):
        check(lambda a: a.sum(), arr)

    def test_sum_axis(self, arr):
        check(lambda a: a.sum(axis=0), arr)

    def test_sum_keepdims(self, arr):
        check(lambda a: a.sum(axis=1, keepdims=True) * a, arr)

    def test_mean(self, arr):
        check(lambda a: a.mean(axis=1), arr)

    def test_max(self, rng):
        # distinct values so the argmax is stable under perturbation
        base = rng.permutation(20).reshape(4, 5).astype(float)
        check(lambda a: a.max(axis=1), base)

    def test_norm(self, arr):
        check(lambda a: a.norm(axis=1), arr)

    def test_normalize(self, arr):
        check(lambda a: a.normalize(axis=1), arr)


class TestIndexing:
    def test_getitem(self, arr):
        check(lambda a: a[1:3], arr)

    def test_take_rows_with_duplicates(self, arr):
        check(lambda a: a.take_rows([0, 0, 2, 3]), arr)

    def test_fancy_index_pairs(self, arr):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 3, 0])
        check(lambda a: a[(rows, cols)], arr)


class TestCombinators:
    def test_concat(self, rng):
        check(lambda a, b: concat([a, b], axis=1),
              rng.normal(size=(3, 2)), rng.normal(size=(3, 4)))

    def test_stack(self, rng):
        check(lambda a, b: stack([a, b], axis=0).sum(axis=0),
              rng.normal(size=(3, 2)), rng.normal(size=(3, 2)))

    def test_sparse_matmul(self, rng):
        matrix = sp.random(6, 4, density=0.5, random_state=3, format="csr")
        check(lambda x: sparse_matmul(matrix, x).tanh(),
              rng.normal(size=(4, 3)))

    def test_infonce(self, rng):
        check(lambda a, b: infonce(a, b),
              rng.normal(size=(5, 4)), rng.normal(size=(5, 4)))

# ---------------------------------------------------------------------------
# shape/dtype grid over every differentiable primitive
# ---------------------------------------------------------------------------

def _dense(grad):
    if isinstance(grad, RowSparseGrad):
        return grad.to_dense()
    return grad


def check_typed(func, arrays, dtype, tol):
    """Analytic gradient at ``dtype`` vs float64 central differences.

    The float64 numeric gradient is the reference for both dtypes; the
    float32 tolerance absorbs that path's own rounding.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [Tensor(a.astype(dtype), requires_grad=True) for a in arrays]
    out = func(*tensors)
    assert out.data.dtype == np.dtype(dtype)
    out.sum().backward() if out.data.size > 1 else out.backward()
    for i, t in enumerate(tensors):
        expected = numeric_gradient(func, arrays, i)
        if t.grad is None:
            # An op is free to ignore an operand entirely — then the
            # numeric gradient must agree that it's zero.
            np.testing.assert_allclose(expected, 0.0, atol=tol,
                                       err_msg=f"input {i} ({dtype})")
            continue
        got = np.asarray(_dense(t.grad), dtype=np.float64)
        np.testing.assert_allclose(got, expected, atol=tol, rtol=tol,
                                   err_msg=f"input {i} ({dtype})")


#: (name, op over (a, b), needs) — `a` is the shaped grid input,
#: `b` a second operand shaped like `a`'s last axis
GRID_OPS = [
    ("add", lambda a, b: a + b),
    ("mul", lambda a, b: a * b),
    ("div", lambda a, b: a / (b * b + 1.0)),
    ("neg_sub", lambda a, b: -(a - b)),
    ("pow3", lambda a, b: a ** 3),
    ("relu", lambda a, b: (a + 0.1).relu()),
    ("leaky_relu", lambda a, b: (a + 0.1).leaky_relu(0.2)),
    ("sigmoid", lambda a, b: a.sigmoid()),
    ("tanh", lambda a, b: a.tanh()),
    ("exp_log", lambda a, b: (a.exp() + 1.0).log()),
    ("logsigmoid", lambda a, b: a.logsigmoid()),
    ("sqrt", lambda a, b: (a * a + 1.0).sqrt()),
    ("abs", lambda a, b: (a + 0.1).abs()),
    ("clip", lambda a, b: a.clip(-10.0, 10.0)),
    ("sum", lambda a, b: a.sum()),
    ("sum_axis0", lambda a, b: a.sum(axis=0)),
    ("mean_last", lambda a, b: a.mean(axis=-1)),
    ("reshape", lambda a, b: a.reshape(-1)),
    ("getitem", lambda a, b: a[1:]),
]

SHAPES = [(6,), (3, 4), (2, 3, 4)]
DTYPES = {np.float64: 1e-4, np.float32: 2e-3}


class TestPrimitiveGrid:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("name,op", GRID_OPS, ids=[n for n, _ in GRID_OPS])
    def test_op(self, name, op, shape, dtype, rng):
        a = rng.normal(size=shape)
        b = rng.normal(size=shape[-1:])
        check_typed(op, [a, b], dtype, DTYPES[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matmul_2d(self, dtype, rng):
        check_typed(lambda a, b: a.matmul(b),
                    [rng.normal(size=(3, 5)), rng.normal(size=(5, 2))],
                    dtype, DTYPES[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_softmax_norm_2d(self, dtype, rng):
        check_typed(lambda a, b: a.softmax(axis=1) + a.normalize(axis=1),
                    [rng.normal(size=(4, 3)), rng.normal(size=(3,))],
                    dtype, DTYPES[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_concat_stack(self, dtype, rng):
        check_typed(lambda a, b: concat([a, stack([b, b], axis=0)], axis=0),
                    [rng.normal(size=(2, 4)), rng.normal(size=(4,))],
                    dtype, DTYPES[dtype])

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_take_rows_rowsparse_path(self, dtype, rng):
        """Duplicate gathers from one table: the row-sparse gradient
        representation (kept sparse through ``concat``'s
        ``accepts_sparse`` closure) must densify to the exact
        scatter-add a dense path would produce."""
        idx_a = np.array([0, 2, 2, 4])
        idx_b = np.array([4, 1])
        check_typed(
            lambda t, b: concat([t.take_rows(idx_a), t.take_rows(idx_b)],
                                axis=0),
            [rng.normal(size=(5, 3)), rng.normal(size=(3,))],
            dtype, DTYPES[dtype])


#: (heads, tails) per relation. The first layout puts relation 0 on
#: row gathers (3 x 4 distinct rows > 2 x 4 triplets) and relation 1 on
#: the pair GEMM, with head 0's softmax spanning both. The second
#: repeats (relation, tail) pairs, puts the (head, tail) pair (0, 3)
#: under both relations (two entries in one message-CSR cell), and
#: again has one relation with ``U_h * U_t > k * T_r``.
ATTENTION_LAYOUTS = {
    "both-branches": [
        (np.array([0, 0, 1, 2]), np.array([1, 2, 0, 3])),
        (np.array([3, 0]), np.array([0, 1])),
    ],
    "duplicates": [
        (np.array([0, 1, 2, 2, 4]), np.array([3, 3, 0, 1, 2])),
        (np.array([0, 3, 4]), np.array([3, 3, 1])),
    ],
}


class TestFusedKernelGradcheck:
    """Finite differences through the fused KGAT kernels themselves —
    the largest single closures in any backward sweep."""

    @pytest.fixture(params=list(ATTENTION_LAYOUTS))
    def _plan(self, request):
        return fused.RelationPlan(ATTENTION_LAYOUTS[request.param],
                                  num_nodes=5, relation_dim=2)

    def test_plan_takes_both_sddmm_branches(self, _plan):
        branches = [pick is not None for *_, pick in _plan.steps]
        assert branches == [False, True]

    def test_attention_message(self, rng, _plan):
        check(lambda nodes, w, e: fused.attention_message(
                  nodes, w, e, _plan),
              rng.normal(size=(5, 3)), rng.normal(size=(2, 3, 2)),
              rng.normal(size=(2, 2)))

    def test_transr_scores(self, rng):
        # (head 0, relation 0) appears twice.
        heads = np.array([0, 3, 1, 2, 0])
        relations = np.array([0, 1, 0, 1, 0])
        tails = np.array([2, 1, 4, 0, 3])
        check(lambda e, w0, w1, r: fused.transr_scores(
                  e, [w0, w1], r, heads, relations, tails),
              rng.normal(size=(5, 3)), rng.normal(size=(3, 2)),
              rng.normal(size=(3, 2)), rng.normal(size=(2, 2)))

    @pytest.mark.parametrize("training", [True, False],
                             ids=["train", "eval"])
    @pytest.mark.parametrize("form", ["rows", "factored"])
    def test_discriminator_pass(self, rng, form, training):
        network = Sequential(Linear(6, 4, rng), LeakyReLU(0.2),
                             BatchNorm1d(4), Dropout(0.2, rng),
                             Linear(4, 1, rng), Sigmoid())
        bn = network.layers[2]
        bn.running_mean = rng.normal(scale=0.1, size=4)
        bn.running_var = rng.uniform(0.5, 1.5, size=4)
        if not training:
            network.eval()
        # One mask for every pass; the batch statistics, not the
        # running ones the passes update, normalize in training mode.
        mask = fused.discriminator_mask(network, 5)
        owners = [(0, "weight"), (0, "bias"), (2, "gamma"), (2, "beta"),
                  (4, "weight"), (4, "bias")]
        inputs = ([rng.normal(size=(5, 6))] if form == "rows"
                  else [rng.normal(size=(5, 3)), rng.normal(size=(6, 3))])
        params = [getattr(network.layers[i], name).data
                  for i, name in owners]

        def run(*tensors):
            split = len(inputs)
            for (i, name), param in zip(owners, tensors[split:]):
                setattr(network.layers[i], name, param)
            return fused.discriminator_pass(network, *tensors[:split],
                                            mask=mask)

        check(run, *inputs, *params)


class TestGraphStructure:
    def test_gradient_accumulates_across_uses(self, rng):
        a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        out = (a * 2.0).sum() + (a * 3.0).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full((3, 3), 5.0))

    def test_detach_blocks_gradient(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = (a.detach() * a).sum()
        out.backward()
        # gradient only through the non-detached factor
        np.testing.assert_allclose(a.grad, a.data)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.ones(4), requires_grad=True)
        x = a
        for _ in range(2000):
            x = x * 1.0
        x.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones(4))

    @pytest.mark.parametrize("x_requires_grad, calls",
                             [(False, 1), (True, 2)])
    def test_matmul_backward_skips_a_constant_operand(
            self, rng, monkeypatch, x_requires_grad, calls):
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=x_requires_grad)
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
        out = (x @ w).sum()
        shapes = []
        original = ArrayBackend.matmul

        def counting(self, a, b):
            shapes.append(a.shape)
            return original(self, a, b)

        monkeypatch.setattr(type(active()), "matmul", counting)
        out.backward()
        assert len(shapes) == calls
        np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((4, 2)))
        assert (x.grad is not None) == x_requires_grad

    def test_elementwise_backward_skips_constant_operands(self, rng):
        w = Tensor(rng.normal(size=(3,)), requires_grad=True)
        c = Tensor(rng.normal(size=(3,)) + 3.0)
        for op in (lambda a, b: a + b, lambda a, b: a - b,
                   lambda a, b: a * b, lambda a, b: a / b):
            for left, right in ((w, c), (c, w)):
                grads = op(left, right)._backward(np.ones(3))
                assert [g is None for g in grads] == [left is c, right is c]

    def test_backward_requires_scalar(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(ValueError):
            a.backward()
