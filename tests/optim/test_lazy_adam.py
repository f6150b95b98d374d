"""Row-stepped Adam is bit-identical to dense Adam after every step.

The contract under test: with row-sparse gradients, ``Adam`` updates the
rows the gradient names, applies the zero-gradient update (the
moment-decay drift dense Adam gives every row with state) to the other
rows with state in the same step, and skips rows without state. Every
observation point must be bit-identical to running the dense schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.optim import Adam
from repro.autograd.rowsparse import RowSparseGrad
from repro.autograd.tensor import Tensor

SHAPE = (30, 6)


def make_param(rng, requires_grad=True):
    return Tensor(rng.normal(size=SHAPE), requires_grad=requires_grad)


def sparse_grad(rows, rng):
    rows = np.asarray(rows, dtype=np.int64)
    return RowSparseGrad(rows, rng.normal(size=(len(rows), SHAPE[1])),
                         SHAPE)


def run_pair(schedule, lr=0.05, reads=()):
    """Run the same per-step row schedule through lazy and dense Adam.

    ``schedule`` is a list of row-index lists (the rows with nonzero
    gradient that step; ``None`` means the parameter has no gradient at
    all that step). ``reads`` maps step index -> callback(lazy_param),
    exercising mid-stream observation points.
    """
    rng_init = np.random.default_rng(7)
    init = rng_init.normal(size=SHAPE)

    lazy_p = Tensor(init.copy(), requires_grad=True)
    dense_p = Tensor(init.copy(), requires_grad=True)
    lazy_opt = Adam([lazy_p], lr=lr, sparse=True)
    dense_opt = Adam([dense_p], lr=lr, sparse=False)

    reads = dict(reads)
    for step, rows in enumerate(schedule):
        grad_rng = np.random.default_rng(100 + step)
        if rows is None:
            lazy_p.grad = dense_p.grad = None
        else:
            g = sparse_grad(rows, grad_rng)
            lazy_p.grad = g
            dense_p.grad = g.to_dense()
        lazy_opt.step()
        dense_opt.step()
        if step in reads:
            reads[step](lazy_p)
    return lazy_p, dense_p, lazy_opt, dense_opt


def assert_bit_identical(lazy_p, dense_p, lazy_opt, dense_opt):
    np.testing.assert_array_equal(lazy_p.data, dense_p.data)
    np.testing.assert_array_equal(lazy_opt._m[0], dense_opt._m[0])
    np.testing.assert_array_equal(lazy_opt._v[0], dense_opt._v[0])


class TestStalenessCatchUp:
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_row_untouched_for_k_steps_then_touched(self, k):
        # Row 2 is touched at step 0, idles for k steps while rows 5/6
        # keep training, then is touched again at step k+1.
        schedule = [[2, 5]] + [[5, 6]] * k + [[2, 6]]
        out = run_pair(schedule)
        assert_bit_identical(*out)

    def test_rows_with_mixed_staleness_in_one_catch_up(self):
        # Each row has a different last-touched step and idles for a
        # different number of steps before the final batch names them
        # all.
        schedule = [[0], [1], [2], [3], [4], [0, 1, 2, 3, 4]]
        out = run_pair(schedule)
        assert_bit_identical(*out)

    def test_steps_without_any_gradient_are_skipped(self):
        # Dense Adam `continue`s past a param with grad None — no moment
        # decay happens for those global steps. The row step must not
        # invent them (bias corrections still advance globally).
        schedule = [[1, 2], None, None, [2, 3], None, [1]]
        out = run_pair(schedule)
        assert out[2]._step_count == out[3]._step_count == len(schedule)
        assert_bit_identical(*out)

    def test_never_touched_rows_bitwise_untouched(self):
        lazy_p, dense_p, lazy_opt, dense_opt = run_pair([[3, 4]] * 5)
        untouched = [r for r in range(SHAPE[0]) if r not in (3, 4)]
        # Identical to the dense schedule *and* to the initial values:
        # the dense no-op update on zero-moment rows is exact.
        np.testing.assert_array_equal(lazy_p.data[untouched],
                                      dense_p.data[untouched])
        assert_bit_identical(lazy_p, dense_p, lazy_opt, dense_opt)


class TestObservationPoints:
    def test_full_read_mid_schedule_matches_dense(self):
        captured = {}

        def read(param):
            # state_dict, serving exports and propagation read .data.
            captured["value"] = param.data.copy()

        lazy_p, dense_p, *_ = run_pair(
            [[0, 1], [1, 2], [1]], reads={2: read})
        np.testing.assert_array_equal(captured["value"], dense_p.data)

    def test_gather_mid_schedule_matches_dense(self):
        state = {}

        def read(param):
            state["gathered"] = param.take_rows(np.array([0, 3])).data.copy()

        lazy_p, dense_p, lazy_opt, dense_opt = run_pair(
            [[0, 1], [2, 3], [3]], reads={2: read})
        np.testing.assert_array_equal(state["gathered"],
                                      dense_p.data[[0, 3]])
        assert_bit_identical(lazy_p, dense_p, lazy_opt, dense_opt)

    def test_lr_change_mid_schedule(self):
        lazy_p, dense_p, lazy_opt, dense_opt = run_pair([[0], [0, 1]])
        lazy_opt.lr = 0.5
        dense_opt.lr = 0.5
        g = sparse_grad([0], np.random.default_rng(9))
        lazy_p.grad = g
        dense_p.grad = g.to_dense()
        lazy_opt.step()
        dense_opt.step()
        assert_bit_identical(lazy_p, dense_p, lazy_opt, dense_opt)


class TestLifecycle:
    def test_lazy_hook_installed_only_when_eligible(self):
        rng = np.random.default_rng(0)
        p = make_param(rng)
        bias = Tensor(np.zeros(SHAPE[1]), requires_grad=True)
        stack = Tensor(rng.normal(size=(2, *SHAPE)), requires_grad=True)
        dense = make_param(rng)
        Adam([p, bias, stack], lr=0.05, sparse=True)
        Adam([dense], lr=0.05, sparse=False)
        assert p._lazy  # 2-D: stepped by rows
        assert not bias._lazy  # other ranks are stepped densely
        assert not stack._lazy
        assert not dense._lazy  # the dense reference schedule

    def test_two_optimizers_share_one_parameter(self):
        # Firzen shares embedding tables between the trainer's Adam and
        # the alternating KG optimizer; each keeps its own row state.
        rng = np.random.default_rng(0)
        init = rng.normal(size=SHAPE)
        p = Tensor(init.copy(), requires_grad=True)
        ref = Tensor(init.copy(), requires_grad=True)
        opt_a = Adam([p], lr=0.05, sparse=True)
        opt_b = Adam([p], lr=0.01, sparse=True)
        ref_a = Adam([ref], lr=0.05, sparse=False)
        ref_b = Adam([ref], lr=0.01, sparse=False)
        for step in range(4):
            g = sparse_grad([step % 3, 5], np.random.default_rng(step))
            p.grad = g
            ref.grad = g.to_dense()
            (opt_a if step % 2 == 0 else opt_b).step()
            (ref_a if step % 2 == 0 else ref_b).step()
        np.testing.assert_array_equal(p.data, ref.data)

    def test_interleaved_deferrals_on_shared_row(self):
        # Row 0 gets moments under A, then both optimizers keep stepping
        # *other* rows (each decays row 0 under its own moments) with no
        # reads in between; the per-row update chronology must stay
        # identical to the dense interleaving.
        init = np.random.default_rng(7).normal(size=SHAPE)
        p = Tensor(init.copy(), requires_grad=True)
        ref = Tensor(init.copy(), requires_grad=True)
        opt_a = Adam([p], lr=0.05, sparse=True)
        opt_b = Adam([p], lr=0.01, sparse=True)
        ref_a = Adam([ref], lr=0.05, sparse=False)
        ref_b = Adam([ref], lr=0.01, sparse=False)
        schedule = ([("a", [0, 1])]
                    + [("a", [2]), ("b", [3])] * 10
                    + [("b", [0])])
        for seed, (who, rows) in enumerate(schedule):
            g = sparse_grad(rows, np.random.default_rng(seed))
            p.grad = g
            ref.grad = g.to_dense()
            (opt_a if who == "a" else opt_b).step()
            (ref_a if who == "a" else ref_b).step()
        np.testing.assert_array_equal(p.data, ref.data)


#: (optimizer, rows) per step on one shared parameter: row ``j`` of 1-7
#: idles for ``j`` steps under "a", then a step without a gradient, a
#: step by the second optimizer "b", a dense gradient, and row steps
#: after it.
MIXED_SCHEDULE = ([("a", list(range(8))), ("a", [0])]
                  + [("a", [0, j]) for j in range(1, 8)]
                  + [("a", None), ("b", [0, 9]), ("a", [5]),
                     ("a", "dense"), ("a", [3]), ("b", [1]),
                     ("a", [2, 4]), ("b", [9])])


def test_moments_equal_dense_after_every_step():
    # The moments are read straight from the optimizers, before any
    # read of the parameter: every update of a step, including the
    # zero-gradient ones on idle rows, has landed when step() returns.
    init = np.random.default_rng(7).normal(size=SHAPE)
    p = Tensor(init.copy(), requires_grad=True)
    ref = Tensor(init.copy(), requires_grad=True)
    opts = {"a": Adam([p], lr=0.05, sparse=True),
            "b": Adam([p], lr=0.01, sparse=True)}
    refs = {"a": Adam([ref], lr=0.05, sparse=False),
            "b": Adam([ref], lr=0.01, sparse=False)}
    for seed, (who, rows) in enumerate(MIXED_SCHEDULE):
        rng = np.random.default_rng(seed)
        if rows is None:
            p.grad = ref.grad = None
        elif rows == "dense":
            p.grad = rng.normal(size=SHAPE)
            ref.grad = p.grad.copy()
        else:
            g = sparse_grad(rows, rng)
            p.grad = g
            ref.grad = g.to_dense()
        opts[who].step()
        refs[who].step()
        for name, opt in opts.items():
            np.testing.assert_array_equal(opt._m[0], refs[name]._m[0],
                                          err_msg=f"m of {name}, {seed}")
            np.testing.assert_array_equal(opt._v[0], refs[name]._v[0],
                                          err_msg=f"v of {name}, {seed}")
    np.testing.assert_array_equal(p.data, ref.data)
