"""End-to-end: sparse-gradient training is bit-identical to dense.

The acceptance bar for the row-sparse pipeline — trained parameters,
loss curves, and optimizer moments must match the dense schedule
(``REPRO_SPARSE_GRAD=0``) bit for bit, not approximately. Covers the
core models (MSHGL and SAHGL stages via Firzen), LightGCN, and a KG
baseline with an alternating TransR optimizer (KGAT), plus a
moment-level check on a pure embedding-table model (BPR).
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.autograd.optim import Adam, clip_grad_norm
from repro.baselines import create_model
from repro.train import TrainConfig, train_model
from repro.train.sampler import BPRSampler

# Batch 16 on the tiny world keeps gathers well below the table sizes,
# so the row-sparse emission heuristic (gathered*2 <= rows) genuinely
# engages — test_sparse_path_engages asserts it is not vacuous.
QUICK = TrainConfig(epochs=2, eval_every=3, batch_size=16,
                    learning_rate=0.05)


def train_state(name, dataset, monkeypatch, sparse, **kwargs):
    monkeypatch.setenv("REPRO_SPARSE_GRAD", "1" if sparse else "0")
    model = create_model(name, dataset, embedding_dim=16, seed=0, **kwargs)
    result = train_model(model, dataset, QUICK)
    return model.state_dict(), result.losses


# MSHGL and SAHGL are Firzen's two stages: exercising Firzen with MSHGL
# on/off covers both the homogeneous-graph stage and the pure SAHGL
# path, on top of LightGCN and the KG baseline.
CASES = [
    ("BPR", {}),
    ("LightGCN", {}),
    ("KGAT", {"kg_batches": 2, "kg_batch_size": 32}),
    ("Firzen", {}),                      # SAHGL + MSHGL
    ("Firzen", {"use_mshgl": False}),    # SAHGL only
]


@pytest.mark.parametrize("name,kwargs", CASES,
                         ids=["BPR", "LightGCN", "KGAT", "Firzen-MSHGL",
                              "Firzen-SAHGL"])
def test_trained_parameters_bit_identical(tiny_dataset, monkeypatch,
                                          name, kwargs):
    if name == "Firzen":
        from repro.core.config import FirzenConfig
        config = FirzenConfig(embedding_dim=16, kg_batch_size=32, **kwargs)
        kwargs = {"config": config}
    sparse_state, sparse_losses = train_state(name, tiny_dataset,
                                              monkeypatch, True, **kwargs)
    dense_state, dense_losses = train_state(name, tiny_dataset,
                                            monkeypatch, False, **kwargs)
    assert sparse_losses == dense_losses  # bitwise loss curve
    assert sparse_state.keys() == dense_state.keys()
    for key in dense_state:
        np.testing.assert_array_equal(sparse_state[key], dense_state[key],
                                      err_msg=key)


def test_sparse_path_engages(tiny_dataset, monkeypatch):
    """Guard against vacuous parity: with QUICK's batch size the gather
    backward must genuinely emit row-sparse gradients during training
    (otherwise every parity case above just compares dense to dense)."""
    from repro.autograd import rowsparse

    emitted = {"count": 0}
    original = rowsparse.RowSparseGrad.from_gather.__func__

    def counting(cls, *args, **kwargs):
        emitted["count"] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(rowsparse.RowSparseGrad, "from_gather",
                        classmethod(counting))
    monkeypatch.setenv("REPRO_SPARSE_GRAD", "1")
    model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
    train_model(model, tiny_dataset, QUICK)
    assert emitted["count"] > 0


def test_row_sparse_gradients_reach_the_step(tiny_dataset, monkeypatch):
    """The row-sparse path stays sparse through backward, clip and step:
    in the trainer's loop, every optimizer step updates both of BPR's
    embedding tables by rows and none takes the dense update. Set
    explicitly, so the dense CI leg runs it too."""
    # each gather (users, positives, negatives) touches at most half of
    # its table, so every gather backward may emit a row-sparse gradient
    assert 2 * QUICK.batch_size <= min(tiny_dataset.num_users,
                                       tiny_dataset.num_items)
    monkeypatch.setenv("REPRO_SPARSE_GRAD", "1")
    steps = []
    step, row_step, dense_step = Adam.step, Adam._row_step, Adam._dense_step

    def recording_step(self):
        steps.append([])
        step(self)

    def recording_row_step(self, idx, mask, grad):
        steps[-1].append(("rows", idx))
        row_step(self, idx, mask, grad)

    def recording_dense_step(self, idx, grad):
        steps[-1].append(("dense", idx))
        dense_step(self, idx, grad)

    monkeypatch.setattr(Adam, "step", recording_step)
    monkeypatch.setattr(Adam, "_row_step", recording_row_step)
    monkeypatch.setattr(Adam, "_dense_step", recording_dense_step)
    model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
    assert [p.data.ndim for p in model.parameters()] == [2, 2]
    train_model(model, tiny_dataset, QUICK)
    assert len(steps) >= 2 * (len(tiny_dataset.split.train)
                              // QUICK.batch_size)
    for calls in steps:
        assert sorted(calls) == [("rows", 0), ("rows", 1)]


def test_row_stepped_forward_runs_the_dense_forward(tiny_dataset,
                                                    monkeypatch):
    """A gather from a row-stepped table reads the parameter as it is
    (every row update landed in its own step), so BPR's loss makes
    exactly the calls the dense schedule's makes: no per-gather work
    creeps into the sparse forward."""
    batch = tiny_dataset.split.train[:16]

    def forward_calls(sparse):
        monkeypatch.setenv("REPRO_SPARSE_GRAD", "1" if sparse else "0")
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        Adam(model.parameters(), lr=0.05)  # marks the row-stepped tables
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append((frame.f_code.co_filename, frame.f_code.co_name))
            elif event == "c_call":
                calls.append(getattr(arg, "__qualname__", repr(arg)))

        sys.setprofile(profile)
        try:
            model.loss(batch[:, 0], batch[:, 1], batch[::-1, 1])
        finally:
            sys.setprofile(None)
        return calls

    assert forward_calls(sparse=True) == forward_calls(sparse=False)


def test_adam_moments_bit_identical(tiny_dataset, monkeypatch):
    """White-box: the optimizer's m/v buffers — not just the parameters —
    must match the dense schedule after a full training pass."""
    moments = {}
    for sparse in (True, False):
        monkeypatch.setenv("REPRO_SPARSE_GRAD", "1" if sparse else "0")
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        rng = np.random.default_rng(0)
        sampler = BPRSampler(tiny_dataset.split.train,
                             tiny_dataset.num_items,
                             tiny_dataset.split.warm_items, rng)
        optimizer = Adam(model.parameters(), lr=0.05)
        for _ in range(2):
            for users, pos, neg in sampler.epoch_batches(16):
                optimizer.zero_grad()
                model.loss(users, pos, neg).backward()
                clip_grad_norm(optimizer.params, 10.0)
                optimizer.step()
        moments[sparse] = ([m.copy() for m in optimizer._m],
                           [v.copy() for v in optimizer._v])
    for sparse_m, dense_m in zip(moments[True][0], moments[False][0],
                                 strict=True):
        np.testing.assert_array_equal(sparse_m, dense_m)
    for sparse_v, dense_v in zip(moments[True][1], moments[False][1],
                                 strict=True):
        np.testing.assert_array_equal(sparse_v, dense_v)


def test_mid_training_state_dict_is_exact(tiny_dataset, monkeypatch):
    """Snapshots taken mid-epoch (early stopping's best-state capture)
    must equal the dense schedule's snapshot."""
    snaps = {}
    for sparse in (True, False):
        monkeypatch.setenv("REPRO_SPARSE_GRAD", "1" if sparse else "0")
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        rng = np.random.default_rng(0)
        sampler = BPRSampler(tiny_dataset.split.train,
                             tiny_dataset.num_items,
                             tiny_dataset.split.warm_items, rng)
        optimizer = Adam(model.parameters(), lr=0.05)
        taken = None
        for users, pos, neg in sampler.epoch_batches(16):
            optimizer.zero_grad()
            model.loss(users, pos, neg).backward()
            optimizer.step()
            if taken is None:
                taken = model.state_dict()  # mid-epoch
        snaps[sparse] = taken
    for key in snaps[False]:
        np.testing.assert_array_equal(snaps[True][key], snaps[False][key],
                                      err_msg=key)
