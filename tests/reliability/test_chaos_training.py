"""Chaos suite for training: injected kills at every snapshot boundary
must resume bit-exactly; corrupt snapshots degrade to a clean restart.

Builds on the resume machinery proven in tests/train/test_resume.py,
but drives the kills through fault plans (the ``train.epoch.end`` and
``train.snapshot.write`` seams) instead of a cooperative epoch hook —
an injected :class:`InjectedCrash` is a ``BaseException``, so nothing
in the trainer's recovery paths can accidentally absorb it.
"""

from __future__ import annotations

import errno
import json

import numpy as np
import pytest

from repro.baselines import create_model
from repro.reliability import FaultPlan, FaultSpec, InjectedCrash, inject
from repro.train import TrainConfig, train_model
from repro.train.fingerprint import training_fingerprint
from repro.train.snapshot import CorruptSnapshotError, \
    load_training_snapshot
from repro.utils.arraydir import MANIFEST_NAME


def _config(epochs: int = 4) -> TrainConfig:
    return TrainConfig(epochs=epochs, eval_every=2, batch_size=64,
                       learning_rate=0.05, patience=10)


def _fresh(dataset, name="BPR"):
    return create_model(name, dataset, embedding_dim=16, seed=0)


def _assert_state_equal(left: dict, right: dict, context: str) -> None:
    assert set(left) == set(right), context
    for key in left:
        assert np.array_equal(left[key], right[key]), (context, key)


def test_injected_kill_at_every_epoch_boundary_resumes_bit_exact(
        tiny_dataset, tmp_path):
    """The tentpole guarantee: for every snapshot boundary, a scripted
    crash there + resume lands on the reference run's exact bits."""
    config = _config(epochs=4)
    reference = _fresh(tiny_dataset)
    ref_result = train_model(reference, tiny_dataset, config)
    expected_fp = training_fingerprint(reference, ref_result)

    for kill_epoch in range(1, config.epochs):
        snapshot = tmp_path / f"kill{kill_epoch}"
        plan = FaultPlan(
            [FaultSpec(op="train.epoch.end", kind="crash",
                       at=kill_epoch)],
            name=f"kill-after-epoch-{kill_epoch}")
        victim = _fresh(tiny_dataset)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                train_model(victim, tiny_dataset, config,
                            snapshot_path=snapshot)
        assert [e[1:3] for e in plan.event_log()] == \
            [("train.epoch.end", "crash")]

        # "new process": fresh model objects, resume from the snapshot
        resumed = _fresh(tiny_dataset)
        res_result = train_model(resumed, tiny_dataset, config,
                                 snapshot_path=snapshot)
        _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                            f"kill after epoch {kill_epoch}")
        assert res_result.losses == ref_result.losses
        resumed_fp = training_fingerprint(resumed, res_result)
        assert resumed_fp["combined"] == expected_fp["combined"], \
            f"fingerprint diverged after kill at epoch {kill_epoch}"


def test_same_fault_seed_reproduces_identical_failure_sequence(
        tiny_dataset, tmp_path):
    """Acceptance criterion: replaying the same plan over the same run
    produces the identical event log."""
    config = _config(epochs=3)

    def one_run(tag):
        plan = FaultPlan([FaultSpec(op="train.epoch.end", kind="crash",
                                    at=2)], seed=1234, name="replay")
        victim = _fresh(tiny_dataset)
        with inject(plan):
            with pytest.raises(InjectedCrash):
                train_model(victim, tiny_dataset, config,
                            snapshot_path=tmp_path / f"{tag}")
        return plan.event_log()

    assert one_run("first") == one_run("second")


def test_kill_during_snapshot_write_keeps_previous_snapshot(
        tiny_dataset, tmp_path):
    """A torn snapshot *write* may not damage the previous snapshot:
    each epoch is staged and renamed into its own directory, and older
    epochs go only after that, so resume restarts from the last
    published epoch."""
    config = _config(epochs=3)
    snapshot = tmp_path / "snap"
    # epoch 1's snapshot lands, epoch 2's write is killed mid-file
    plan = FaultPlan([FaultSpec(op="train.snapshot.write", kind="torn",
                                at=2)], name="torn-snapshot-write")
    victim = _fresh(tiny_dataset)
    with inject(plan):
        with pytest.raises(InjectedCrash):
            train_model(victim, tiny_dataset, config,
                        snapshot_path=snapshot)
    # previous snapshot intact and loadable: epoch 0-indexed 0
    loaded = load_training_snapshot(snapshot)
    assert loaded.epoch == 0
    # and resume completes to the reference bits
    reference = _fresh(tiny_dataset)
    train_model(reference, tiny_dataset, config)
    resumed = _fresh(tiny_dataset)
    train_model(resumed, tiny_dataset, config, snapshot_path=snapshot)
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "resume after torn snapshot write")


def test_corrupt_snapshot_raises_structured_error(tiny_dataset, tmp_path):
    config = _config(epochs=2)
    snapshot = tmp_path / "snap"
    model = _fresh(tiny_dataset)
    train_model(model, tiny_dataset, config, snapshot_path=snapshot)
    # tear an array of the published snapshot itself (bit rot / partial
    # copy)
    from repro.reliability.faults import tear_file
    tear_file(snapshot / "epoch-1" / "model.user_emb.weight.npy",
              keep_fraction=0.4)
    with pytest.raises(CorruptSnapshotError) as info:
        load_training_snapshot(snapshot)
    assert str(snapshot / "epoch-1") in str(info.value)
    assert isinstance(info.value, ValueError)  # back-compat


def test_trainer_degrades_gracefully_on_corrupt_snapshot(
        tiny_dataset, tmp_path):
    """A damaged snapshot is treated as no snapshot: the trainer warns,
    restarts from scratch, and (being deterministic) still produces the
    reference bits."""
    config = _config(epochs=3)
    reference = _fresh(tiny_dataset)
    ref_result = train_model(reference, tiny_dataset, config)

    snapshot = tmp_path / "snap"
    victim = _fresh(tiny_dataset)
    plan = FaultPlan([FaultSpec(op="train.epoch.end", kind="crash",
                                at=1)])
    with inject(plan):
        with pytest.raises(InjectedCrash):
            train_model(victim, tiny_dataset, config,
                        snapshot_path=snapshot)
    from repro.reliability.faults import tear_file
    tear_file(snapshot / "epoch-0" / MANIFEST_NAME, keep_fraction=0.3)

    resumed = _fresh(tiny_dataset)
    with pytest.warns(RuntimeWarning, match="corrupt training snapshot"):
        res_result = train_model(resumed, tiny_dataset, config,
                                 snapshot_path=snapshot)
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "restart after corrupt snapshot")
    assert res_result.losses == ref_result.losses


def test_transient_snapshot_read_fault_is_not_swallowed(
        tiny_dataset, tmp_path):
    """An injected transient *read* error is not corruption: it must
    surface (the runner's retry layer handles it), not silently restart
    training from scratch."""
    config = _config(epochs=2)
    snapshot = tmp_path / "snap"
    model = _fresh(tiny_dataset)
    train_model(model, tiny_dataset, config, snapshot_path=snapshot)

    plan = FaultPlan([FaultSpec(op="train.snapshot.read", kind="error")])
    fresh = _fresh(tiny_dataset)
    with inject(plan):
        with pytest.raises(OSError):
            train_model(fresh, tiny_dataset, config,
                        snapshot_path=snapshot)


def test_array_read_error_is_not_corruption(tiny_dataset, tmp_path,
                                            monkeypatch):
    """An OSError such as EIO inside the array read is not corruption:
    it reaches the caller, and the snapshot stays on disk for the next
    attempt instead of being deleted for a restart from scratch."""
    config = _config(epochs=2)
    snapshot = tmp_path / "snap"
    train_model(_fresh(tiny_dataset), tiny_dataset, config,
                snapshot_path=snapshot)

    def failing_load(*args, **kwargs):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr(np, "load", failing_load)
    with pytest.raises(OSError) as info:
        train_model(_fresh(tiny_dataset), tiny_dataset, config,
                    snapshot_path=snapshot)
    assert info.value.errno == errno.EIO
    assert not isinstance(info.value, CorruptSnapshotError)
    monkeypatch.undo()
    assert load_training_snapshot(snapshot).epoch == 1


def test_malformed_manifest_is_corrupt(tiny_dataset, tmp_path):
    """A manifest without a field the restore reads is a corrupt
    snapshot naming its path, and the trainer restarts from scratch to
    the reference bits."""
    config = _config(epochs=3)
    reference = _fresh(tiny_dataset)
    train_model(reference, tiny_dataset, config)

    snapshot = tmp_path / "snap"
    plan = FaultPlan([FaultSpec(op="train.epoch.end", kind="crash",
                                at=2)])
    with inject(plan):
        with pytest.raises(InjectedCrash):
            train_model(_fresh(tiny_dataset), tiny_dataset, config,
                        snapshot_path=snapshot)
    manifest = snapshot / "epoch-1" / MANIFEST_NAME
    header = json.loads(manifest.read_text())
    del header["optimizers"]
    manifest.write_text(json.dumps(header))

    with pytest.raises(CorruptSnapshotError,
                       match="without optimizers") as info:
        load_training_snapshot(snapshot)
    assert str(snapshot / "epoch-1") in str(info.value)
    resumed = _fresh(tiny_dataset)
    with pytest.warns(RuntimeWarning, match="corrupt training snapshot"):
        train_model(resumed, tiny_dataset, config, snapshot_path=snapshot)
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "restart after a malformed manifest")
