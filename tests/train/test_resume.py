"""Checkpoint save -> kill -> resume bit-exactness (ISSUE 5 satellite).

The contract: a training run killed at any epoch boundary and resumed
from its snapshot produces *bit-identical* state to an uninterrupted
run — trained parameters, Adam moments (trainer's and the models'
internal alternating optimizers), the rows each optimizer steps, and
the position of every RNG stream. Verified for KGAT and Firzen, the
two heterogeneous models with internal optimizers and multiple RNG
streams.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.baselines import create_model
from repro.reliability.faults import tear_file
from repro.train import TrainConfig, train_model
from repro.train.fingerprint import training_fingerprint
from repro.train.snapshot import (collect_optimizers, collect_rng_streams,
                                  load_training_snapshot)
from repro.utils.arraydir import MANIFEST_NAME

MODELS = ("KGAT", "Firzen")


class _Killed(Exception):
    pass


def _config(epochs: int = 5) -> TrainConfig:
    return TrainConfig(epochs=epochs, eval_every=2, batch_size=64,
                       learning_rate=0.05, patience=10)


def _fresh(name, dataset):
    return create_model(name, dataset, embedding_dim=16, seed=0)


def _assert_state_equal(left: dict, right: dict, context: str) -> None:
    assert set(left) == set(right), context
    for key in left:
        assert np.array_equal(left[key], right[key]), (context, key)


def _published(snapshot):
    """The one published epoch directory under ``snapshot``."""
    [epoch_dir] = [path for path in snapshot.iterdir()
                   if ".tmp-" not in path.name]
    return epoch_dir


def _edit_header(snapshot, edit) -> None:
    manifest = _published(snapshot) / MANIFEST_NAME
    header = json.loads(manifest.read_text())
    edit(header)
    manifest.write_text(json.dumps(header))


def _add_planner_counters(snapshot) -> None:
    """Give the snapshot header the step planner's trace/replay
    counters, as snapshots written before the planner was removed
    carry them."""
    _edit_header(snapshot, lambda header: header.update(
        planner={"traces": 2, "replays": 40, "fallbacks": 0}))


def _add_schedule_state(snapshot) -> None:
    """Give the snapshot header an LR-schedule position and a learning
    rate per optimizer, as snapshots written while LR schedules existed
    carry them. The stored rate is not the run's, so a restore that
    read it would change the trajectory."""
    def edit(header):
        header["scheduler"] = {"epoch": header["epoch"] + 1, "lr": 0.5}
        for meta in header["optimizers"].values():
            meta["lr"] = 0.5
    _edit_header(snapshot, edit)


@pytest.mark.parametrize("edit_header", (None, _add_planner_counters,
                                         _add_schedule_state),
                         ids=("as_written", "planner_counters",
                              "schedule_state"))
@pytest.mark.parametrize("model_name", MODELS)
def test_kill_resume_bit_exact(model_name, edit_header, tiny_dataset,
                               tmp_path):
    config = _config()

    # Reference: uninterrupted run without any snapshotting.
    reference = _fresh(model_name, tiny_dataset)
    ref_result = train_model(reference, tiny_dataset, config)

    # Uninterrupted run WITH per-epoch snapshots: snapshotting must not
    # perturb the trajectory.
    snapshotted = _fresh(model_name, tiny_dataset)
    snap_result = train_model(snapshotted, tiny_dataset, config,
                              snapshot_path=tmp_path / "full")
    _assert_state_equal(reference.state_dict(), snapshotted.state_dict(),
                        "snapshotting changed the trajectory")
    assert ref_result.losses == snap_result.losses

    # Killed after epoch 1, resumed from the snapshot.
    killed = _fresh(model_name, tiny_dataset)

    def kill_hook(epoch, model):
        if epoch == 1:
            raise _Killed()

    with pytest.raises(_Killed):
        train_model(killed, tiny_dataset, config,
                    snapshot_path=tmp_path / "killed",
                    epoch_hook=kill_hook)

    if edit_header is not None:
        edit_header(tmp_path / "killed")

    resumed = _fresh(model_name, tiny_dataset)
    resumed_epochs = []
    res_result = train_model(
        resumed, tiny_dataset, config, snapshot_path=tmp_path / "killed",
        epoch_hook=lambda epoch, model: resumed_epochs.append(epoch))
    assert resumed_epochs[0] == 2   # resumed, not restarted

    # 1. Trained parameters (and model buffers like Firzen's betas).
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "resumed parameters diverged")
    # 2. Loss curve and validation history.
    assert res_result.losses == ref_result.losses
    assert res_result.val_history == ref_result.val_history
    assert res_result.best_epoch == ref_result.best_epoch
    assert res_result.epochs_run == ref_result.epochs_run
    assert training_fingerprint(resumed, res_result) == \
        training_fingerprint(reference, ref_result)

    # 3. Adam moments, RNG positions: the final snapshots of the two trajectories must be
    #    bit-identical array-for-array and stream-for-stream.
    uninterrupted = load_training_snapshot(tmp_path / "full")
    killed_resumed = load_training_snapshot(tmp_path / "killed")
    assert uninterrupted.header["epoch"] == killed_resumed.header["epoch"]
    assert uninterrupted.header["rngs"] == killed_resumed.header["rngs"]
    assert uninterrupted.header["sampler_rng"] == \
        killed_resumed.header["sampler_rng"]
    assert uninterrupted.header["optimizers"] == \
        killed_resumed.header["optimizers"]
    assert uninterrupted.header["training_state"] == \
        killed_resumed.header["training_state"]
    assert uninterrupted.header["stopper"] == \
        killed_resumed.header["stopper"]
    _assert_state_equal(uninterrupted.arrays, killed_resumed.arrays,
                        "snapshot arrays diverged")

    # 4. Post-training evaluation is identical too.
    from repro.eval import evaluate_model
    ref_eval = evaluate_model(reference, tiny_dataset.split)
    res_eval = evaluate_model(resumed, tiny_dataset.split)
    assert ref_eval.cold == res_eval.cold
    assert ref_eval.warm == res_eval.warm


@pytest.mark.parametrize("model_name", MODELS)
def test_kill_at_every_epoch_boundary(model_name, tiny_dataset, tmp_path):
    """Killing after *any* completed epoch resumes to the same bits."""
    config = _config(epochs=4)
    reference = _fresh(model_name, tiny_dataset)
    train_model(reference, tiny_dataset, config)
    expected = reference.state_dict()

    for kill_epoch in range(3):
        snapshot = tmp_path / f"kill{kill_epoch}"

        def kill_hook(epoch, model, _stop=kill_epoch):
            if epoch == _stop:
                raise _Killed()

        victim = _fresh(model_name, tiny_dataset)
        with pytest.raises(_Killed):
            train_model(victim, tiny_dataset, config,
                        snapshot_path=snapshot, epoch_hook=kill_hook)
        resumed = _fresh(model_name, tiny_dataset)
        train_model(resumed, tiny_dataset, config, snapshot_path=snapshot)
        _assert_state_equal(expected, resumed.state_dict(),
                            f"killed after epoch {kill_epoch}")


def test_snapshot_captures_every_stream_and_optimizer(tiny_dataset):
    """The generic object-graph walk finds Firzen's internal optimizers
    and all its RNG streams (regression guard: a new stream that the
    snapshot misses would silently break resume bit-exactness)."""
    model = _fresh("Firzen", tiny_dataset)
    optimizers = collect_optimizers(model)
    assert "._kg_optimizer" in optimizers
    assert "._disc_optimizer" in optimizers
    streams = collect_rng_streams(model)
    for expected in ("._kg_rng", "._disc_rng", ".rng"):
        assert expected in streams, sorted(streams)
    # dropout + gradient-penalty streams live deeper in the graph
    assert any("_drop_rng" in path for path in streams), sorted(streams)
    assert any("_fd_rng" in path for path in streams), sorted(streams)


def test_training_state_array_values_roundtrip(tiny_dataset, tmp_path):
    """Models may put ndarrays into training_state() (the dynamic-graph
    ablation carries its graph-rebuild features this way); they must
    survive the snapshot bit-for-bit and reach load_training_state on
    resume."""
    from repro.baselines.bpr import BPRModel

    class ArrayStateModel(BPRModel):
        _blob = None
        restored = None

        def on_epoch_end(self, epoch):
            super().on_epoch_end(epoch)
            self._blob = np.full((2, 3), float(epoch))

        def training_state(self):
            state = super().training_state()
            if self._blob is not None:
                state["blob"] = self._blob
            return state

        def load_training_state(self, state):
            super().load_training_state(
                {k: v for k, v in state.items() if k != "blob"})
            if "blob" in state:
                self.restored = state["blob"]
                self._blob = state["blob"]

    config = _config(epochs=3)

    def fresh():
        return ArrayStateModel(tiny_dataset, 16, np.random.default_rng(0))

    reference = fresh()
    train_model(reference, tiny_dataset, config)

    victim = fresh()

    def kill_hook(epoch, model):
        if epoch == 1:
            raise _Killed()

    with pytest.raises(_Killed):
        train_model(victim, tiny_dataset, config,
                    snapshot_path=tmp_path / "a", epoch_hook=kill_hook)
    resumed = fresh()
    train_model(resumed, tiny_dataset, config,
                snapshot_path=tmp_path / "a")
    assert isinstance(resumed.restored, np.ndarray)
    assert np.array_equal(resumed.restored, np.full((2, 3), 1.0))
    assert np.array_equal(resumed._blob, reference._blob)
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "array training state resume")


def test_early_stop_state_survives_resume(tiny_dataset, tmp_path):
    """A run killed after early stopping triggered does not resume into
    extra epochs."""
    config = TrainConfig(epochs=12, eval_every=1, batch_size=64,
                         learning_rate=0.05, patience=1)
    reference = _fresh("BPR", tiny_dataset)
    ref_result = train_model(reference, tiny_dataset, config)
    if ref_result.epochs_run == config.epochs:
        pytest.skip("early stopping did not trigger on this substrate")

    resumed = _fresh("BPR", tiny_dataset)
    snapshot = tmp_path / "stop"
    train_model(resumed, tiny_dataset, config, snapshot_path=snapshot)
    again = _fresh("BPR", tiny_dataset)
    again_result = train_model(again, tiny_dataset, config,
                               snapshot_path=snapshot)
    assert again_result.epochs_run == ref_result.epochs_run
    _assert_state_equal(reference.state_dict(), again.state_dict(),
                        "early-stopped resume")


def test_staged_epoch_is_ignored(tiny_dataset, tmp_path):
    """A staged ``epoch-<n>.tmp-<pid>`` directory (a write killed before
    its rename) next to an older published epoch is never read: resume
    starts from the published epoch and lands on the reference bits."""
    config = _config(epochs=4)
    reference = _fresh("KGAT", tiny_dataset)
    train_model(reference, tiny_dataset, config)

    snapshot = tmp_path / "snap"

    def kill_hook(epoch, model):
        if epoch == 1:
            raise _Killed()

    with pytest.raises(_Killed):
        train_model(_fresh("KGAT", tiny_dataset), tiny_dataset, config,
                    snapshot_path=snapshot, epoch_hook=kill_hook)
    # another process's write of epoch 2, killed before its manifest
    staged = snapshot / "epoch-2.tmp-999999"
    shutil.copytree(snapshot / "epoch-1", staged)
    tear_file(staged)
    assert not (staged / MANIFEST_NAME).exists()

    resumed = _fresh("KGAT", tiny_dataset)
    resumed_epochs = []
    train_model(resumed, tiny_dataset, config, snapshot_path=snapshot,
                epoch_hook=lambda epoch, model: resumed_epochs.append(epoch))
    assert resumed_epochs == [2, 3]
    _assert_state_equal(reference.state_dict(), resumed.state_dict(),
                        "resume beside a staged epoch")


def test_finished_run_leaves_one_epoch(tiny_dataset, tmp_path):
    """Each epoch's publish deletes the older epochs: a finished run
    leaves exactly its last epoch on disk."""
    config = _config(epochs=3)
    snapshot = tmp_path / "snap"
    train_model(_fresh("BPR", tiny_dataset), tiny_dataset, config,
                snapshot_path=snapshot)
    assert [path.name for path in snapshot.iterdir()] == ["epoch-2"]
    assert load_training_snapshot(snapshot).epoch == 2
