"""Generic training loop shared by every model in the comparison.

Implements the paper's optimization scheme: Adam at a constant learning
rate, BPR batches with uniform negative sampling, optional alternating
auxiliary step (KG representation loss), validation-based early stopping
on harmonic-mean recall with best-state restoration.

Training is resumable: pass ``snapshot_path`` and the loop publishes a
full training-state snapshot (:mod:`repro.train.snapshot`) after every
epoch; a later call with the same arguments restores the newest and
continues the run **bit-exactly** — parameters, optimizer moments, RNG
positions, and every downstream metric are identical to an
uninterrupted run.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..autograd.optim import Adam, clip_grad_norm
from ..data.datasets import RecDataset
from ..eval.protocol import evaluate_model
from ..reliability import fire
from .early_stopping import EarlyStopping
from .sampler import BPRSampler

#: global gradient-norm bound applied before every optimizer step
GRAD_CLIP = 10.0


@dataclass
class TrainConfig:
    """Hyperparameters of the shared training loop: Adam at a constant
    learning rate, with the gradient norm clipped to :data:`GRAD_CLIP`."""

    epochs: int = 30
    batch_size: int = 512
    learning_rate: float = 0.01
    eval_every: int = 5
    patience: int = 3
    eval_k: int = 20
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "eval_every", "patience",
                     "eval_k"):
            value = getattr(self, name)
            if not value >= 1:
                raise ValueError(f"{name} must be at least 1, got {value!r}")
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be positive, got "
                             f"{self.learning_rate!r}")


@dataclass
class TrainResult:
    """Loss curve and timing info returned by :func:`train_model`."""

    losses: list = field(default_factory=list)
    val_history: list = field(default_factory=list)
    best_epoch: int = -1
    train_seconds: float = 0.0
    epochs_run: int = 0


def _monitor_value(model, dataset: RecDataset, config: TrainConfig) -> float:
    result = evaluate_model(model, dataset.split, k=config.eval_k,
                            use_validation=True)
    # Harmonic-mean recall, with a small warm-side floor so models that are
    # all-zero on one side still get ordered by the other.
    hm = result.hm.recall
    if hm == 0.0:
        return 0.01 * (result.warm.recall + result.cold.recall)
    return hm


def train_model(model, dataset: RecDataset,
                config: TrainConfig | None = None, *,
                snapshot_path: str | Path | None = None,
                epoch_hook=None) -> TrainResult:
    """Train ``model`` on ``dataset`` and restore its best validation state.

    Parameters
    ----------
    snapshot_path:
        Directory the training-state snapshot of every epoch is
        published in. When it holds a published epoch the run continues
        from the newest instead of starting over; the resumed trajectory
        is bit-identical to an uninterrupted run.
    epoch_hook:
        Optional ``hook(epoch, model)`` called after each epoch's
        snapshot point; exceptions propagate (tests use this to simulate
        a kill).
    """
    config = config or TrainConfig()
    rng = np.random.default_rng(config.seed)
    sampler = BPRSampler(dataset.split.train, dataset.num_items,
                         dataset.split.warm_items, rng)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    stopper = EarlyStopping(patience=config.patience)
    result = TrainResult()
    best_state = None
    start_epoch = 0

    snapshot = None
    if snapshot_path is not None:
        from .snapshot import CorruptSnapshotError, \
            load_training_snapshot, restore_training_snapshot
        try:
            snapshot = load_training_snapshot(snapshot_path)
        except CorruptSnapshotError as exc:
            # Graceful degradation: a damaged snapshot is treated as no
            # snapshot. Training is deterministic, so restarting from
            # scratch still converges to the bit-identical trajectory —
            # it just costs the lost epochs again.
            import warnings
            warnings.warn(f"ignoring corrupt training snapshot: {exc}",
                          RuntimeWarning, stacklevel=2)
            shutil.rmtree(snapshot_path)
    if snapshot is not None:
        best_state = restore_training_snapshot(
            snapshot, model, optimizer=optimizer, sampler_rng=rng,
            stopper=stopper, result=result)
        start_epoch = snapshot.epoch + 1

    base_seconds = result.train_seconds
    start = time.perf_counter()
    for epoch in range(start_epoch, config.epochs):
        if stopper.should_stop:  # resumed into an already-stopped run
            break
        model.train()
        model.invalidate()
        epoch_loss = 0.0
        num_batches = 0
        for users, pos, neg in sampler.epoch_batches(config.batch_size):
            optimizer.zero_grad()
            loss = model.loss(users, pos, neg)
            loss.backward()
            clip_grad_norm(optimizer.params, GRAD_CLIP)
            optimizer.step()
            epoch_loss += loss.item()
            num_batches += 1
        model.extra_step()
        model.on_epoch_end(epoch)
        result.losses.append(epoch_loss / max(num_batches, 1))
        result.epochs_run = epoch + 1

        if (epoch + 1) % config.eval_every == 0 or epoch == config.epochs - 1:
            model.eval()
            model.invalidate()
            value = _monitor_value(model, dataset, config)
            result.val_history.append((epoch, value))
            if config.verbose:
                print(f"[{model.name}] epoch {epoch + 1}: "
                      f"loss={result.losses[-1]:.4f} val={value:.4f}")
            if stopper.update(value, epoch):
                best_state = model.state_dict()

        if snapshot_path is not None:
            from .snapshot import save_training_snapshot
            result.train_seconds = base_seconds + (
                time.perf_counter() - start)
            save_training_snapshot(
                snapshot_path, model, optimizer=optimizer,
                sampler_rng=rng, stopper=stopper, result=result,
                epoch=epoch, best_state=best_state)
        # Injection seam: a "crash" here simulates a kill right after
        # the epoch's snapshot landed — the canonical point the chaos
        # suite interrupts at to prove resume is bit-exact.
        fire("train.epoch.end")
        if epoch_hook is not None:
            epoch_hook(epoch, model)
        if stopper.should_stop:
            break

    if best_state is not None:
        model.load_state_dict(best_state)
    result.best_epoch = stopper.best_epoch
    result.train_seconds = base_seconds + (time.perf_counter() - start)
    model.eval()
    model.invalidate()
    return result
