"""Trained state on disk: epoch snapshots and model checkpoints.

A checkpoint stores a model's parameters — enough to *evaluate* a
trained model, not enough to *continue training* it: the optimizer
moments and every random-number stream would restart from scratch and
the resumed trajectory would diverge from an uninterrupted one.

A training snapshot captures, at an epoch boundary, everything the next
epoch's floating-point sequence depends on:

* the model's ``state_dict`` (parameters plus model-owned buffers such
  as Firzen's fusion betas);
* every Adam driving the model — the trainer's plus any the model
  owns internally (Firzen's alternating TransR and discriminator Adams)
  — with step counts and moment buffers. Every row-sparse step is
  applied when it is taken, so the buffers are complete; on restore
  each row-stepped parameter recovers its mask of rows with moments
  from the buffers, which is the exact condition under which a
  zero-gradient row update is not a no-op;
* the position of every random-number stream: the trainer's sampler
  generator and each generator reachable from the model (dropout
  streams, KG negative sampling, discriminator batches, ...);
* batch-norm running statistics (not parameters, not in state_dict);
* model-declared training state (:meth:`Module.training_state`);
* the early-stopping state, the loss/val history accumulated so far,
  and the best-validation parameter snapshot.

The learning rates are not state: each optimizer keeps the constant
rate it was built with, and manifest keys this module does not read
are ignored.

Both are array directories (:mod:`repro.utils.arraydir`): one ``.npy``
per array under its key (``model.<param>``, ``best.<param>``,
``opt.<path>.m<i>``, ...) and a ``manifest.json`` with the rest. A
checkpoint holds only the ``model.*`` arrays plus the fields its writer
records. A snapshot path is a directory of epochs: each epoch is
published as ``epoch-<n>/`` (staged as ``epoch-<n>.tmp-<pid>``, renamed
into place) before the older epochs are deleted, so a kill at any
moment leaves the last published epoch loadable; a staged directory is
never read. What the array-directory readers reject — a torn or
missing array, a missing or unreadable manifest, one without a field
the restore reads — raises :class:`CorruptSnapshotError`, which the
trainer treats as "no snapshot": it restarts from scratch,
deterministically, so the rerun is still bit-exact. Any other read
error (``EIO``) propagates and leaves the snapshot on disk.
"""

from __future__ import annotations

import dataclasses
import shutil
from pathlib import Path

import numpy as np

from ..autograd.nn import BatchNorm1d, Module
from ..autograd.optim import Adam
from ..reliability import fire
from ..utils.arraydir import (ArrayDirWriter, check_fields, read_array,
                              read_manifest)


class CorruptSnapshotError(ValueError):
    """A snapshot or checkpoint directory is torn, damaged, or not one.

    Raised with the offending path by the array-directory readers."""

#: the manifest's ``version``; the experiment runner folds it into its
#: train-stage content address, so no older layout is ever read
FORMAT_VERSION = 2

#: manifest key -> kind, for every snapshot and checkpoint
_MANIFEST_KINDS = {"version": int, "model_class": str, "arrays": list}

#: further manifest keys :func:`restore_training_snapshot` reads
_SNAPSHOT_KINDS = {"epoch": int, "optimizers": dict, "rngs": dict,
                   "sampler_rng": dict, "stopper": dict, "result": dict,
                   "training_state": dict}

#: key used for the trainer-owned optimizer (model-owned optimizers are
#: keyed by their attribute path, e.g. ``._kg_optimizer``)
TRAINER_OPTIMIZER = "@trainer"

#: manifest placeholder for a training-state value stored as an array
ARRAY_MARKER = "__array__"


# ---------------------------------------------------------------------------
# object-graph discovery
# ---------------------------------------------------------------------------

def _children(obj):
    """Deterministic (name, child) pairs of one container level."""
    if isinstance(obj, Module):
        return [(f".{k}", v) for k, v in obj.__dict__.items()]
    if isinstance(obj, dict):
        return [(f"[{k}]", v) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [(f"[{i}]", v) for i, v in enumerate(obj)]
    return []


def _walk(obj, kinds: tuple, prefix: str = "", seen: set | None = None):
    """Yield ``(path, leaf)`` for every instance of ``kinds`` reachable
    through Modules / dicts / lists / tuples, in deterministic order.

    The traversal order (and therefore each leaf's path) depends only on
    attribute insertion order, which is fixed by the model's
    construction code — so paths match across processes.
    """
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    for name, child in _children(obj):
        path = prefix + name
        if isinstance(child, kinds) and id(child) not in seen:
            seen.add(id(child))
            yield path, child
        if isinstance(child, (Module, dict, list, tuple)):
            yield from _walk(child, kinds, path, seen)


def collect_rng_streams(model: Module) -> dict[str, np.random.Generator]:
    """Every random generator reachable from ``model``, by path."""
    return dict(_walk(model, (np.random.Generator,)))


def collect_optimizers(model: Module) -> dict[str, Adam]:
    """Every optimizer the model owns internally, by path."""
    return dict(_walk(model, (Adam,)))


def collect_batchnorms(model: Module) -> dict[str, BatchNorm1d]:
    """Every batch-norm layer (running statistics live outside
    ``state_dict``), by path."""
    return dict(_walk(model, (BatchNorm1d,)))


# ---------------------------------------------------------------------------
# optimizer state
# ---------------------------------------------------------------------------

def _optimizer_meta(opt: Adam) -> dict:
    return {"type": type(opt).__name__, "step_count": opt._step_count}


def _optimizer_arrays(opt: Adam, prefix: str,
                      arrays: dict[str, np.ndarray]) -> None:
    for i, (m, v) in enumerate(zip(opt._m, opt._v)):
        arrays[f"{prefix}.m{i}"] = m
        arrays[f"{prefix}.v{i}"] = v


def _load_optimizer(opt: Adam, meta: dict, prefix: str, archive) -> None:
    if meta["type"] != type(opt).__name__:
        raise ValueError(f"snapshot optimizer {prefix!r} is a "
                         f"{meta['type']}, not a {type(opt).__name__}")
    opt._step_count = int(meta["step_count"])
    for name, buffer_list in (("m", opt._m), ("v", opt._v)):
        for i, buf in enumerate(buffer_list):
            stored = archive[f"{prefix}.{name}{i}"]
            if stored.shape != buf.shape:
                raise ValueError(
                    f"snapshot optimizer buffer {prefix}.{name}{i} has "
                    f"shape {stored.shape}, expected {buf.shape}")
            buf[...] = stored
    # The masks of rows with state are recovered from the restored
    # buffers before each parameter's next row step.
    opt._stale.update(i for i, mask in enumerate(opt._masks)
                      if mask is not None)


# ---------------------------------------------------------------------------
# array directories
# ---------------------------------------------------------------------------

def _publish(path: Path, arrays: dict[str, np.ndarray],
             manifest: dict) -> Path:
    with ArrayDirWriter(path, "train.snapshot.write") as writer:
        for name, array in arrays.items():
            writer.add_array(name, array)
        return writer.commit({**manifest, "version": FORMAT_VERSION,
                              "arrays": writer.names})


class TrainingSnapshot:
    """A loaded snapshot or checkpoint: the manifest plus the arrays."""

    def __init__(self, header: dict, arrays: dict[str, np.ndarray]):
        self.header = header
        self.arrays = arrays

    @property
    def epoch(self) -> int:
        return self.header["epoch"]

    def _prefixed(self, prefix: str) -> dict[str, np.ndarray]:
        return {key[len(prefix):]: value
                for key, value in self.arrays.items()
                if key.startswith(prefix)}

    def load_model(self, model: Module) -> None:
        """Load the stored parameters into ``model``, which must be of
        the class that wrote them, with the same shapes."""
        if self.header["model_class"] != type(model).__name__:
            raise ValueError(
                f"{self.header['model_class']!r} wrote this state, "
                f"not {type(model).__name__!r}")
        model.load_state_dict(self._prefixed("model."))
        # The parameter writes were untracked in-place mutations as far
        # as the representation caches are concerned.
        model.invalidate()


def _read(path: Path, kinds: dict) -> TrainingSnapshot:
    manifest = read_manifest(path, CorruptSnapshotError)
    check_fields(manifest, {**_MANIFEST_KINDS, **kinds}, path,
                 CorruptSnapshotError)
    if manifest["version"] != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported training-state version "
                         f"{manifest['version']}")
    return TrainingSnapshot(manifest, {
        name: read_array(path, name, CorruptSnapshotError)
        for name in manifest["arrays"]})


def _model_arrays(model: Module) -> dict[str, np.ndarray]:
    return {f"model.{name}": value
            for name, value in model.state_dict().items()}


def save_checkpoint(path: str | Path, model: Module,
                    fields: dict | None = None) -> Path:
    """Publish ``model``'s parameters as a checkpoint directory whose
    manifest also records ``fields`` (JSON values); returns the path."""
    return _publish(Path(path), _model_arrays(model),
                    {**(fields or {}), "model_class": type(model).__name__})


def read_checkpoint(path: str | Path,
                    fields: dict | None = None) -> TrainingSnapshot:
    """The checkpoint at ``path``, its manifest checked also for the
    ``fields`` (key -> kind, as :func:`check_fields` takes) the caller
    reads; load it with :meth:`TrainingSnapshot.load_model`."""
    return _read(Path(path), fields or {})


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def _published_epochs(path: Path) -> dict[int, Path]:
    """Epoch number -> published epoch directory; staged ones (and any
    other entry) are skipped."""
    epochs = {}
    for child in path.iterdir() if path.is_dir() else ():
        prefix, _, number = child.name.partition("-")
        if prefix == "epoch" and number.isdigit():
            epochs[int(number)] = child
    return epochs


def save_training_snapshot(path: str | Path, model: Module, *,
                           optimizer: Adam,
                           sampler_rng: np.random.Generator,
                           stopper, result, epoch: int,
                           best_state: dict | None) -> Path:
    """Publish the complete training state after ``epoch`` completed as
    ``path/epoch-<epoch>``, then delete the older epochs."""
    path = Path(path)
    optimizers = {TRAINER_OPTIMIZER: optimizer}
    optimizers.update(collect_optimizers(model))

    arrays = _model_arrays(model)
    for name, value in (best_state or {}).items():
        arrays[f"best.{name}"] = value
    for opt_path, opt in optimizers.items():
        _optimizer_arrays(opt, f"opt.{opt_path}", arrays)
    for bn_path, bn in collect_batchnorms(model).items():
        arrays[f"bn.{bn_path}.mean"] = bn.running_mean
        arrays[f"bn.{bn_path}.var"] = bn.running_var

    # Model-declared training state: JSON values go into the manifest,
    # ndarray values (e.g. the dynamic-graph ablation's rebuilt graph
    # features) into the arrays under a marker.
    training_state = {}
    for state_key, value in model.training_state().items():
        if isinstance(value, np.ndarray):
            arrays[f"tstate.{state_key}"] = value
            training_state[state_key] = ARRAY_MARKER
        else:
            training_state[state_key] = value

    published = _publish(path / f"epoch-{epoch}", arrays, {
        "model_class": type(model).__name__,
        "epoch": epoch,
        "optimizers": {p: _optimizer_meta(o)
                       for p, o in optimizers.items()},
        "rngs": {p: _rng_state(g)
                 for p, g in collect_rng_streams(model).items()},
        "sampler_rng": _rng_state(sampler_rng),
        "training_state": training_state,
        "stopper": {
            "best_value": stopper.best_value,
            "best_epoch": stopper.best_epoch,
            "bad_epochs": stopper._bad_epochs,
        },
        "result": dataclasses.asdict(result),
    })
    for older, directory in _published_epochs(path).items():
        if older < epoch:
            shutil.rmtree(directory, ignore_errors=True)
    return published


def load_training_snapshot(path: str | Path) -> TrainingSnapshot | None:
    """The newest published epoch under ``path``, or None when there
    is none."""
    epochs = _published_epochs(Path(path))
    if not epochs:
        return None
    newest = epochs[max(epochs)]
    fire("train.snapshot.read", path=newest)
    return _read(newest, _SNAPSHOT_KINDS)


def restore_training_snapshot(snapshot: TrainingSnapshot, model: Module, *,
                              optimizer: Adam,
                              sampler_rng: np.random.Generator,
                              stopper, result) -> dict | None:
    """Restore everything captured by :func:`save_training_snapshot`
    into freshly-constructed training objects; returns the best-state
    parameter snapshot (or None)."""
    header = snapshot.header
    snapshot.load_model(model)
    training_state = {
        state_key: (snapshot.arrays[f"tstate.{state_key}"]
                    if value == ARRAY_MARKER else value)
        for state_key, value in header["training_state"].items()}
    model.load_training_state(training_state)

    streams = collect_rng_streams(model)
    saved_rngs = header["rngs"]
    if set(streams) != set(saved_rngs):
        raise ValueError(
            "snapshot RNG streams do not match the model: "
            f"missing={sorted(set(saved_rngs) - set(streams))} "
            f"extra={sorted(set(streams) - set(saved_rngs))}")
    for rng_path, gen in streams.items():
        gen.bit_generator.state = saved_rngs[rng_path]
    sampler_rng.bit_generator.state = header["sampler_rng"]

    for bn_path, bn in collect_batchnorms(model).items():
        bn.running_mean[...] = snapshot.arrays[f"bn.{bn_path}.mean"]
        bn.running_var[...] = snapshot.arrays[f"bn.{bn_path}.var"]

    optimizers = {TRAINER_OPTIMIZER: optimizer}
    optimizers.update(collect_optimizers(model))
    saved_opts = header["optimizers"]
    if set(optimizers) != set(saved_opts):
        raise ValueError(
            "snapshot optimizers do not match the model: "
            f"missing={sorted(set(saved_opts) - set(optimizers))} "
            f"extra={sorted(set(optimizers) - set(saved_opts))}")
    for opt_path, opt in optimizers.items():
        _load_optimizer(opt, saved_opts[opt_path], f"opt.{opt_path}",
                        snapshot.arrays)

    stop = header["stopper"]
    stopper.best_value = float(stop["best_value"])
    stopper.best_epoch = int(stop["best_epoch"])
    stopper._bad_epochs = int(stop["bad_epochs"])

    res = header["result"]
    result.losses = list(res["losses"])
    result.val_history = [tuple(entry) for entry in res["val_history"]]
    result.best_epoch = int(res["best_epoch"])
    result.train_seconds = float(res["train_seconds"])
    result.epochs_run = int(res["epochs_run"])
    return snapshot._prefixed("best.") or None
