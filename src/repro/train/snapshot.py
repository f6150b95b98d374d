"""Full training-state snapshots: kill a run, resume it bit-exactly.

A model checkpoint (:mod:`repro.train.checkpoint`) stores parameters —
enough to *evaluate* a trained model, not enough to *continue training*
it: the optimizer moments and every random-number stream would restart
from scratch and the resumed trajectory would diverge from an
uninterrupted one.

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
rate it was built with, and header keys this module does not read are
ignored.

Snapshots are written atomically (temp file + ``os.replace``), so a
kill during the write leaves the previous snapshot intact. A snapshot
that is damaged anyway (torn by a kill that beat the rename, bit rot)
loads as :class:`CorruptSnapshotError`, which the trainer treats as "no
snapshot": training restarts from scratch — deterministic, so the rerun
is still bit-exact with an uninterrupted run.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
import zlib
from pathlib import Path

import numpy as np

from ..autograd.nn import BatchNorm1d, Module
from ..autograd.optim import Adam
from ..reliability import fire, is_injected_crash


class CorruptSnapshotError(ValueError):
    """The snapshot file exists but cannot be read back.

    Raised (with the offending path) in place of the raw
    ``zipfile.BadZipFile`` / ``EOFError`` the numpy archive layer
    produces on a torn or corrupted file."""

FORMAT_VERSION = 1
HEADER_KEY = "__snapshot_header__"

#: key used for the trainer-owned optimizer (model-owned optimizers are
#: keyed by their attribute path, e.g. ``._kg_optimizer``)
TRAINER_OPTIMIZER = "@trainer"

#: header placeholder for a training-state value stored as an array
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
# save / load
# ---------------------------------------------------------------------------

def _rng_state(gen: np.random.Generator) -> dict:
    return gen.bit_generator.state


def save_training_snapshot(path: str | Path, model: Module, *,
                           optimizer: Adam,
                           sampler_rng: np.random.Generator,
                           stopper, result, epoch: int,
                           best_state: dict | None) -> None:
    """Capture the complete training state after ``epoch`` completed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)

    optimizers = {TRAINER_OPTIMIZER: optimizer}
    optimizers.update(collect_optimizers(model))

    arrays: dict[str, np.ndarray] = {}
    for name, value in model.state_dict().items():
        arrays[f"model.{name}"] = value
    if best_state is not None:
        for name, value in best_state.items():
            arrays[f"best.{name}"] = value
    for opt_path, opt in optimizers.items():
        _optimizer_arrays(opt, f"opt.{opt_path}", arrays)
    for bn_path, bn in collect_batchnorms(model).items():
        arrays[f"bn.{bn_path}.mean"] = bn.running_mean
        arrays[f"bn.{bn_path}.var"] = bn.running_var

    # Model-declared training state: JSON values go into the header,
    # ndarray values (e.g. the dynamic-graph ablation's rebuilt graph
    # features) into the archive under a marker.
    training_state = {}
    for state_key, value in model.training_state().items():
        if isinstance(value, np.ndarray):
            arrays[f"tstate.{state_key}"] = value
            training_state[state_key] = ARRAY_MARKER
        else:
            training_state[state_key] = value

    header = {
        "version": FORMAT_VERSION,
        "model_class": type(model).__name__,
        "epoch": epoch,
        "has_best": best_state is not None,
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
        "result": {
            "losses": result.losses,
            "val_history": [list(entry) for entry in result.val_history],
            "best_epoch": result.best_epoch,
            "train_seconds": result.train_seconds,
            "epochs_run": result.epochs_run,
        },
    }
    arrays[HEADER_KEY] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8)

    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp.npz")
    os.close(fd)
    try:
        np.savez_compressed(tmp, **arrays)
        # Injection seam: a "torn"/"crash" here is a kill between
        # writing the temp file and the atomic rename — the previous
        # snapshot (if any) must stay intact and loadable.
        fire("train.snapshot.write", path=tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        # A simulated kill leaves the temp file behind, as a real kill
        # would; ordinary failures clean it up.
        if not is_injected_crash(exc) and os.path.exists(tmp):
            os.unlink(tmp)
        raise


class TrainingSnapshot:
    """A loaded snapshot: the header plus the stored arrays."""

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


def load_training_snapshot(path: str | Path) -> TrainingSnapshot:
    path = Path(path)
    fire("train.snapshot.read", path=path)
    try:
        with np.load(path, allow_pickle=False) as archive:
            header = json.loads(
                archive[HEADER_KEY].tobytes().decode("utf-8"))
            if header["version"] != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported snapshot version {header['version']}")
            arrays = {key: archive[key] for key in archive.files
                      if key != HEADER_KEY}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, KeyError, zlib.error,
            json.JSONDecodeError, OSError, UnicodeDecodeError) as exc:
        raise CorruptSnapshotError(
            f"training snapshot {path} is corrupt or truncated "
            f"({exc})") from exc
    return TrainingSnapshot(header, arrays)


def restore_training_snapshot(snapshot: TrainingSnapshot, model: Module, *,
                              optimizer: Adam,
                              sampler_rng: np.random.Generator,
                              stopper, result) -> dict | None:
    """Restore everything captured by :func:`save_training_snapshot`
    into freshly-constructed training objects; returns the best-state
    parameter snapshot (or None)."""
    header = snapshot.header
    if header["model_class"] != type(model).__name__:
        raise ValueError(
            f"snapshot was written by {header['model_class']!r}, "
            f"not {type(model).__name__!r}")

    model.load_state_dict(snapshot._prefixed("model."))
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

    # Parameter writes above were untracked in-place mutations as far as
    # the representation caches are concerned.
    if hasattr(model, "invalidate"):
        model.invalidate()

    if header["has_best"]:
        return snapshot._prefixed("best.")
    return None
