"""Declarative experiment specifications.

An :class:`ExperimentSpec` names everything one experiment of the
paper's grid depends on — dataset and size preset, model roster,
training configuration, composable scenario transforms, seeds — in a
canonically-hashable form. The runner derives a content-address for
every pipeline stage from it, so two processes that describe the same
experiment share artifacts, and any change to a knob (epochs, noise
level, sweep value, ...) lands in a different address.

Hash keys also fold in the code-relevant knobs that change numerics:
the parameter dtype (``PARAM_DTYPE``) and :data:`PIPELINE_VERSION`,
which must be bumped by any PR that intentionally changes training or
evaluation semantics (everything else — sparse gradients, fused
kernels — is bit-identical by contract and therefore excluded on
purpose).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..train.trainer import TrainConfig

#: bump when training/evaluation semantics change in a way that makes
#: previously-stored artifacts stale (bit-level results differ)
PIPELINE_VERSION = 1

#: dataset size presets accepted by the loaders (large/xlarge exist only
#: on the out-of-core ``dataset="scale"`` path)
SIZES = ("tiny", "small", "medium", "large", "xlarge")


def _param_dtype() -> str:
    from ..autograd.init import PARAM_DTYPE
    return np.dtype(PARAM_DTYPE).name


def canonical(obj):
    """Reduce ``obj`` to canonical JSON-compatible data (sorted dicts,
    lists, plain scalars) for stable hashing."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return canonical(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(key): canonical(value)
                for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}: {obj!r}")


def content_key(obj) -> str:
    """Stable 16-hex-digit content address of canonicalized ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class ScenarioStep:
    """One applied scenario transform: a registry name plus parameters."""

    name: str
    params: dict = field(default_factory=dict)

    @property
    def stage(self) -> str:
        from .scenarios import get_scenario
        return get_scenario(self.name).stage

    def as_tuple(self) -> tuple:
        return (self.name, dict(self.params))


def _coerce_steps(steps) -> tuple[ScenarioStep, ...]:
    out = []
    for step in steps or ():
        if isinstance(step, ScenarioStep):
            out.append(step)
        elif isinstance(step, str):
            out.append(ScenarioStep(step))
        else:
            name, params = step
            out.append(ScenarioStep(name, dict(params)))
    return tuple(out)


@dataclass
class ExperimentSpec:
    """A complete, hashable description of one experiment."""

    name: str
    dataset: str = "beauty"
    size: str = "small"
    models: tuple = ("Firzen",)
    train: TrainConfig = field(default_factory=TrainConfig)
    scenarios: tuple = ()
    #: per-model construction overrides, e.g.
    #: ``{"Firzen": {"config": {"lambda_k": 1.2}}}`` (plain data only,
    #: so specs stay JSON-serializable; the runner rehydrates known
    #: config dataclasses at model-creation time)
    model_kwargs: dict = field(default_factory=dict)
    #: WorldConfig overrides for ``dataset="custom"``
    world: dict | None = None
    embedding_dim: int = 32
    seed: int = 0
    eval_k: int = 20
    #: one optional sweep axis: (model-config field, values); expanded by
    #: :func:`expand_sweep` into one child spec per value
    sweep: tuple = ()
    #: pin the array backend for this experiment's training runs
    #: (``None`` — the default — follows ``REPRO_BACKEND``). The
    #: ``"fast"`` tier is *not* bit-identical (float32 params,
    #: accelerated kernels), so a pinned backend always enters the
    #: content address; the env var stays address-neutral like every
    #: other runtime toggle.
    backend: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        self.models = tuple(self.models)
        self.scenarios = _coerce_steps(self.scenarios)
        if isinstance(self.train, dict):
            self.train = TrainConfig(**self.train)
        if self.size not in SIZES:
            raise ValueError(f"unknown size {self.size!r}; "
                             f"allowed values: {', '.join(SIZES)}")
        if self.backend is not None:
            from ..backend import available_backends
            if self.backend not in available_backends():
                raise ValueError(
                    f"unknown backend {self.backend!r}; allowed values: "
                    f"{', '.join(available_backends())}")

    # -- scenario views -------------------------------------------------
    def steps(self, stage: str) -> tuple[ScenarioStep, ...]:
        return tuple(s for s in self.scenarios if s.stage == stage)

    # -- content addresses ----------------------------------------------
    def dataset_key(self) -> str:
        return content_key({
            "pipeline": PIPELINE_VERSION,
            "dataset": self.dataset,
            "size": self.size,
            "world": self.world,
            "steps": [s.as_tuple() for s in self.steps("dataset")],
        })

    def train_key(self, model: str) -> str:
        # Logging-only knobs must not fragment the address: two specs
        # that train identical bits share the artifact.
        train = dataclasses.asdict(self.train)
        train.pop("verbose")
        payload = {
            "pipeline": PIPELINE_VERSION,
            "dtype": _param_dtype(),
            "dataset": self.dataset_key(),
            "model": model,
            "model_kwargs": self.model_kwargs.get(model, {}),
            "train": train,
            "embedding_dim": self.embedding_dim,
            "seed": self.seed,
        }
        if self.backend is not None:
            payload["backend"] = self.backend
        return content_key(payload)

    def eval_key(self, model: str) -> str:
        return content_key({
            "train": self.train_key(model),
            "steps": [s.as_tuple() for s in self.scenarios
                      if s.stage in ("inference", "eval")],
            "k": self.eval_k,
        })

    # -- (de)serialization ----------------------------------------------
    def to_json(self) -> str:
        payload = canonical(dataclasses.asdict(self))
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        payload = json.loads(text)
        payload["scenarios"] = [
            (s["name"], s.get("params", {})) if isinstance(s, dict) else s
            for s in payload.get("scenarios", [])]
        payload["sweep"] = tuple(payload.get("sweep", ()) or ())
        # Older spec files carry a step-tape pin; that execution mode
        # no longer exists and never changed results.
        payload.pop("tape", None)
        return cls(**payload)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    def with_overrides(self, epochs: int | None = None,
                       size: str | None = None) -> "ExperimentSpec":
        """Copy with the environment-style overrides applied
        (``REPRO_BENCH_EPOCHS`` / ``REPRO_BENCH_SIZE``)."""
        spec = dataclasses.replace(self)
        if epochs is not None:
            spec.train = dataclasses.replace(spec.train, epochs=epochs)
        if size is not None:
            spec.size = size
        spec.__post_init__()
        return spec


def expand_sweep(spec: ExperimentSpec) -> list[tuple[object, ExperimentSpec]]:
    """Expand the spec's sweep axis into ``(value, child_spec)`` pairs.

    Each child carries a per-model ``config`` override for the swept
    field and an empty sweep of its own (so its content addresses are
    those of a plain single-point spec).
    """
    if not spec.sweep:
        return [(None, spec)]
    param, values = spec.sweep
    out = []
    if param == "size":
        # Catalog size is a first-class sweep axis: each child is the
        # same experiment at a different size preset, with its own
        # content-addressed dataset/train/eval artifacts.
        for value in values:
            child = dataclasses.replace(spec, size=value, sweep=())
            child.name = f"{spec.name}[size={value}]"
            child.__post_init__()
            out.append((value, child))
        return out
    for value in values:
        child = dataclasses.replace(spec, sweep=())
        child.model_kwargs = {
            model: {**spec.model_kwargs.get(model, {}),
                    "config": {**spec.model_kwargs.get(model, {}).get(
                        "config", {}), param: value}}
            for model in spec.models
        }
        child.name = f"{spec.name}[{param}={value}]"
        child.__post_init__()
        out.append((value, child))
    return out
