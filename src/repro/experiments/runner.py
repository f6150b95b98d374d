"""Spec-driven experiment runner with resumable, content-addressed stages.

The runner executes an :class:`~repro.experiments.spec.ExperimentSpec`
through three cached stages, each keyed by a content address derived
from the spec (plus the code-relevant knobs):

1. **dataset** — the built benchmark (split + features + KG) after any
   dataset-stage scenario transforms, persisted via
   :mod:`repro.data.io`;
2. **train** — one trained checkpoint per model (``model/``, an array
   directory whose manifest records the model name and the spec), plus
   its training record. While training runs, a full training-state
   snapshot (:mod:`repro.train.snapshot`) of the newest epoch lives in
   ``<key>.partial/snapshot/epoch-<n>/``: a killed run resumes from it
   **bit-exactly** — the resumed parameters, optimizer moments, RNG
   positions and every downstream metric are identical to an
   uninterrupted run;
3. **eval** — metric artifacts (plain JSON; floats round-trip exactly,
   so tables rendered from artifacts are byte-identical to tables
   rendered from a live evaluation).

Within a process the runner also memoizes built datasets and trained
models, replacing the per-process dict caches the benchmark harnesses
used to hand-roll.

Reads are defensive: every artifact lookup/load retries transient I/O
faults with seeded-jitter exponential backoff
(:func:`repro.reliability.retry_call`), and the store quarantines any
artifact whose content hashes no longer match — the runner then simply
recomputes the stage, so a corrupted cache entry costs time, never
correctness.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from ..data.io import load_dataset, save_dataset
from ..reliability import retry_call
from ..eval.metrics import MetricResult
from ..eval.protocol import ScenarioResult, evaluate_model
from ..train.snapshot import read_checkpoint, save_checkpoint
from ..train.trainer import TrainResult, train_model
from .scenarios import (apply_dataset_steps, apply_inference_steps,
                        get_scenario)
from .spec import ExperimentSpec, content_key
from .store import META, ArtifactStore, default_store

#: attempts per artifact read (store lookups and archive loads) before
#: a transient I/O fault is allowed to surface; backoff between tries is
#: exponential with deterministic seeded jitter
READ_ATTEMPTS = 3

#: model name -> factory(dataset, embedding_dim=..., seed=..., **kwargs);
#: lets benchmarks run ad-hoc model variants (e.g. the dynamic-graph
#: Firzen ablation) through the same cached pipeline
MODEL_FACTORIES: dict = {}

#: model name -> dataclass type its ``config`` kwarg is rehydrated into
#: (specs carry plain dicts so they stay JSON-serializable)
MODEL_CONFIG_TYPES: dict = {}


def register_model_factory(name: str, factory, config_type=None) -> None:
    MODEL_FACTORIES[name] = factory
    if config_type is not None:
        MODEL_CONFIG_TYPES[name] = config_type


def _config_type(model_name: str):
    if model_name in MODEL_CONFIG_TYPES:
        return MODEL_CONFIG_TYPES[model_name]
    if model_name == "Firzen":
        from ..core import FirzenConfig
        return FirzenConfig
    return None


def save_trained(path, model, spec: ExperimentSpec, model_name: str):
    """Publish a trained roster entry as a checkpoint whose manifest
    names the model and the spec that built it (what
    :meth:`Runner.checkpointed` rebuilds it from); returns the path."""
    return save_checkpoint(path, model, {
        "model": model_name, "spec": json.loads(spec.to_json())})


@dataclass
class ExperimentRun:
    """The materialized result of running one spec."""

    spec: ExperimentSpec
    #: model -> scenario-name -> MetricResult (``cold``/``warm`` for the
    #: standard protocol)
    results: dict = field(default_factory=dict)
    train_results: dict = field(default_factory=dict)
    completed_stage: str = "eval"

    def scenario(self, model: str) -> ScenarioResult:
        metrics = self.results[model]
        return ScenarioResult(cold=metrics["cold"], warm=metrics["warm"])

    @property
    def fingerprint(self) -> str:
        """Content address of every metric the run produced."""
        return content_key({
            model: {name: dataclasses.asdict(metric)
                    for name, metric in metrics.items()}
            for model, metrics in self.results.items()})


class Runner:
    """Executes specs against an artifact store."""

    def __init__(self, store: ArtifactStore | None = None,
                 refresh: bool = False):
        self.store = store if store is not None else default_store()
        #: when True, existing committed artifacts are ignored (and
        #: overwritten); in-progress training snapshots still resume
        self.refresh = refresh
        self._datasets: dict = {}
        self._models: dict = {}
        self.stats = {"dataset_builds": 0, "train_runs": 0,
                      "eval_runs": 0, "read_retries": 0}

    def _read(self, fn):
        """One artifact read with transient-fault retries.

        The jitter is drawn from a fresh seed-0 generator per read, so
        the schedule is deterministic; retries are counted in
        ``stats["read_retries"]``."""
        def bump(attempt, exc, delay):
            self.stats["read_retries"] += 1
        return retry_call(fn, attempts=READ_ATTEMPTS, base_delay=0.02,
                          max_delay=0.25, on_retry=bump)

    # -- stage 1: dataset -------------------------------------------------
    def _build_dataset(self, spec: ExperimentSpec):
        self.stats["dataset_builds"] += 1
        if spec.dataset == "custom":
            from ..data.datasets import build_dataset
            from ..data.world import WorldConfig
            dataset = build_dataset("custom",
                                    WorldConfig(**(spec.world or {})))
        elif spec.dataset == "scale":
            from ..data.scale import build_scale_dataset, scale_config
            # The streamed build: byte-identical to the in-RAM
            # reference (parity-tested) and memory-bounded at every
            # size preset.
            dataset = build_scale_dataset(
                scale_config(spec.size, **(spec.world or {})))
        elif spec.dataset == "weixin":
            from ..data import load_weixin
            dataset = load_weixin(size=spec.size)
        else:
            from ..data import load_amazon
            dataset = load_amazon(spec.dataset, size=spec.size)
        return apply_dataset_steps(dataset, spec.steps("dataset"))

    def dataset(self, spec: ExperimentSpec, require_world: bool = False):
        """The built (and scenario-transformed) benchmark.

        ``require_world``: analyses needing generator ground truth
        (brands, clusters) force an in-memory build — the on-disk
        archive intentionally stores only the benchmark contract.
        """
        key = spec.dataset_key()
        cached = self._datasets.get(key)
        if cached is not None and (cached.world is not None
                                   or not require_world):
            return cached
        committed = None if self.refresh else self._read(
            lambda: self.store.get("dataset", key))
        if committed is not None and not require_world:
            # Large (scale-built) datasets reopen mmap'd — no resident
            # copy of the arrays.
            dataset = self._read(lambda: load_dataset(
                committed / "dataset", mmap=spec.dataset == "scale"))
        else:
            dataset = self._build_dataset(spec)
        if committed is None:
            staged = self.store.stage_dir("dataset", key)
            save_dataset(dataset, staged / "dataset")
            self.store.commit("dataset", key, staged, {
                "dataset": spec.dataset, "size": spec.size,
                "name": dataset.name,
                "steps": [s.as_tuple() for s in spec.steps("dataset")],
            }, overwrite=self.refresh)
        self._datasets[key] = dataset
        return dataset

    # -- stage 2: train ---------------------------------------------------
    def _create_model(self, spec: ExperimentSpec, model_name: str,
                      dataset):
        kwargs = dict(spec.model_kwargs.get(model_name, {}))
        config_type = _config_type(model_name)
        if config_type is not None and isinstance(kwargs.get("config"),
                                                  dict):
            kwargs["config"] = config_type(**kwargs["config"])
        if model_name in MODEL_FACTORIES:
            return MODEL_FACTORIES[model_name](
                dataset, embedding_dim=spec.embedding_dim,
                seed=spec.seed, **kwargs)
        from ..baselines import create_model
        return create_model(model_name, dataset,
                            embedding_dim=spec.embedding_dim,
                            seed=spec.seed, **kwargs)

    def trained(self, spec: ExperimentSpec, model_name: str):
        """(model, TrainResult) for one roster entry — from the
        in-process memo, the artifact store, or a (resumable) training
        run."""
        key = spec.train_key(model_name)
        if key in self._models:
            return self._models[key]
        dataset = self.dataset(spec)
        committed = None if self.refresh else self._read(
            lambda: self.store.get("train", key))
        if committed is not None:
            _, _, model = self.checkpointed(committed / "model")
            meta = self._read(lambda: json.loads(
                (committed / META).read_text()))
            result = TrainResult(**meta["result"])
        else:
            self.stats["train_runs"] += 1
            snapshot = self.store.partial_dir("train", key) / "snapshot"
            model = self._create_model(spec, model_name, dataset)
            result = train_model(model, dataset, spec.train,
                                 snapshot_path=snapshot)
            staged = self.store.stage_dir("train", key)
            save_trained(staged / "model", model, spec, model_name)
            self.store.commit("train", key, staged, {
                "model": model_name,
                "spec": spec.name,
                "result": dataclasses.asdict(result),
            }, overwrite=self.refresh)
            self.store.clear_partial("train", key)
        self._models[key] = (model, result)
        return self._models[key]

    def _fresh_trained_copy(self, spec: ExperimentSpec, model_name: str):
        """A private trained instance (for protocols that mutate frozen
        model structures), leaving the shared cached model untouched."""
        model, _ = self.trained(spec, model_name)
        dataset = self.dataset(spec)
        fresh = self._create_model(spec, model_name, dataset)
        fresh.load_state_dict(model.state_dict())
        fresh.eval()
        fresh.invalidate()
        return fresh

    def checkpointed(self, path) -> tuple[ExperimentSpec, str, object]:
        """(spec, model name, model) of a checkpoint written by
        :func:`save_trained`: the spec in its manifest builds the dataset
        and the model, and the stored parameters fill it."""
        checkpoint = self._read(lambda: read_checkpoint(
            path, {"model": str, "spec": dict}))
        model_name = checkpoint.header["model"]
        spec = ExperimentSpec.from_json(
            json.dumps(checkpoint.header["spec"]))
        model = self._create_model(spec, model_name, self.dataset(spec))
        checkpoint.load_model(model)
        model.eval()
        return spec, model_name, model

    # -- stage 3: eval ----------------------------------------------------
    def evaluation(self, spec: ExperimentSpec,
                   model_name: str) -> dict[str, MetricResult]:
        """Named metric results for one model under the spec's
        inference/eval scenarios (``cold``/``warm`` by default)."""
        key = spec.eval_key(model_name)
        stored = None if self.refresh else self._read(
            lambda: self.store.get_json("eval", key))
        if stored is not None:
            return {name: MetricResult(**fields)
                    for name, fields in stored["results"].items()}
        self.stats["eval_runs"] += 1
        dataset = self.dataset(spec)
        eval_steps = spec.steps("eval")
        fresh = any(get_scenario(s.name).fresh_model for s in eval_steps)
        if fresh:
            model = self._fresh_trained_copy(spec, model_name)
        else:
            model, _ = self.trained(spec, model_name)
        undo = apply_inference_steps(model, spec.steps("inference"))
        try:
            if eval_steps:
                results: dict[str, MetricResult] = {}
                for step in eval_steps:
                    results.update(get_scenario(step.name).fn(
                        model, dataset, spec.eval_k, **step.params))
            else:
                scenario = evaluate_model(model, dataset.split,
                                          k=spec.eval_k)
                results = {"cold": scenario.cold, "warm": scenario.warm}
        finally:
            undo()
        self.store.put_json("eval", key, {
            "results": {name: dataclasses.asdict(metric)
                        for name, metric in results.items()},
        }, meta={"model": model_name, "spec": spec.name},
            overwrite=self.refresh)
        return results

    # -- whole specs ------------------------------------------------------
    def run(self, spec: ExperimentSpec,
            stop_after: str | None = None) -> ExperimentRun:
        """Execute every stage for every model in the roster.

        ``stop_after``: halt after the named stage ("dataset" or
        "train") — the artifacts written so far stay in the store, and
        a later ``run`` resumes from them (the CI smoke job interrupts
        here and asserts the resumed fingerprint matches a cold run).
        """
        if spec.sweep:
            raise ValueError(
                "run() takes a single-point spec; expand sweeps with "
                "repro.experiments.expand_sweep() first")
        run = ExperimentRun(spec=spec)
        self.dataset(spec)
        if stop_after == "dataset":
            run.completed_stage = "dataset"
            return run
        for model_name in spec.models:
            _, run.train_results[model_name] = \
                self.trained(spec, model_name)
        if stop_after == "train":
            run.completed_stage = "train"
            return run
        for model_name in spec.models:
            run.results[model_name] = self.evaluation(spec, model_name)
        return run
