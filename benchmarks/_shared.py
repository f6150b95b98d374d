"""Shared infrastructure for the paper-reproduction benchmarks.

Each ``benchmarks/test_*.py`` regenerates one table or figure. All of
them now run through the declarative experiment pipeline
(:mod:`repro.experiments`): a harness composes an
:class:`~repro.experiments.spec.ExperimentSpec` and the shared
:class:`~repro.experiments.runner.Runner` executes it through the
content-addressed artifact store — built datasets, trained checkpoints
and evaluation results persist and resume across processes (a killed
benchmark run picks up mid-training from the stage's snapshot), and
within a process the runner's memo replaces the per-process dict caches
this module used to hand-roll.

Environment knobs (spec overrides):

* ``REPRO_BENCH_EPOCHS`` — training epochs per model (default 12);
* ``REPRO_BENCH_SIZE`` — dataset size preset (default "small");
* ``REPRO_ARTIFACTS`` — artifact-store root (default
  ``<repo>/.artifacts``).

Every harness writes its rendered table to ``results/`` at the repo root
so EXPERIMENTS.md can reference concrete numbers.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.eval.protocol import ScenarioResult
from repro.experiments import (ArtifactStore, ExperimentSpec, Runner,
                               comparison_rows as _spec_comparison_rows)
from repro.experiments.presets import (PAPER_MODELS, bench_env_epochs,
                                       bench_env_size, bench_train_config
                                       as _preset_train_config)
from repro.eval.reporting import write_text_result
from repro.train import TrainConfig
from repro.utils.tables import format_table

BENCH_EPOCHS = bench_env_epochs() or 12
BENCH_SIZE = bench_env_size() or "small"
REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "results"

#: the Table II / III model roster, in the paper's ordering
ALL_MODELS = list(PAPER_MODELS)

#: one runner (and artifact store) shared by every harness in the
#: process, so e.g. Fig. 1 and Fig. 8 reuse the Table II models
RUNNER = Runner(ArtifactStore(
    os.environ.get("REPRO_ARTIFACTS", REPO_ROOT / ".artifacts")))


def dataset_model_kwargs(dataset_name: str, model_name: str) -> dict:
    """Per-dataset hyperparameter overrides (the paper tunes per dataset).

    Weixin's concentrated-preference regime rewards a knowledge-forward
    fusion, mirroring how the paper's per-dataset search lands on
    different lambda values than on Amazon Beauty.
    """
    if dataset_name == "weixin" and model_name == "Firzen":
        return {"config": {"lambda_k": 1.2}}
    return {}


def bench_train_config(epochs: int | None = None) -> TrainConfig:
    """The presets' shared training configuration under the env knobs —
    one definition, so `repro run compare-*` and the harnesses always
    hash to (and therefore share) the same trained artifacts."""
    return _preset_train_config(epochs or BENCH_EPOCHS)


def bench_spec(dataset_name: str, models=None, epochs: int | None = None,
               scenarios=(), model_kwargs: dict | None = None,
               seed: int = 0, name: str | None = None) -> ExperimentSpec:
    """Compose one benchmark experiment spec under the shared knobs."""
    models = tuple(models if models is not None else ALL_MODELS)
    merged: dict = {}
    for model in models:
        kwargs = dict(dataset_model_kwargs(dataset_name, model))
        kwargs.update((model_kwargs or {}).get(model, {}))
        if kwargs:
            merged[model] = kwargs
    return ExperimentSpec(
        name=name or f"bench-{dataset_name}",
        dataset=dataset_name,
        size=BENCH_SIZE,
        models=models,
        train=bench_train_config(epochs),
        scenarios=tuple(scenarios),
        model_kwargs=merged,
        seed=seed,
    )


def get_dataset(name: str, require_world: bool = False):
    """Load (or fetch from the artifact store) one of the benchmarks."""
    return RUNNER.dataset(bench_spec(name, models=()),
                          require_world=require_world)


def get_trained_model(dataset_name: str, model_name: str, seed: int = 0,
                      epochs: int | None = None, **model_kwargs):
    """Train — or fetch from the runner's memo / artifact store — one
    model on one dataset; returns ``(model, TrainResult)``."""
    spec = bench_spec(dataset_name, models=(model_name,), epochs=epochs,
                      model_kwargs={model_name: model_kwargs}
                      if model_kwargs else None, seed=seed)
    return RUNNER.trained(spec, model_name)


def evaluate_spec(spec: ExperimentSpec, model_name: str):
    """Evaluation-stage artifact for one model: a ScenarioResult for the
    standard protocol, otherwise the scenario's named metric dict."""
    metrics = RUNNER.evaluation(spec, model_name)
    if "cold" in metrics and "warm" in metrics:
        return ScenarioResult(cold=metrics["cold"], warm=metrics["warm"])
    return metrics


def comparison_rows(dataset_name: str, models: list[str] | None = None):
    """Cold/Warm/HM rows for a model roster on one dataset (Table II/III
    layout), rendered from stored evaluation artifacts."""
    spec = bench_spec(dataset_name, models)
    return _spec_comparison_rows(RUNNER, spec)


def write_result(filename: str, text: str) -> None:
    write_text_result(RESULTS_DIR / filename, text)
    print("\n" + text)


def hm_of(rows: list[dict], method: str, metric: str = "M@20") -> float:
    """Pull one HM cell out of a comparison table."""
    for row in rows:
        if row["Setting"] == "HM" and row["Method"] == method:
            return row[metric]
    raise KeyError(method)


def setting_of(rows: list[dict], setting: str, method: str,
               metric: str = "M@20") -> float:
    for row in rows:
        if row["Setting"] == setting and row["Method"] == method:
            return row[metric]
    raise KeyError((setting, method))


def render(rows: list[dict], title: str) -> str:
    return format_table(rows, title=title)
