"""Declarative experiment pipeline.

Specs (:mod:`.spec`) describe experiments; the runner (:mod:`.runner`)
executes them through three content-addressed, resumable stages backed
by the artifact store (:mod:`.store`); scenario transforms
(:mod:`.scenarios`) compose the paper's experiment grid; the report
layer (:mod:`.report`) builds the paper-style comparison rows from
stored artifacts; presets (:mod:`.presets`) name the common entry
points for ``repro run``.
"""

from .presets import (PAPER_MODELS, available_presets, bench_train_config,
                      get_preset)
from .report import comparison_rows
from .runner import (ExperimentRun, Runner, register_model_factory)
from .scenarios import (available_scenarios, get_scenario,
                        register_scenario)
from .spec import (PIPELINE_VERSION, ExperimentSpec, ScenarioStep,
                   content_key, expand_sweep)
from .store import ArtifactStore, default_store

__all__ = [
    "ExperimentSpec", "ScenarioStep", "content_key", "expand_sweep",
    "PIPELINE_VERSION", "Runner", "ExperimentRun",
    "register_model_factory", "ArtifactStore", "default_store",
    "register_scenario", "get_scenario", "available_scenarios",
    "comparison_rows", "get_preset",
    "available_presets", "bench_train_config", "PAPER_MODELS",
]
