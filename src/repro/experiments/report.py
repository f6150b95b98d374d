"""Reporting layer: the paper-style comparison rows from stored artifacts.

The CLI and the benchmark harnesses build their comparison tables from
the runner's eval artifacts through :func:`comparison_rows`, so a table
can be re-rendered at any time without re-running a single model — and
a table rendered from artifacts is byte-identical to one rendered from a
live evaluation (metric floats round-trip exactly through the JSON
artifacts).
"""

from __future__ import annotations

from ..baselines import model_family
from ..eval.protocol import ScenarioResult
from ..utils.tables import scenario_rows
from .runner import Runner
from .spec import ExperimentSpec


def comparison_rows(runner: Runner, spec: ExperimentSpec,
                    models=None) -> list[dict]:
    """Cold/Warm/HM rows for a model roster (Table II/III layout): every
    model's Cold row, then every Warm row, then every HM row."""
    models = list(models if models is not None else spec.models)
    per_model = []
    for name in models:
        metrics = runner.evaluation(spec, name)
        per_model.append(scenario_rows(
            name, model_family(name),
            ScenarioResult(cold=metrics["cold"], warm=metrics["warm"])))
    return [row for setting in zip(*per_model) for row in setting]
