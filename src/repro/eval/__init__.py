"""Evaluation metrics and the all-ranking protocol."""

from .metrics import MetricResult, harmonic_mean, harmonic_mean_result
from .reporting import write_text_result
from .protocol import (
    ScenarioResult,
    evaluate_model,
    evaluate_normal_cold,
    evaluate_scenario,
    rank_candidates,
)

__all__ = [
    "MetricResult",
    "harmonic_mean",
    "harmonic_mean_result",
    "ScenarioResult",
    "evaluate_model",
    "evaluate_normal_cold",
    "evaluate_scenario",
    "rank_candidates",
    "write_text_result",
]
