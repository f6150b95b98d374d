"""Evaluation metrics and the all-ranking protocol."""

from .metrics import (
    MetricResult,
    evaluate_rankings,
    harmonic_mean,
    harmonic_mean_result,
    hit_at_k,
    mrr_at_k,
    ndcg_at_k,
    precision_at_k,
    recall_at_k,
)
from .reporting import write_text_result
from .protocol import (
    ScenarioResult,
    evaluate_model,
    evaluate_normal_cold,
    evaluate_scenario,
    rank_candidates,
    scenario_rankings,
)

__all__ = [
    "MetricResult",
    "evaluate_rankings",
    "harmonic_mean",
    "harmonic_mean_result",
    "recall_at_k",
    "precision_at_k",
    "hit_at_k",
    "mrr_at_k",
    "ndcg_at_k",
    "ScenarioResult",
    "evaluate_model",
    "evaluate_normal_cold",
    "evaluate_scenario",
    "rank_candidates",
    "scenario_rankings",
    "write_text_result",
]
