"""All-ranking evaluation protocol (paper section IV-A.2).

Warm setting: candidates are all *warm* items the user has not interacted
with in training. Cold setting: candidates are all *cold* items. Scores
come from a model's ``score_users`` method; train items are masked to
``-inf`` before ranking.

Masking and ranking are vectorized over the user axis via the serving
layer's kernels (:mod:`repro.serve.ranker`), replacing the seed's
per-user Python loop; :func:`rank_candidates` remains as the one-user
reference implementation whose semantics the batched path reproduces
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.splits import ColdStartSplit
from ..serve.ranker import (apply_seen_mask, interactions_to_csr,
                            topk_from_scores)
from .metrics import MetricResult, evaluate_rankings, harmonic_mean_result


@dataclass
class ScenarioResult:
    """Cold/warm/HM metric triple for one model on one dataset."""

    cold: MetricResult
    warm: MetricResult

    @property
    def hm(self) -> MetricResult:
        return harmonic_mean_result(self.cold, self.warm)


def rank_candidates(scores: np.ndarray, candidate_items: np.ndarray,
                    k: int) -> np.ndarray:
    """Top-k candidate item ids by score (best first) for one user."""
    cand_scores = scores[candidate_items]
    k = min(k, len(candidate_items))
    top = np.argpartition(-cand_scores, k - 1)[:k]
    top = top[np.argsort(-cand_scores[top], kind="stable")]
    return candidate_items[top]


def scenario_rankings(model, split: ColdStartSplit, users: np.ndarray,
                      candidates: np.ndarray, k: int, cold_scenario: bool,
                      extra_seen: dict | None = None) -> dict[int, np.ndarray]:
    """Batched scoring + masking + ranking for one evaluation scenario."""
    scores = np.array(model.score_users(users), dtype=np.float64,
                      copy=True)
    seen = None
    if not cold_scenario:  # mask train items (warm only)
        seen = interactions_to_csr(split.train, split.num_users,
                                   split.num_items)
    apply_seen_mask(scores, users, seen, extra_seen)
    top = topk_from_scores(scores, k, candidates=candidates)
    return {int(user): top.items[row] for row, user in enumerate(users)}


def evaluate_scenario(model, split: ColdStartSplit, which: str,
                      k: int = 20, extra_seen: dict | None = None) -> MetricResult:
    """Evaluate one scenario (``warm_test``, ``cold_test``, ...).

    Parameters
    ----------
    model:
        Anything with ``score_users(user_ids) -> (len(user_ids), num_items)``.
    which:
        Ground-truth split name on ``split``.
    extra_seen:
        Additional user->items to mask (normal cold-start known edges).
    """
    truth = split.ground_truth(which)
    users = np.asarray(sorted(truth.keys()), dtype=np.int64)
    if len(users) == 0:
        return MetricResult(k, 0.0, 0.0, 0.0, 0.0, 0.0, 0)

    cold_scenario = which.startswith("cold")
    if cold_scenario:
        candidates = np.asarray(split.cold_items)
    else:
        candidates = np.asarray(split.warm_items)

    rankings = scenario_rankings(model, split, users, candidates, k,
                                 cold_scenario, extra_seen)
    return evaluate_rankings(rankings, truth, k=k)


def evaluate_model(model, split: ColdStartSplit, k: int = 20,
                   use_validation: bool = False) -> ScenarioResult:
    """Full strict cold-start + warm-start evaluation of a trained model."""
    warm_split = "warm_val" if use_validation else "warm_test"
    cold_split = "cold_val" if use_validation else "cold_test"
    warm = evaluate_scenario(model, split, warm_split, k=k)
    cold = evaluate_scenario(model, split, cold_split, k=k)
    return ScenarioResult(cold=cold, warm=warm)


def evaluate_normal_cold(model, split: ColdStartSplit,
                         k: int = 20) -> MetricResult:
    """Normal cold-start protocol (Table VI): the known half of cold
    interactions was available to the model; evaluate on the unknown half,
    masking known items from the candidate scores."""
    known: dict[int, set] = {}
    for user, item in split.cold_test_known:
        known.setdefault(int(user), set()).add(int(item))
    return evaluate_scenario(model, split, "cold_test_unknown", k=k,
                             extra_seen=known)
