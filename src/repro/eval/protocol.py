"""All-ranking evaluation protocol (paper section IV-A.2).

Warm setting: candidates are all *warm* items the user has not interacted
with in training. Cold setting: candidates are all *cold* items. Scores
come from a model's ``score_users`` method; train items are masked to
``-inf`` in the matrix it returns, before ranking.

Masking and ranking are vectorized over the user axis via the serving
layer's kernels (:mod:`repro.serve.ranker`), and the ground truth and the
metrics are array operations over the split's ``(user, item)`` pairs:
no step loops over users in Python. :func:`rank_candidates` remains as
the one-user reference implementation whose semantics the batched path
reproduces exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.splits import ColdStartSplit
from ..serve.ranker import (apply_seen_mask, interactions_to_csr,
                            topk_from_scores)
from ..utils.arrays import sorted_unique
from .metrics import MetricResult, harmonic_mean_result, ranking_metrics


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


def evaluate_scenario(model, split: ColdStartSplit, which: str,
                      k: int = 20, known: np.ndarray | None = None
                      ) -> MetricResult:
    """Evaluate one scenario (``warm_test``, ``cold_test``, ...).

    Parameters
    ----------
    model:
        Anything with ``score_users(user_ids) -> (len(user_ids), num_items)``
        returning a new array: the seen items are masked in it in place.
    which:
        Name of the ``(n, 2)`` ground-truth pairs on ``split``.
    known:
        ``(n, 2)`` pairs masked like the training pairs a warm scenario
        masks (the normal cold-start known edges).

    The ranked users are the split's sorted unique users; their metric
    rows are summed in the order each user first appears in the pairs.
    """
    pairs = getattr(split, which)
    if pairs is None:
        raise ValueError(f"split {which!r} not populated")
    pairs = np.asarray(pairs, dtype=np.int64)
    if len(pairs) == 0:
        return MetricResult(k, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    # Relevance as sorted unique ``user * num_items + item`` codes: each
    # user's relevant items are one contiguous run of them.
    num_items = split.num_items
    users, first_seen = np.unique(pairs[:, 0], return_index=True)
    codes = sorted_unique(pairs[:, 0] * num_items + pairs[:, 1])
    relevant_counts = np.diff(np.searchsorted(codes, users * num_items),
                              append=len(codes))

    cold_scenario = which.startswith("cold")
    candidates = np.asarray(split.cold_items if cold_scenario
                            else split.warm_items)
    scores = np.asarray(model.score_users(users), dtype=np.float64)
    masked = [] if cold_scenario else [split.train]
    if known is not None:
        masked.append(known)
    seen = None
    if masked:
        seen = interactions_to_csr(np.concatenate(masked), split.num_users,
                                   split.num_items)
    apply_seen_mask(scores, users, seen)
    ranked = topk_from_scores(scores, k, candidates=candidates).items

    ranked_codes = users[:, None] * num_items + ranked
    found = np.minimum(np.searchsorted(codes, ranked_codes), len(codes) - 1)
    hits = codes[found] == ranked_codes
    return ranking_metrics(hits, relevant_counts, np.argsort(first_seen), k)


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
    return evaluate_scenario(model, split, "cold_test_unknown", k=k,
                             known=split.cold_test_known)
