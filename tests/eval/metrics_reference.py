"""The per-user evaluation loop that ``repro.eval`` replaced with array
operations, kept verbatim as its bit-exact reference.

Ground truth is a dict of relevance sets, each ranked user's five
metrics are scalar functions of one ranking, and
:func:`evaluate_rankings` adds the users' rows one at a time in the
dict's order (each user's first appearance in the split's pairs).
:func:`evaluate_scenario` is the all-ranking protocol on top of them,
with the normal cold-start known items masked row by row.
"""

from __future__ import annotations

import numpy as np

from repro.eval.metrics import MetricResult
from repro.serve.ranker import (apply_seen_mask, interactions_to_csr,
                                topk_from_scores)


def recall_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / len(relevant) if relevant else 0.0


def precision_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    hits = sum(1 for item in ranked[:k] if item in relevant)
    return hits / k


def hit_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    return 1.0 if any(item in relevant for item in ranked[:k]) else 0.0


def mrr_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    for position, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            return 1.0 / position
    return 0.0


def ndcg_at_k(ranked: np.ndarray, relevant: set, k: int) -> float:
    dcg = 0.0
    for position, item in enumerate(ranked[:k], start=1):
        if item in relevant:
            dcg += 1.0 / np.log2(position + 1)
    ideal_hits = min(len(relevant), k)
    if ideal_hits == 0:
        return 0.0
    idcg = sum(1.0 / np.log2(p + 1) for p in range(1, ideal_hits + 1))
    return dcg / idcg


def evaluate_rankings(rankings: dict, ground_truth: dict,
                      k: int = 20) -> MetricResult:
    """Average the five metrics over users.

    Parameters
    ----------
    rankings:
        user -> array of candidate item ids, best first.
    ground_truth:
        user -> set of relevant item ids. Users absent from ``rankings``
        contribute zeros (they received no recommendations).
    """
    totals = np.zeros(5)
    count = 0
    for user, relevant in ground_truth.items():
        if not relevant:
            continue
        count += 1
        ranked = rankings.get(user)
        if ranked is None or len(ranked) == 0:
            continue
        ranked = np.asarray(ranked)
        totals += (
            recall_at_k(ranked, relevant, k),
            mrr_at_k(ranked, relevant, k),
            ndcg_at_k(ranked, relevant, k),
            hit_at_k(ranked, relevant, k),
            precision_at_k(ranked, relevant, k),
        )
    if count == 0:
        return MetricResult(k, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    averaged = totals / count
    return MetricResult(k, *averaged, num_users=count)


def scenario_rankings(model, split, users: np.ndarray,
                      candidates: np.ndarray, k: int, cold_scenario: bool,
                      known: np.ndarray | None = None) -> dict:
    """Batched scoring + masking + ranking for one evaluation scenario;
    ``known`` pairs are masked by a per-row loop over a dict of sets."""
    scores = np.array(model.score_users(users), dtype=np.float64,
                      copy=True)
    seen = None
    if not cold_scenario:  # mask train items (warm only)
        seen = interactions_to_csr(split.train, split.num_users,
                                   split.num_items)
    apply_seen_mask(scores, users, seen)
    if known is not None:
        extra: dict = {}
        for user, item in known:
            extra.setdefault(int(user), set()).add(int(item))
        for row, user in enumerate(users):
            items = extra.get(int(user))
            if items:
                scores[row, np.fromiter(items, dtype=np.int64)] = -np.inf
    top = topk_from_scores(scores, k, candidates=candidates)
    return {int(user): top.items[row] for row, user in enumerate(users)}


def evaluate_scenario(model, split, which: str, k: int = 20,
                      known: np.ndarray | None = None) -> MetricResult:
    """The loop form of :func:`repro.eval.protocol.evaluate_scenario`."""
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
                                 cold_scenario, known)
    return evaluate_rankings(rankings, truth, k=k)
