"""Top-K ranking metrics: Recall, MRR, NDCG, Hit Ratio, Precision.

All metrics are computed per user from a ranked candidate list and a
relevance set, then averaged over users that have at least one relevant
item — the standard all-ranking evaluation the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MetricResult:
    """Averaged metrics at a single cutoff K."""

    k: int
    recall: float
    mrr: float
    ndcg: float
    hit: float
    precision: float
    num_users: int

    def as_dict(self) -> dict:
        return {
            f"R@{self.k}": self.recall,
            f"M@{self.k}": self.mrr,
            f"N@{self.k}": self.ndcg,
            f"H@{self.k}": self.hit,
            f"P@{self.k}": self.precision,
        }

    def as_percent_row(self) -> dict:
        """Values scaled to percent, rounded like the paper's tables."""
        return {key: round(100.0 * val, 2)
                for key, val in self.as_dict().items()}


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


def harmonic_mean(cold: float, warm: float) -> float:
    """The paper's HM metric: harmonic mean of a cold-scenario and a
    warm-scenario score; zero if either side is zero (penalizing the
    "short barrel")."""
    if cold <= 0.0 or warm <= 0.0:
        return 0.0
    return 2.0 * cold * warm / (cold + warm)


def harmonic_mean_result(cold: MetricResult,
                         warm: MetricResult) -> MetricResult:
    """HM applied metric-wise to two MetricResults at the same K."""
    if cold.k != warm.k:
        raise ValueError("cutoffs differ")
    return MetricResult(
        k=cold.k,
        recall=harmonic_mean(cold.recall, warm.recall),
        mrr=harmonic_mean(cold.mrr, warm.mrr),
        ndcg=harmonic_mean(cold.ndcg, warm.ndcg),
        hit=harmonic_mean(cold.hit, warm.hit),
        precision=harmonic_mean(cold.precision, warm.precision),
        num_users=min(cold.num_users, warm.num_users),
    )
