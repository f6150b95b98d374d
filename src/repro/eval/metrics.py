"""Top-K ranking metrics: Recall, MRR, NDCG, Hit Ratio, Precision.

All metrics are computed per user from a ranked candidate list and a
relevance set, then averaged over users that have at least one relevant
item — the standard all-ranking evaluation the paper uses. Every user's
five values come from one ``(users, k)`` hit matrix in array operations.
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


def ranking_metrics(hits: np.ndarray, relevant_counts: np.ndarray,
                    order: np.ndarray, k: int) -> MetricResult:
    """Average the five metrics over users from their hit matrix.

    Parameters
    ----------
    hits:
        ``(users, width)`` booleans, ``width <= k``: whether each user's
        item at each rank (best first) is relevant. Zero width (no
        candidates to rank) scores every user zero.
    relevant_counts:
        Each user's number of relevant items, all positive.
    order:
        Row indices of ``hits`` in the order the users are summed.

    Each value equals the per-user scalar loop's bit for bit: counts
    divide exactly, DCG and IDCG add the scalar ``1 / log2(p + 1)``
    discounts one rank at a time, and the users' rows are added one at
    a time in ``order``, never pairwise.
    """
    num_users = len(relevant_counts)
    if num_users == 0:
        return MetricResult(k, 0.0, 0.0, 0.0, 0.0, 0.0, 0)
    rows = np.zeros((num_users, 5))
    width = hits.shape[1]
    if width:
        num_hits = hits.sum(axis=1)
        any_hit = num_hits > 0
        ideal = np.minimum(relevant_counts, k)
        discounts = np.array([1.0 / np.log2(p + 1) for p in
                              range(1, max(width, int(ideal.max())) + 1)])
        dcg = np.cumsum(np.where(hits, discounts[:width], 0.0), axis=1)
        idcg = np.cumsum(discounts)[ideal - 1]
        rows[:, 0] = num_hits / relevant_counts
        rows[:, 1] = np.where(any_hit, 1.0 / (hits.argmax(axis=1) + 1), 0.0)
        rows[:, 2] = dcg[:, -1] / idcg
        rows[:, 3] = any_hit
        rows[:, 4] = num_hits / k
    totals = np.cumsum(rows[order], axis=0)[-1]
    return MetricResult(k, *(totals / num_users), num_users=num_users)


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
