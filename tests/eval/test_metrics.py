"""Tests for ranking metrics, including hypothesis properties.

The point metrics and their per-user averaging are tested on the loop
in ``metrics_reference.py``; the array form in :mod:`repro.eval` must
then return the same :class:`MetricResult` as that loop, bit for bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metrics_reference as reference
from metrics_reference import (evaluate_rankings, hit_at_k, mrr_at_k,
                               ndcg_at_k, precision_at_k, recall_at_k)
from repro.baselines import create_model
from repro.core import FirzenModel
from repro.data.splits import ColdStartSplit
from repro.eval.metrics import (MetricResult, harmonic_mean,
                                harmonic_mean_result)
from repro.eval.protocol import (evaluate_model, evaluate_normal_cold,
                                 evaluate_scenario)
from repro.train import TrainConfig, train_model

RANKED = np.array([5, 3, 8, 1, 9])


class TestPointMetrics:
    def test_recall(self):
        assert recall_at_k(RANKED, {3, 9, 100}, 5) == pytest.approx(2 / 3)

    def test_recall_empty_relevant(self):
        assert recall_at_k(RANKED, set(), 5) == 0.0

    def test_precision(self):
        assert precision_at_k(RANKED, {3, 9}, 5) == pytest.approx(0.4)

    def test_hit(self):
        assert hit_at_k(RANKED, {9}, 5) == 1.0
        assert hit_at_k(RANKED, {9}, 2) == 0.0

    def test_mrr_first_position(self):
        assert mrr_at_k(RANKED, {5}, 5) == 1.0

    def test_mrr_later_position(self):
        assert mrr_at_k(RANKED, {8}, 5) == pytest.approx(1 / 3)

    def test_mrr_no_hit(self):
        assert mrr_at_k(RANKED, {42}, 5) == 0.0

    def test_ndcg_perfect_ranking(self):
        assert ndcg_at_k(np.array([1, 2]), {1, 2}, 2) == pytest.approx(1.0)

    def test_ndcg_worst_position(self):
        partial = ndcg_at_k(np.array([0, 0, 0, 0, 7]), {7}, 5)
        assert 0 < partial < 1

    def test_ndcg_truncates_ideal(self):
        # 3 relevant, k=2: perfect top-2 should be NDCG 1
        assert ndcg_at_k(np.array([1, 2]), {1, 2, 3}, 2) == pytest.approx(1.0)


class TestAveraging:
    def test_average_over_users(self):
        rankings = {0: np.array([1, 2]), 1: np.array([3, 4])}
        truth = {0: {1}, 1: {9}}
        result = evaluate_rankings(rankings, truth, k=2)
        assert result.recall == pytest.approx(0.5)
        assert result.num_users == 2

    def test_user_missing_ranking_counts_zero(self):
        result = evaluate_rankings({}, {0: {1}}, k=2)
        assert result.recall == 0.0
        assert result.num_users == 1

    def test_no_users(self):
        result = evaluate_rankings({}, {}, k=2)
        assert result.num_users == 0

    def test_percent_row(self):
        result = MetricResult(20, 0.123, 0.2, 0.3, 0.4, 0.5, 10)
        row = result.as_percent_row()
        assert row["R@20"] == 12.3
        assert row["M@20"] == 20.0


class TestHarmonicMean:
    def test_zero_side_gives_zero(self):
        assert harmonic_mean(0.0, 0.8) == 0.0

    def test_equal_sides(self):
        assert harmonic_mean(0.4, 0.4) == pytest.approx(0.4)

    def test_penalizes_short_barrel(self):
        assert harmonic_mean(0.01, 0.99) < 0.02

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    def test_bounded_by_min_and_max(self, a, b):
        hm = harmonic_mean(a, b)
        assert min(a, b) - 1e-12 <= hm <= max(a, b) + 1e-12

    def test_metricwise(self):
        cold = MetricResult(20, 0.2, 0.2, 0.2, 0.2, 0.2, 5)
        warm = MetricResult(20, 0.4, 0.4, 0.4, 0.4, 0.4, 7)
        hm = harmonic_mean_result(cold, warm)
        assert hm.recall == pytest.approx(2 * 0.2 * 0.4 / 0.6)

    def test_mismatched_k_raises(self):
        cold = MetricResult(10, 0.2, 0.2, 0.2, 0.2, 0.2, 5)
        warm = MetricResult(20, 0.4, 0.4, 0.4, 0.4, 0.4, 7)
        with pytest.raises(ValueError):
            harmonic_mean_result(cold, warm)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True),
       st.sets(st.integers(0, 30), min_size=1, max_size=5))
def test_metric_invariants(ranked, relevant):
    """All metrics live in [0,1]; recall <= hit; mrr <= hit."""
    ranked = np.asarray(ranked)
    k = len(ranked)
    values = {
        "recall": recall_at_k(ranked, relevant, k),
        "precision": precision_at_k(ranked, relevant, k),
        "hit": hit_at_k(ranked, relevant, k),
        "mrr": mrr_at_k(ranked, relevant, k),
        "ndcg": ndcg_at_k(ranked, relevant, k),
    }
    for name, value in values.items():
        assert 0.0 <= value <= 1.0, name
    assert values["recall"] <= values["hit"] + 1e-12
    assert values["mrr"] <= values["hit"] + 1e-12
    assert values["ndcg"] <= values["hit"] + 1e-12


# ---------------------------------------------------------------------------
# the array form against the per-user loop
# ---------------------------------------------------------------------------

def assert_bit_equal(result, expected):
    """Every field equal with ``==``: the same floats, not close ones."""
    got, want = dataclasses.asdict(result), dataclasses.asdict(expected)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], (name, got[name], want[name])


class TableModel:
    """Scores read from a fixed ``(num_users, num_items)`` table."""

    def __init__(self, scores):
        self.scores = scores

    def score_users(self, user_ids):
        return self.scores[np.asarray(user_ids)]


def pair_lists(num_users, num_items, max_size):
    return st.lists(st.tuples(st.integers(0, num_users - 1),
                              st.integers(0, num_items - 1)),
                    max_size=max_size)


def as_pairs(pairs):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


@st.composite
def random_splits(draw):
    """A split with random item partition and random pairs: duplicate
    pairs, users in any order, relevant sets of any size, and cold
    (or warm) candidate sets that may be empty."""
    num_users = draw(st.integers(1, 8))
    num_items = draw(st.integers(1, 12))
    cold = draw(st.lists(st.booleans(), min_size=num_items,
                         max_size=num_items))
    is_cold = np.asarray(cold, dtype=bool)
    pairs = {name: as_pairs(draw(pair_lists(num_users, num_items, size)))
             for name, size in (("train", 20), ("warm_test", 30),
                                ("cold_test", 30), ("known", 15))}
    split = ColdStartSplit(
        num_users=num_users, num_items=num_items,
        warm_items=np.flatnonzero(~is_cold),
        cold_items=np.flatnonzero(is_cold),
        train=pairs["train"], warm_val=pairs["warm_test"][::-1],
        warm_test=pairs["warm_test"], cold_val=pairs["cold_test"][::-1],
        cold_test=pairs["cold_test"], cold_test_known=pairs["known"],
        cold_test_unknown=pairs["cold_test"])
    # few distinct values force ties at every rank, the k-th included
    levels = draw(st.sampled_from([3, 1000]))
    seed = draw(st.integers(0, 2**16))
    scores = np.random.default_rng(seed).integers(
        0, levels, size=(num_users, num_items)).astype(np.float64)
    return split, TableModel(scores)


@settings(max_examples=200, deadline=None)
@given(random_splits(), st.integers(1, 14))
def test_array_metrics_equal_the_loop(drawn, k):
    split, model = drawn
    for which in ("warm_test", "cold_test", "warm_val", "cold_val"):
        assert_bit_equal(evaluate_scenario(model, split, which, k=k),
                         reference.evaluate_scenario(model, split, which,
                                                     k=k))
    assert_bit_equal(
        evaluate_normal_cold(model, split, k=k),
        reference.evaluate_scenario(model, split, "cold_test_unknown", k=k,
                                    known=split.cold_test_known))


def warm_split(pairs, num_users, num_items):
    """Every item warm and nothing trained: ``pairs`` ranked over the
    whole catalog."""
    return ColdStartSplit(
        num_users=num_users, num_items=num_items,
        warm_items=np.arange(num_items), cold_items=np.arange(0),
        train=pairs[:0], warm_val=pairs, warm_test=pairs, cold_val=pairs,
        cold_test=pairs)


def assert_warm_test_equal(model, split, k):
    assert_bit_equal(
        evaluate_scenario(model, split, "warm_test", k=k),
        reference.evaluate_scenario(model, split, "warm_test", k=k))


@pytest.mark.parametrize("per_user", [1, 3, 12])
def test_users_summed_in_pair_order(rng, per_user):
    """Users listed out of id order: the average must add their rows in
    the order each first appears in the pairs, not sorted by id."""
    num_users, num_items = 40, 30
    pairs = np.stack([
        rng.permutation(np.repeat(np.arange(num_users), per_user)),
        rng.integers(num_items, size=per_user * num_users)], axis=1)
    model = TableModel(rng.normal(size=(num_users, num_items)))
    for k in (1, 3, 10, 20):
        assert_warm_test_equal(model, warm_split(pairs, num_users,
                                                 num_items), k)


def test_dcg_adds_ranks_in_rank_order(rng):
    """One user at a time, so no average hides a last-bit change: with
    up to 20 hits in a ranking, DCG and IDCG must add the discounts rank
    by rank (a pairwise sum rounds differently)."""
    num_items = 30
    for _ in range(100):
        relevant = rng.choice(num_items, size=rng.integers(8, 25),
                              replace=False)
        pairs = np.stack([np.zeros_like(relevant), relevant], axis=1)
        model = TableModel(rng.normal(size=(1, num_items)))
        for k in (10, 20):
            assert_warm_test_equal(model, warm_split(pairs, 1, num_items),
                                   k)


@pytest.fixture(scope="module")
def trained_models(tiny_dataset):
    config = TrainConfig(epochs=3, eval_every=3, batch_size=128,
                         learning_rate=0.05)
    models = {"BPR": create_model("BPR", tiny_dataset, embedding_dim=8),
              "Firzen": FirzenModel(tiny_dataset, embedding_dim=16,
                                    rng=np.random.default_rng(0))}
    for model in models.values():
        train_model(model, tiny_dataset, config)
    return models


@pytest.mark.parametrize("name", ["BPR", "Firzen"])
@pytest.mark.parametrize("k", [1, 10, 20])
def test_trained_models_equal_the_loop(trained_models, tiny_dataset, name,
                                       k):
    model, split = trained_models[name], tiny_dataset.split
    for use_validation in (False, True):
        result = evaluate_model(model, split, k=k,
                                use_validation=use_validation)
        prefix = "warm_val" if use_validation else "warm_test"
        assert_bit_equal(result.warm, reference.evaluate_scenario(
            model, split, prefix, k=k))
        assert_bit_equal(result.cold, reference.evaluate_scenario(
            model, split, prefix.replace("warm", "cold"), k=k))
    assert_bit_equal(
        evaluate_normal_cold(model, split, k=k),
        reference.evaluate_scenario(model, split, "cold_test_unknown", k=k,
                                    known=split.cold_test_known))


def test_unpopulated_split_raises(tiny_dataset):
    split = dataclasses.replace(tiny_dataset.split, cold_test_unknown=None)
    model = TableModel(np.zeros((split.num_users, split.num_items)))
    with pytest.raises(ValueError, match="not populated"):
        evaluate_scenario(model, split, "cold_test_unknown")
    with pytest.raises(ValueError, match="not populated"):
        evaluate_normal_cold(model, split)
