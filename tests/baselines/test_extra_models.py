"""Tests for the extra models beyond the paper's roster."""

from __future__ import annotations

import numpy as np

from repro.baselines import create_model
from repro.eval import evaluate_scenario
from repro.train import TrainConfig, train_model

QUICK = TrainConfig(epochs=2, eval_every=2, batch_size=128,
                    learning_rate=0.05)


class TestRandom:
    def test_chance_level_cold(self, small_dataset):
        model = create_model("Random", small_dataset, seed=0)
        result = evaluate_scenario(model, small_dataset.split, "cold_test",
                                   k=10)
        # chance recall ~= k / |cold candidates|
        chance = 10 / len(small_dataset.split.cold_items)
        assert 0.3 * chance < result.recall < 3.0 * chance

    def test_trainable_noop(self, tiny_dataset):
        model = create_model("Random", tiny_dataset, seed=0)
        before = model.score_users(np.arange(3)).copy()
        train_model(model, tiny_dataset, QUICK)
        np.testing.assert_allclose(model.score_users(np.arange(3)), before)


class TestMostPopular:
    def test_ranks_by_popularity(self, tiny_dataset):
        model = create_model("MostPopular", tiny_dataset, seed=0)
        scores = model.score_users(np.array([0]))[0]
        counts = np.zeros(tiny_dataset.num_items)
        items, freq = np.unique(tiny_dataset.split.train[:, 1],
                                return_counts=True)
        counts[items] = freq
        top_scored = int(np.argmax(scores))
        assert counts[top_scored] == counts.max()

    def test_identical_for_all_users(self, tiny_dataset):
        model = create_model("MostPopular", tiny_dataset, seed=0)
        scores = model.score_users(np.arange(4))
        for row in range(1, 4):
            np.testing.assert_allclose(scores[row], scores[0])

    def test_beats_random_warm(self, small_dataset):
        popular = create_model("MostPopular", small_dataset, seed=0)
        random = create_model("Random", small_dataset, seed=0)
        pop = evaluate_scenario(popular, small_dataset.split, "warm_test",
                                k=10)
        rnd = evaluate_scenario(random, small_dataset.split, "warm_test",
                                k=10)
        assert pop.recall > rnd.recall

    def test_cold_items_get_zero_popularity(self, tiny_dataset):
        model = create_model("MostPopular", tiny_dataset, seed=0)
        scores = model.score_users(np.array([0]))[0]
        cold = tiny_dataset.split.cold_items
        warm_max = scores[tiny_dataset.split.warm_items].max()
        assert scores[cold].max() < warm_max

