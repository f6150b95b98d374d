"""Tests for BPR negative sampling."""

from __future__ import annotations

import numpy as np

from repro.train.sampler import BPRSampler


def _sampler(tiny_dataset, seed=0):
    return BPRSampler(tiny_dataset.split.train, tiny_dataset.num_items,
                      tiny_dataset.split.warm_items,
                      np.random.default_rng(seed))


class TestNegatives:
    def test_negatives_are_warm(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        warm = set(tiny_dataset.split.warm_items.tolist())
        users = tiny_dataset.split.train[:50, 0]
        negatives = sampler.sample_negatives(users)
        assert all(int(n) in warm for n in negatives)

    def test_negatives_avoid_positives(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        users = tiny_dataset.split.train[:200, 0]
        negatives = sampler.sample_negatives(users)
        collisions = sum(int(n) in sampler.positives_of(int(u))
                         for u, n in zip(users, negatives))
        assert collisions / len(users) < 0.05

    def test_deterministic_given_seed(self, tiny_dataset):
        users = tiny_dataset.split.train[:20, 0]
        a = _sampler(tiny_dataset, 3).sample_negatives(users)
        b = _sampler(tiny_dataset, 3).sample_negatives(users)
        np.testing.assert_array_equal(a, b)

    def test_uniform_covers_warm_items(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        draws = sampler._draw(5000)
        covered = len(set(draws.tolist()))
        assert covered > 0.8 * len(tiny_dataset.split.warm_items)


class TestEpochBatches:
    def test_covers_training_set(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        seen = 0
        for users, pos, neg in sampler.epoch_batches(64):
            assert len(users) == len(pos) == len(neg)
            seen += len(users)
        assert seen == len(tiny_dataset.split.train)

    def test_batch_pairs_are_training_pairs(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        train_pairs = set(map(tuple, tiny_dataset.split.train.tolist()))
        for users, pos, _ in sampler.epoch_batches(64):
            for u, p in zip(users, pos):
                assert (int(u), int(p)) in train_pairs

    def test_shuffling_differs_between_epochs(self, tiny_dataset):
        sampler = _sampler(tiny_dataset)
        first = next(iter(sampler.epoch_batches(64)))[0].copy()
        second = next(iter(sampler.epoch_batches(64)))[0].copy()
        assert not np.array_equal(first, second)
