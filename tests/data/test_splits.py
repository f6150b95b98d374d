"""Tests for the strict cold-start split construction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.splits import make_cold_start_split, split_normal_cold
from repro.data.world import WorldConfig, generate_world


@pytest.fixture(scope="module")
def split():
    world = generate_world(WorldConfig(num_users=100, num_items=60, seed=2))
    rng = np.random.default_rng(0)
    s = make_cold_start_split(world.interactions, 100, 60, rng)
    return split_normal_cold(s, rng)


class TestPartition:
    def test_cold_fraction(self, split):
        assert len(split.cold_items) == 12  # 20% of 60

    def test_items_partitioned(self, split):
        combined = np.concatenate([split.warm_items, split.cold_items])
        assert sorted(combined.tolist()) == list(range(60))

    def test_no_cold_items_in_train(self, split):
        cold = set(split.cold_items.tolist())
        assert not any(int(i) in cold for i in split.train[:, 1])

    def test_no_cold_items_in_warm_eval(self, split):
        cold = set(split.cold_items.tolist())
        for arr in (split.warm_val, split.warm_test):
            assert not any(int(i) in cold for i in arr[:, 1])

    def test_cold_eval_only_cold_items(self, split):
        cold = set(split.cold_items.tolist())
        for arr in (split.cold_val, split.cold_test):
            assert all(int(i) in cold for i in arr[:, 1])

    def test_cold_val_test_near_equal(self, split):
        assert abs(len(split.cold_val) - len(split.cold_test)) <= 1

    def test_warm_ratio_roughly_8_1_1(self, split):
        total = (len(split.train) + len(split.warm_val)
                 + len(split.warm_test))
        assert 0.72 <= len(split.train) / total <= 0.88
        assert abs(len(split.warm_val) - len(split.warm_test)) \
            <= 0.25 * max(len(split.warm_test), 1)

    def test_interactions_conserved(self, split):
        world = generate_world(WorldConfig(num_users=100, num_items=60,
                                           seed=2))
        total = (len(split.train) + len(split.warm_val)
                 + len(split.warm_test) + len(split.cold_val)
                 + len(split.cold_test))
        assert total == len(world.interactions)

    def test_every_training_user_kept_history(self, split):
        """Per-user stratification: any user with warm interactions keeps
        at least one in train."""
        warm_users = set(np.concatenate(
            [split.warm_val[:, 0], split.warm_test[:, 0]]).tolist())
        train_users = set(split.train[:, 0].tolist())
        assert warm_users <= train_users


class TestValidation:
    @pytest.mark.parametrize("cold_fraction", [-0.2, 1.5])
    def test_rejects_cold_fraction_outside_unit_interval(self,
                                                         cold_fraction):
        """-0.2 would slice 16 of 20 items cold from the end of the
        shuffle, 1.5 every item, leaving no training set."""
        world = generate_world(WorldConfig(num_users=30, num_items=20,
                                           seed=1))
        with pytest.raises(ValueError, match="cold_fraction"):
            make_cold_start_split(world.interactions, 30, 20,
                                  np.random.default_rng(0),
                                  cold_fraction=cold_fraction)

    @pytest.mark.parametrize("cold_fraction, num_cold", [(0.0, 0),
                                                         (1.0, 20)])
    def test_accepts_the_edges(self, cold_fraction, num_cold):
        world = generate_world(WorldConfig(num_users=30, num_items=20,
                                           seed=1))
        split = make_cold_start_split(world.interactions, 30, 20,
                                      np.random.default_rng(0),
                                      cold_fraction=cold_fraction)
        assert len(split.cold_items) == num_cold


class TestHelpers:
    def test_is_cold_mask(self, split):
        mask = split.is_cold
        assert mask.sum() == len(split.cold_items)
        assert np.all(mask[split.cold_items])

    def test_ground_truth_contents(self, split):
        truth = split.ground_truth("cold_test")
        pairs = {(u, i) for u, items in truth.items() for i in items}
        assert pairs == set(map(tuple, split.cold_test.tolist()))

    def test_ground_truth_unknown_split_raises(self, split):
        with pytest.raises((AttributeError, ValueError)):
            split.ground_truth("nonexistent")

    def test_train_items_by_user(self, split):
        seen = split.train_items_by_user()
        user, item = split.train[0]
        assert int(item) in seen[int(user)]


class TestNormalCold:
    def test_known_unknown_partition(self, split):
        known = set(map(tuple, split.cold_test_known.tolist()))
        unknown = set(map(tuple, split.cold_test_unknown.tolist()))
        full = set(map(tuple, split.cold_test.tolist()))
        assert known | unknown == full
        assert not (known & unknown)

    def test_halves_near_equal(self, split):
        assert abs(len(split.cold_test_known)
                   - len(split.cold_test_unknown)) <= 1
