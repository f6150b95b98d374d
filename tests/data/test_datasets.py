"""Tests for dataset assembly and the benchmark loaders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_amazon, load_weixin
from repro.data.weixin import _shatter_relations


class TestTinyDataset:
    def test_modalities(self, tiny_dataset):
        assert set(tiny_dataset.modalities) == {"text", "image"}
        assert tiny_dataset.feature_dim("text") == 12
        assert tiny_dataset.feature_dim("image") == 16

    def test_statistics_consistency(self, tiny_dataset):
        stats = tiny_dataset.statistics()
        assert stats.num_warm_items + stats.num_cold_items == stats.num_items
        assert 0.0 < stats.sparsity < 1.0
        row = stats.as_row()
        assert row["#Relations"] == 7  # 6 KG relations + Interact

    def test_with_kg_replaces_only_kg(self, tiny_dataset):
        other = tiny_dataset.with_kg(
            tiny_dataset.kg.with_triplets(tiny_dataset.kg.triplets[:5]))
        assert other.kg.num_triplets == 5
        assert other.split is tiny_dataset.split
        assert tiny_dataset.kg.num_triplets > 5


class TestLoaders:
    @pytest.mark.parametrize("subset", ["beauty", "cell_phones", "clothing"])
    def test_amazon_subsets(self, subset):
        ds = load_amazon(subset, size="tiny")
        assert ds.name == f"amazon-{subset}"
        assert ds.num_users > 0 and ds.num_items > 0
        assert len(ds.split.train) > 0

    def test_amazon_unknown_subset(self):
        with pytest.raises(ValueError):
            load_amazon("books")

    def test_amazon_deterministic(self):
        a = load_amazon("beauty", size="tiny")
        b = load_amazon("beauty", size="tiny")
        np.testing.assert_array_equal(a.split.train, b.split.train)

    def test_weixin_regime(self):
        """Weixin must be denser per item than the Amazon subsets and have
        a wide relation vocabulary (WikiSports-style)."""
        wx = load_weixin(size="tiny")
        beauty = load_amazon("beauty", size="tiny")
        assert wx.kg.num_relations > beauty.kg.num_relations
        assert (wx.statistics().avg_interactions_per_item
                > beauty.statistics().avg_interactions_per_item)

    def test_weixin_relation_ids_consistent(self):
        wx = load_weixin(size="tiny")
        assert wx.kg.triplets[:, 1].max() < wx.kg.num_relations
        assert len(wx.kg.relation_names) == wx.kg.num_relations


def loop_shatter(triplets, per_relation, salt):
    """The per-triplet Python loop the array expression replaced."""
    triplets = triplets.copy()
    for row in triplets:
        bucket = (int(row[2]) * 2654435761 + salt) % per_relation
        row[1] = int(row[1]) * per_relation + bucket
    return triplets


class TestWeixinShatter:
    @pytest.mark.parametrize("num_relations", [6, 24, 100])
    def test_equals_the_loop(self, num_relations):
        kg = load_amazon("beauty", size="tiny").kg
        shattered = _shatter_relations(kg, num_relations,
                                       np.random.default_rng(7))
        salt = int(np.random.default_rng(7).integers(1, 2 ** 31))
        per_relation = max(num_relations // kg.num_relations, 1)
        want = loop_shatter(kg.triplets, per_relation, salt)
        assert shattered.triplets.dtype == want.dtype
        assert shattered.triplets.tobytes() == want.tobytes()
        assert shattered.num_relations == kg.num_relations * per_relation

    def test_large_tails_hash_without_overflow(self):
        kg = load_amazon("beauty", size="tiny").kg
        tails = np.array([0, 2 ** 31, 3 * 10 ** 9, 3_400_000_000])
        big = kg.with_triplets(np.column_stack(
            [np.zeros(4, dtype=np.int64), np.arange(4), tails]))
        shattered = _shatter_relations(big, 24, np.random.default_rng(1))
        salt = int(np.random.default_rng(1).integers(1, 2 ** 31))
        want = loop_shatter(big.triplets, 4, salt)
        np.testing.assert_array_equal(shattered.triplets, want)
