"""Tests for the synthetic world generator.

Reviews are drawn as one word-id matrix; the per-review loop that drew
them as strings is kept in ``text_reference.py``, and the matrix must
hold its words and leave the generator in its state.  Interactions are
drawn without ``Generator.choice``; the per-user ``rng.choice`` loop
that drew them is kept here, and the draw must return its bytes and
leave the generator in its state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import text_reference as reference
from repro.data.amazon import beauty_config
from repro.data.weixin import weixin_config
from repro.data.world import (WorldConfig, _draw_without_replacement,
                              _sample_interactions, _sample_reviews,
                              apply_k_core, generate_world)


@pytest.fixture(scope="module")
def world():
    return generate_world(WorldConfig(
        num_users=80, num_items=50, num_clusters=4, latent_dim=8,
        vocab_size=100, cluster_vocab_size=10, seed=7))


class TestGeneration:
    def test_shapes(self, world):
        config = world.config
        assert world.user_latents.shape == (80, 8)
        assert world.item_latents.shape == (50, 8)
        assert world.text_features.shape == (50, config.text_feature_dim)
        assert world.image_features.shape == (50, config.image_feature_dim)
        assert world.item_brand.shape == (50,)
        assert world.item_category.shape == (50,)

    def test_deterministic_given_seed(self):
        config = WorldConfig(num_users=30, num_items=20, seed=3)
        a = generate_world(config)
        b = generate_world(config)
        np.testing.assert_array_equal(a.interactions, b.interactions)
        np.testing.assert_allclose(a.text_features, b.text_features)

    def test_different_seeds_differ(self):
        a = generate_world(WorldConfig(num_users=30, num_items=20, seed=3))
        b = generate_world(WorldConfig(num_users=30, num_items=20, seed=4))
        assert not np.array_equal(a.interactions, b.interactions)

    def test_interactions_valid_and_unique_per_user(self, world):
        inter = world.interactions
        assert inter[:, 0].min() >= 0 and inter[:, 0].max() < 80
        assert inter[:, 1].min() >= 0 and inter[:, 1].max() < 50
        pairs = set(map(tuple, inter))
        assert len(pairs) == len(inter)

    def test_every_user_has_at_least_five(self, world):
        _, counts = np.unique(world.interactions[:, 0], return_counts=True)
        assert counts.min() >= 5

    def test_one_review_per_interaction(self, world):
        assert len(world.reviews) == len(world.interactions)
        assert world.reviews.shape[1] == world.config.words_per_review
        assert world.reviews.dtype == np.int64
        assert 0 <= world.reviews.min()
        assert world.reviews.max() < len(world.vocabulary)

    def test_interactions_respect_latent_affinity(self, world):
        """Interacted pairs should have above-average latent affinity —
        the property every preference model here tries to recover."""
        scores = world.user_latents @ world.item_latents.T
        interacted = scores[world.interactions[:, 0],
                            world.interactions[:, 1]]
        assert interacted.mean() > scores.mean() + 0.5

    def test_features_correlate_with_clusters(self, world):
        """Items in the same cluster should have more similar text features
        than items in different clusters (the cold-start transfer signal)."""
        feats = world.text_features
        unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        sims = unit @ unit.T
        same = world.item_clusters[:, None] == world.item_clusters[None, :]
        np.fill_diagonal(same, False)
        off_diag = ~np.eye(len(feats), dtype=bool)
        assert sims[same].mean() > sims[~same & off_diag].mean() + 0.1

    def test_brand_mostly_cluster_determined(self, world):
        """With fidelity 0.85, most items in a cluster share one brand."""
        majority_share = []
        for cluster in np.unique(world.item_clusters):
            brands = world.item_brand[world.item_clusters == cluster]
            _, counts = np.unique(brands, return_counts=True)
            majority_share.append(counts.max() / len(brands))
        assert np.mean(majority_share) > 0.6


def small_world(**overrides) -> WorldConfig:
    return WorldConfig(**{"num_users": 30, "num_items": 20,
                          "num_clusters": 4, "seed": 1, **overrides})


SAMPLING_WORLDS = {
    "catalog": lambda: reference.CATALOG_WORLD,
    "beauty": beauty_config,
    "weixin": weixin_config,
    "golden": reference.golden_config,
    "words-0": lambda: small_world(words_per_review=0),
    "words-1": lambda: small_world(words_per_review=1),
    "words-7": lambda: small_world(words_per_review=7),
    "vocab-is-block": lambda: small_world(vocab_size=30,
                                          cluster_vocab_size=30),
    # 8 blocks of 10 in (50 - 10): the later clusters' blocks wrap
    "blocks-wrap": lambda: small_world(num_clusters=8, vocab_size=50,
                                       cluster_vocab_size=10),
    # a one-word block draws nothing from the generator
    "block-1": lambda: small_world(cluster_vocab_size=1),
}


def twin_generators(seed: int, skip: int):
    """Two generators in one state; ``skip`` 32-bit draws leave a
    buffered half in PCG64."""
    rng = np.random.default_rng(seed)
    rng.integers(0, 10, size=skip)
    twin = np.random.default_rng()
    twin.bit_generator.state = rng.bit_generator.state
    return rng, twin


class TestReviewSampling:
    @pytest.mark.parametrize("skip", [0, 1], ids=["fresh", "mid-stream"])
    @pytest.mark.parametrize("case", list(SAMPLING_WORLDS))
    def test_matches_the_per_review_loop(self, case, skip):
        """Same words, and the generator left in the same state (PCG64's
        buffered 32-bit half included), from a fresh generator and from
        one that holds a buffered half."""
        config = SAMPLING_WORLDS[case]()
        world = generate_world(config)
        rng, twin = twin_generators(config.seed + 100, skip)
        got = _sample_reviews(rng, config, world.interactions,
                              world.item_clusters)
        want = reference.sample_reviews(twin, config, world.interactions,
                                        world.item_clusters,
                                        world.vocabulary)
        assert got.dtype == np.int64
        assert got.shape == (len(world.interactions),
                             config.words_per_review)
        assert [[world.vocabulary[w] for w in row] for row in got] \
            == [words for _, _, words in want]
        assert rng.bit_generator.state == twin.bit_generator.state


def reference_sample_interactions(rng, config, user_latents, item_latents):
    """The per-user ``rng.choice`` loop the draw must equal byte for
    byte, generator state included."""
    scores = user_latents @ item_latents.T
    pairs: list[tuple[int, int]] = []
    mean_extra = max(config.interactions_per_user_mean - 5.0, 0.5)
    for user in range(config.num_users):
        count = 5 + rng.geometric(1.0 / (1.0 + mean_extra)) - 1
        count = min(count, config.num_items - 1)
        logits = scores[user] / config.interaction_temperature
        logits = logits - logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        items = rng.choice(config.num_items, size=count, replace=False,
                           p=probs)
        pairs.extend((user, int(item)) for item in items)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


class TestInteractionSampling:
    @pytest.mark.parametrize("skip", [0, 1], ids=["fresh", "mid-stream"])
    @pytest.mark.parametrize("case", list(SAMPLING_WORLDS))
    def test_matches_the_per_user_choice_loop(self, case, skip):
        config = SAMPLING_WORLDS[case]()
        world = generate_world(config)
        rng, twin = twin_generators(config.seed + 100, skip)
        got = _sample_interactions(rng, config, world.user_latents,
                                   world.item_latents)
        want = reference_sample_interactions(
            twin, config, world.user_latents, world.item_latents)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_underflowing_softmax_raises_on_both_sides(self):
        """At temperature 1e-4 most of a user's probabilities underflow
        to 0, leaving fewer non-zero items than the count: both sides
        raise, and neither loops."""
        world = generate_world(small_world())
        config = small_world(interaction_temperature=1e-4)
        rng, twin = twin_generators(5, 0)
        with pytest.raises(ValueError, match="non-zero"):
            _sample_interactions(rng, config, world.user_latents,
                                 world.item_latents)
        with pytest.raises(ValueError, match="non-zero"):
            reference_sample_interactions(twin, config, world.user_latents,
                                          world.item_latents)


class TestDrawWithoutReplacement:
    def test_raises_on_nan(self):
        rng, twin = twin_generators(0, 0)
        row = np.array([0.5, np.nan])
        with pytest.raises(ValueError, match="NaN"):
            _draw_without_replacement(rng, row, 1)
        with pytest.raises(ValueError, match="NaN"):
            twin.choice(2, size=1, replace=False, p=row)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_raises_on_too_few_non_zero_entries(self):
        rng, twin = twin_generators(0, 0)
        row = np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="non-zero"):
            _draw_without_replacement(rng, row, 2)
        with pytest.raises(ValueError, match="non-zero"):
            twin.choice(3, size=2, replace=False, p=row)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_takes_every_non_zero_entry(self):
        """Every non-zero entry is drawn, the one at 1e-300 too: it has
        no width in the cumulative sum until the 1.0 beside it is
        zeroed."""
        row = np.array([0.0, 1.0, 0.0, 1e-300, 0.0])
        row /= row.sum()
        rng, twin = twin_generators(3, 0)
        got = _draw_without_replacement(rng, row.copy(), 2)
        want = twin.choice(len(row), size=2, replace=False, p=row)
        assert got == want.tolist() == [1, 3]
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_count_zero_draws_nothing(self):
        rng, twin = twin_generators(0, 0)
        assert _draw_without_replacement(rng, np.array([1.0]), 0) == []
        assert rng.bit_generator.state == twin.bit_generator.state


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, field", [
        ({"vocab_size": 20, "cluster_vocab_size": 30},
         "cluster_vocab_size"),
        ({"cluster_vocab_size": 0}, "cluster_vocab_size"),
        ({"words_per_review": -1}, "words_per_review"),
        # preferences inverted: users would pick their lowest scores
        ({"interaction_temperature": -1.0}, "interaction_temperature"),
        # scores divided by zero: NaN probabilities in the draw
        ({"interaction_temperature": 0.0}, "interaction_temperature"),
    ])
    def test_rejects_out_of_range_fields(self, overrides, field):
        with pytest.raises(ValueError, match=field):
            WorldConfig(**overrides)

    def test_accepts_the_edges(self):
        WorldConfig(vocab_size=30, cluster_vocab_size=30)
        WorldConfig(cluster_vocab_size=1, words_per_review=0)


class TestKCore:
    def test_removes_sparse_users(self):
        inter = np.array([[0, 0], [0, 1], [0, 2], [0, 3], [0, 4],
                          [1, 0], [1, 1]])
        out = apply_k_core(inter, k=5)
        assert set(out[:, 0]) == {0}

    def test_keeps_everything_when_dense(self, world):
        out = apply_k_core(world.interactions, k=5)
        assert len(out) == len(world.interactions)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=6))
    def test_all_surviving_users_meet_threshold(self, k):
        rng = np.random.default_rng(k)
        inter = np.stack([rng.integers(0, 10, 60),
                          rng.integers(0, 15, 60)], axis=1)
        out = apply_k_core(inter, k=k)
        if len(out):
            _, counts = np.unique(out[:, 0], return_counts=True)
            assert counts.min() >= k

    @staticmethod
    def _legacy_k_core(interactions, k):
        """The original per-round boolean-mask loop, repeated until no
        row is dropped, that the single ``bincount`` pass must equal
        bit-for-bit."""
        current = np.asarray(interactions)
        while True:
            if len(current) == 0:
                return current
            users, counts = np.unique(current[:, 0], return_counts=True)
            keep = set(users[counts >= k].tolist())
            mask = np.array([u in keep for u in current[:, 0]])
            filtered = current[mask]
            if len(filtered) == len(current):
                return filtered
            current = filtered

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=1, max_value=8))
    @example(seed=0, k=10**6)  # a k that empties the world
    def test_bincount_k_core_matches_legacy_loop(self, seed, k):
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(0, 120))
        inter = np.stack([rng.integers(0, 12, rows),
                          rng.integers(0, 20, rows)], axis=1)
        np.testing.assert_array_equal(apply_k_core(inter, k=k),
                                      self._legacy_k_core(inter, k))
