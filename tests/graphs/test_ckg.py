"""Tests for the collaborative knowledge graph."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.kg_builder import KnowledgeGraph
from repro.graphs.ckg import build_collaborative_kg, sample_kg_negatives


def reference_kg_negatives(kg, batch_size, rng):
    """The per-slot rejection loop ``sample_kg_negatives`` replaced: each
    re-draw is tested with a one-element ``contains_triplets`` call."""
    idx = rng.integers(0, kg.num_triplets, size=batch_size)
    pos = kg.triplets[idx]
    neg_tails = rng.integers(0, kg.num_entities, size=batch_size)
    for i in np.flatnonzero(
            kg.contains_triplets(pos[:, 0], pos[:, 1], neg_tails)):
        tries = 0
        while kg.contains_triplets(
                pos[i, 0:1], pos[i, 1:2], neg_tails[i:i + 1])[0] \
                and tries < 10:
            neg_tails[i] = rng.integers(0, kg.num_entities)
            tries += 1
    return pos[:, 0], pos[:, 1], pos[:, 2], neg_tails


def dense_kg():
    """Six entities, two relations, every tail but entity 5: five of
    six tail draws collide, so about one slot in six keeps colliding
    through all ten re-draws."""
    heads, relations, tails = np.meshgrid(np.arange(6), np.arange(2),
                                          np.arange(5), indexing="ij")
    triplets = np.column_stack([heads.ravel(), relations.ravel(),
                                tails.ravel()])
    return KnowledgeGraph(triplets=triplets, num_entities=6,
                          num_relations=2, num_items=3)


@pytest.fixture(scope="module")
def ckg(tiny_dataset):
    return build_collaborative_kg(
        tiny_dataset.kg, tiny_dataset.split.train, tiny_dataset.num_users)


class TestConstruction:
    def test_node_layout(self, ckg, tiny_dataset):
        assert ckg.num_nodes == (tiny_dataset.kg.num_entities
                                 + tiny_dataset.num_users)
        assert ckg.interact_relation == tiny_dataset.kg.num_relations
        assert ckg.num_relations == tiny_dataset.kg.num_relations + 1

    def test_interact_triplets_both_directions(self, ckg, tiny_dataset):
        interact = ckg.triplets[ckg.triplets[:, 1] == ckg.interact_relation]
        # 2 directions per training interaction
        assert len(interact) == 2 * len(tiny_dataset.split.train)

    def test_user_node_offsets(self, ckg, tiny_dataset):
        nodes = ckg.user_node(np.array([0, 5]))
        np.testing.assert_array_equal(
            nodes, [tiny_dataset.kg.num_entities,
                    tiny_dataset.kg.num_entities + 5])

    def test_kg_triplets_preserved(self, ckg, tiny_dataset):
        non_interact = ckg.triplets[
            ckg.triplets[:, 1] != ckg.interact_relation]
        assert len(non_interact) == tiny_dataset.kg.num_triplets

    def test_cold_items_reachable_via_kg(self, ckg, tiny_dataset):
        """The property Firzen's cold path depends on: strict cold items
        are connected in the CKG even without interactions."""
        cold = set(tiny_dataset.split.cold_items.tolist())
        heads = set(ckg.triplets[:, 0].tolist())
        assert cold <= heads


class TestNegativeSampling:
    def test_shapes_and_ranges(self, tiny_dataset, rng):
        heads, relations, pos, neg = sample_kg_negatives(
            tiny_dataset.kg, 64, rng)
        for arr in (heads, relations, pos, neg):
            assert len(arr) == 64
        assert neg.max() < tiny_dataset.kg.num_entities

    def test_positives_are_real_triplets(self, tiny_dataset, rng):
        heads, relations, pos, _ = sample_kg_negatives(
            tiny_dataset.kg, 32, rng)
        existing = tiny_dataset.kg.triplet_set()
        for h, r, t in zip(heads, relations, pos):
            assert (int(h), int(r), int(t)) in existing

    def test_negatives_mostly_corrupted(self, tiny_dataset, rng):
        heads, relations, _, neg = sample_kg_negatives(
            tiny_dataset.kg, 128, rng)
        existing = tiny_dataset.kg.triplet_set()
        bad = sum((int(h), int(r), int(t)) in existing
                  for h, r, t in zip(heads, relations, neg))
        assert bad / 128 < 0.1

    def test_matches_per_slot_loop_on_a_dense_kg(self):
        kg = dense_kg()
        exhausted = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = sample_kg_negatives(kg, 64, rng)
            want = reference_kg_negatives(kg, 64, want_rng)
            for got_part, want_part in zip(got, want):
                np.testing.assert_array_equal(got_part, want_part)
            assert rng.bit_generator.state == want_rng.bit_generator.state
            exhausted += int(kg.contains_triplets(*got[:2], got[3]).sum())
        assert exhausted > 0     # some slots used up their ten re-draws

    def test_matches_per_slot_loop_on_the_tiny_kg(self, tiny_dataset):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            want_rng = np.random.default_rng(seed)
            got = sample_kg_negatives(tiny_dataset.kg, 512, rng)
            want = reference_kg_negatives(tiny_dataset.kg, 512, want_rng)
            np.testing.assert_array_equal(got[3], want[3])
            assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_empty_kg_raises(self, tiny_dataset, rng):
        empty = tiny_dataset.kg.with_triplets(
            np.empty((0, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            sample_kg_negatives(empty, 4, rng)
