"""Tests for knowledge-graph construction."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import text_reference
from repro.data import kg_builder
from repro.data.kg_builder import (RELATION_INDEX, RELATIONS,
                                   _cooccurrence_pairs, _similarity_pairs,
                                   build_knowledge_graph)
from repro.data.world import WorldConfig, generate_world

MODULE_WORLD = WorldConfig(
    num_users=80, num_items=50, vocab_size=100, cluster_vocab_size=10,
    num_brands=8, num_categories=5, seed=9)


@pytest.fixture(scope="module")
def world():
    return generate_world(MODULE_WORLD)


@pytest.fixture(scope="module")
def kg(world):
    return build_knowledge_graph(world)


class TestSchema:
    def test_six_relations(self, kg):
        assert kg.num_relations == 6
        assert len(RELATIONS) == 6

    def test_items_are_lowest_entity_ids(self, kg, world):
        assert kg.num_items == 50
        # produced_by triplets must have item heads
        produced = kg.triplets[kg.triplets[:, 1]
                               == RELATION_INDEX["produced_by"]]
        assert produced[:, 0].max() < 50

    def test_every_item_has_brand_and_category(self, kg, world):
        for relation in ("produced_by", "belong_to"):
            rows = kg.triplets[kg.triplets[:, 1] == RELATION_INDEX[relation]]
            assert set(rows[:, 0].tolist()) == set(range(50))

    def test_brand_tails_in_brand_range(self, kg, world):
        produced = kg.triplets[kg.triplets[:, 1]
                               == RELATION_INDEX["produced_by"]]
        tails = produced[:, 2]
        num_features = kg.num_entities - 50 - 8 - 5
        brand_base = 50 + num_features
        assert tails.min() >= brand_base
        assert tails.max() < brand_base + 8

    def test_entity_ids_in_range(self, kg):
        assert kg.triplets[:, [0, 2]].max() < kg.num_entities
        assert kg.triplets.min() >= 0

    def test_no_duplicate_triplets(self, kg):
        assert len(kg.triplet_set()) == kg.num_triplets

    def test_labels_cover_all_entities(self, kg):
        assert len(kg.entity_labels) == kg.num_entities


class TestCooccurrenceRelations:
    def test_item_item_relations_present(self, kg):
        for relation in ("also_bought", "also_viewed", "bought_together"):
            rows = kg.triplets[kg.triplets[:, 1] == RELATION_INDEX[relation]]
            assert len(rows) > 0
            assert rows[:, 2].max() < kg.num_items  # tails are items

    def test_brand_matches_world(self, kg, world):
        produced = kg.triplets[kg.triplets[:, 1]
                               == RELATION_INDEX["produced_by"]]
        num_features = kg.num_entities - 50 - 8 - 5
        brand_base = 50 + num_features
        for head, _, tail in produced[:10]:
            assert world.item_brand[head] == tail - brand_base


class TestMutation:
    def test_with_triplets_preserves_metadata(self, kg):
        sub = kg.with_triplets(kg.triplets[:10])
        assert sub.num_triplets == 10
        assert sub.num_entities == kg.num_entities
        assert sub.num_relations == kg.num_relations


# ---------------------------------------------------------------------------
# the loop-and-full-matrix builder, kept as a byte-exact reference
# ---------------------------------------------------------------------------

def reference_cooccurrence_pairs(interactions, num_items, top_k):
    """Stable Python sort by -count over the COO entries of the product."""
    users = interactions[:, 0]
    items = interactions[:, 1]
    matrix = sp.csr_matrix(
        (np.ones(len(items)), (users, items)),
        shape=(int(users.max()) + 1 if len(users) else 1, num_items),
    )
    co = (matrix.T @ matrix).tocoo()
    pairs = [
        (int(i), int(j), float(v))
        for i, j, v in zip(co.row, co.col, co.data)
        if i != j
    ]
    pairs.sort(key=lambda p: -p[2])
    return [(i, j) for i, j, _ in pairs[:top_k]]


def reference_similarity_pairs(features, top_k):
    """Stable descending order over the whole n×n similarity matrix,
    capped at the n·(n-1) pairs that are not self-pairs."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = features / norms
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    num_items = len(features)
    top_k = min(top_k, num_items * (num_items - 1))
    flat = np.argsort(sims, axis=None, kind="stable")[::-1][:top_k]
    return [divmod(int(idx), num_items) for idx in flat]


def reference_triplets(world, cooccurrence_top_k=None,
                       similarity_top_k=None, min_frequency=10):
    """Python triplet list, deduplicated and sorted with sorted(set(...)),
    with the feature words of the ``Counter`` TF-IDF reference."""
    config = world.config
    num_items = config.num_items
    tfidf = text_reference.select_feature_words(
        text_reference.world_reviews(world), min_frequency=min_frequency,
        max_frequency=1000, min_score=0.02)
    feature_index = {w: i for i, w in enumerate(tfidf.selected_words)}
    brand_base = num_items + len(feature_index)
    category_base = brand_base + config.num_brands
    triplets = []
    for item, words in tfidf.item_words.items():
        for word in words:
            triplets.append((item, RELATION_INDEX["described_by"],
                             num_items + feature_index[word]))
    for item in range(num_items):
        triplets.append((item, RELATION_INDEX["produced_by"],
                         brand_base + int(world.item_brand[item])))
        triplets.append((item, RELATION_INDEX["belong_to"],
                         category_base + int(world.item_category[item])))
    co_pairs = reference_cooccurrence_pairs(
        world.interactions, num_items,
        num_items if cooccurrence_top_k is None else cooccurrence_top_k)
    for idx, (i, j) in enumerate(co_pairs):
        relation = "also_bought" if idx % 2 == 0 else "bought_together"
        triplets.append((i, RELATION_INDEX[relation], j))
    sim_pairs = reference_similarity_pairs(
        world.text_features,
        num_items if similarity_top_k is None else similarity_top_k)
    for i, j in sim_pairs:
        triplets.append((i, RELATION_INDEX["also_viewed"], j))
    return np.asarray(sorted(set(triplets)), dtype=np.int64)


def repeated_rows_world():
    """Ten distinct text rows repeated five times: the top-50 similarities
    are all near 1, so the cut falls inside groups of exactly equal ones."""
    world = generate_world(MODULE_WORLD)
    return dataclasses.replace(
        world, text_features=world.text_features[np.arange(50) % 10])


REFERENCE_CASES = {
    "golden": (lambda: generate_world(text_reference.golden_config()), {}),
    "module-50": (lambda: generate_world(MODULE_WORLD), {}),
    "items-45": (lambda: generate_world(
        WorldConfig(num_users=70, num_items=45, seed=3)), {}),
    "repeated-text-rows": (repeated_rows_world, {}),
    "top-k-7": (lambda: generate_world(MODULE_WORLD),
                {"cooccurrence_top_k": 7, "similarity_top_k": 7}),
    "items-2": (lambda: generate_world(
        WorldConfig(num_users=20, num_items=2, seed=0)), {}),
    "vocab-12000": (lambda: generate_world(
        text_reference.LARGE_VOCABULARY_WORLD), {"min_frequency": 2}),
}


class TestReferenceBuilder:
    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_triplets_byte_identical(self, case):
        make_world, top_k = REFERENCE_CASES[case]
        world = make_world()
        got = build_knowledge_graph(world, **top_k).triplets
        want = reference_triplets(world, **top_k)
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_repeated_rows_tie_across_the_cut(self):
        features = repeated_rows_world().text_features
        unit = features / np.linalg.norm(features, axis=1, keepdims=True)
        sims = unit @ unit.T
        np.fill_diagonal(sims, -np.inf)
        ranked = np.sort(sims, axis=None)[::-1]
        assert ranked[49] == ranked[50]


class TestSelfPairs:
    @pytest.mark.parametrize("num_items, similarity_top_k",
                             [(1, None), (5, 25)])
    def test_also_viewed_has_no_self_pair(self, num_items,
                                          similarity_top_k):
        world = generate_world(WorldConfig(num_users=20,
                                           num_items=num_items, seed=0))
        kg = build_knowledge_graph(world, similarity_top_k=similarity_top_k)
        viewed = kg.triplets[kg.triplets[:, 1]
                             == RELATION_INDEX["also_viewed"]]
        assert len(viewed) == num_items * (num_items - 1)
        assert not np.any(viewed[:, 0] == viewed[:, 2])


def full_sort_cooccurrence_pairs(interactions, num_items, top_k):
    """The plain stable argsort of every off-diagonal count."""
    users = interactions[:, 0]
    items = interactions[:, 1]
    matrix = sp.csr_matrix((np.ones(len(items)), (users, items)),
                           shape=(int(users.max()) + 1, num_items))
    co = (matrix.T @ matrix).tocoo()
    off_diagonal = co.row != co.col
    order = np.argsort(-co.data[off_diagonal], kind="stable")[:top_k]
    return (co.row[off_diagonal][order].astype(np.int64),
            co.col[off_diagonal][order].astype(np.int64))


COOCCURRENCE_TOP_K = {
    "zero": lambda num_items, entries: 0,
    "seven": lambda num_items, entries: 7,
    "num-items": lambda num_items, entries: num_items,
    "entries": lambda num_items, entries: entries,
    "above-entries": lambda num_items, entries: entries + 5,
}


class TestCooccurrenceSelection:
    """The partition keeps the full stable sort's prefix, in its order,
    on the train-catalog world (437,614 entries)."""

    @pytest.fixture(scope="class")
    def catalog(self):
        world = generate_world(text_reference.CATALOG_WORLD)
        users, items = world.interactions.T
        matrix = sp.csr_matrix((np.ones(len(items)), (users, items)))
        co = (matrix.T @ matrix).tocoo()
        return world, co.data[co.row != co.col]

    @pytest.mark.parametrize("top_k", list(COOCCURRENCE_TOP_K))
    def test_equals_the_full_stable_sort(self, catalog, top_k):
        world, counts = catalog
        num_items = world.config.num_items
        top_k = COOCCURRENCE_TOP_K[top_k](num_items, len(counts))
        got = _cooccurrence_pairs(world.interactions, num_items, top_k)
        want = full_sort_cooccurrence_pairs(world.interactions, num_items,
                                            top_k)
        assert len(got[0]) == min(top_k, len(counts))
        for got_side, want_side in zip(got, want):
            assert got_side.dtype == want_side.dtype
            assert got_side.tobytes() == want_side.tobytes()

    def test_the_default_cut_falls_inside_a_tie(self, catalog):
        world, counts = catalog
        ranked = np.sort(counts)[::-1]
        num_items = world.config.num_items
        assert ranked[num_items - 1] == ranked[num_items]


@pytest.mark.parametrize("panel_elements", [50, 120, 1000])
def test_panels_select_like_one_matrix_of_the_same_panels(monkeypatch,
                                                          panel_elements):
    """Panels of 1, 2 and 20 rows over 50 items with exact ties: the
    running cut keeps what a stable sort of the stacked panels keeps."""
    monkeypatch.setattr(kg_builder, "PANEL_ELEMENTS", panel_elements)
    features = repeated_rows_world().text_features
    num_items = len(features)
    unit = features / np.linalg.norm(features, axis=1, keepdims=True)
    rows = panel_elements // num_items or 1
    sims = np.vstack([unit[start:start + rows] @ unit.T
                      for start in range(0, num_items, rows)])
    np.fill_diagonal(sims, -np.inf)
    for top_k in (7, num_items, 3 * num_items):
        want = np.argsort(sims, axis=None, kind="stable")[::-1][:top_k]
        heads, tails = _similarity_pairs(features, top_k)
        np.testing.assert_array_equal(heads * num_items + tails, want)


def test_similarity_pairs_never_hold_a_dense_matrix():
    """numpy reports its buffers to tracemalloc; the peak must stay below
    half of one dense 3000 x 3000 float64 similarity matrix."""
    num_items = 3000
    features = np.random.default_rng(0).standard_normal((num_items, 48))
    tracemalloc.start()
    try:
        heads, _ = _similarity_pairs(features, num_items)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(heads) == num_items
    assert peak < num_items * num_items * 8 / 2
