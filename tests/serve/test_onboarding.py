"""Tests for online cold-start onboarding (`serve.ingest_items`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import create_model
from repro.serve import (BatchRanker, EmbeddingStore, expand_item_graph,
                         ingest_items)


@pytest.fixture()
def store(tiny_dataset):
    model = create_model("BPR", tiny_dataset, embedding_dim=8)
    return EmbeddingStore.from_model(model, tiny_dataset)


def twin_features(store, warm_item: int) -> dict:
    """Features identical to an existing warm item's."""
    return {modality: store.features[modality][warm_item][None, :].copy()
            for modality in store.modalities}


class TestExpandItemGraph:
    def test_twin_is_nearest_neighbor(self, store):
        warm = store.warm_items()
        target = int(warm[0])
        modality = store.modalities[0]
        expansion = expand_item_graph(
            store.features[modality],
            store.features[modality][target][None, :], warm, top_k=5,
            modality=modality)
        assert expansion.neighbors.shape == (1, 5)
        assert expansion.neighbors[0, 0] == target
        assert expansion.similarities[0, 0] == pytest.approx(1.0)
        # Neighbors sorted by descending similarity.
        assert (np.diff(expansion.similarities[0]) <= 1e-12).all()

    def test_only_warm_sources(self, store, rng):
        warm = store.warm_items()
        modality = store.modalities[0]
        expansion = expand_item_graph(
            store.features[modality],
            rng.normal(size=(3, store.features[modality].shape[1])),
            warm, top_k=4)
        assert np.isin(expansion.neighbors, warm).all()


class TestIngestItems:
    def test_new_items_get_ids_and_flags(self, store, rng):
        before = store.num_items
        features = {m: rng.normal(size=(2, store.features[m].shape[1]))
                    for m in store.modalities}
        new_ids = store.ingest_items(features)
        np.testing.assert_array_equal(new_ids, [before, before + 1])
        assert store.num_items == before + 2
        assert store.is_cold[new_ids].all()
        assert store.is_ingested[new_ids].all()
        assert store.seen.shape == (store.num_users, store.num_items)
        for modality in store.modalities:
            assert store.features[modality].shape[0] == store.num_items

    def test_new_item_is_retrievable(self, store):
        target = int(store.warm_items()[3])
        new_ids = store.ingest_items(twin_features(store, target))
        ranker = BatchRanker.from_store(store)
        result = ranker.topk(np.arange(4), 3, candidates=new_ids,
                             mask_seen=False)
        assert (result.items == new_ids[0]).all()
        assert np.isfinite(result.scores).all()

    def test_twin_scores_close_to_neighborhood(self, store):
        # A twin of a warm item aggregates that item's kNN neighborhood,
        # so its vector must be far closer to the twin than random items.
        target = int(store.warm_items()[0])
        new_ids = store.ingest_items(twin_features(store, target))
        new_vec = store.item_vectors[new_ids[0]]
        target_vec = store.item_vectors[target]
        others = store.item_vectors[store.warm_items()]
        distance = np.linalg.norm(new_vec - target_vec)
        median_distance = np.median(
            np.linalg.norm(others - target_vec, axis=1))
        assert distance < median_distance

    def test_warm_rankings_unchanged(self, store, rng):
        users = np.arange(10)
        warm = store.warm_items()
        ranker_before = BatchRanker.from_store(store)
        before = ranker_before.topk(users, 10, candidates=warm)
        features = {m: rng.normal(size=(3, store.features[m].shape[1]))
                    for m in store.modalities}
        store.ingest_items(features)
        after = BatchRanker.from_store(store).topk(users, 10,
                                                   candidates=warm)
        np.testing.assert_array_equal(before.items, after.items)
        np.testing.assert_array_equal(before.scores, after.scores)

    def test_ingested_never_a_source(self, store, rng):
        # Items onboarded earlier must not influence later onboarding
        # (warm -> cold only, eq. 34-35).
        first = store.ingest_items(twin_features(store,
                                                 int(store.warm_items()[0])))
        vec_before = store.item_vectors[first[0]].copy()
        features = {m: rng.normal(size=(5, store.features[m].shape[1]))
                    for m in store.modalities}
        second = store.ingest_items(features)
        expansion = expand_item_graph(
            store.features[store.modalities[0]],
            np.asarray(features[store.modalities[0]], dtype=np.float32),
            store.warm_items(), store.item_topk)
        assert not np.isin(first, expansion.neighbors).any()
        assert not np.isin(second, store.warm_items()).any()
        np.testing.assert_array_equal(store.item_vectors[first[0]],
                                      vec_before)

    def test_round_trip_after_ingest(self, store, rng, tmp_path):
        features = {m: rng.normal(size=(2, store.features[m].shape[1]))
                    for m in store.modalities}
        store.ingest_items(features)
        path = tmp_path / "extended.npz"
        store.save(path)
        loaded = EmbeddingStore.load(path)
        assert loaded.num_items == store.num_items
        np.testing.assert_array_equal(loaded.is_ingested,
                                      store.is_ingested)
        np.testing.assert_array_equal(loaded.item_vectors,
                                      store.item_vectors)

    def test_ingest_zero_items(self, store):
        features = {m: np.empty((0, store.features[m].shape[1]))
                    for m in store.modalities}
        assert len(store.ingest_items(features)) == 0

    def test_top_k_must_be_positive(self, store, rng):
        features = {m: rng.normal(size=(1, store.features[m].shape[1]))
                    for m in store.modalities}
        with pytest.raises(ValueError, match="top_k"):
            store.ingest_items(features, top_k=0)
        with pytest.raises(ValueError, match="top_k"):
            store.ingest_items(features, top_k=-1)

    def test_modality_validation(self, store, rng):
        with pytest.raises(ValueError):
            ingest_items(store, {"text": rng.normal(size=(1, 3))})
        bad_dim = {m: rng.normal(size=(1, 3)) for m in store.modalities}
        with pytest.raises(ValueError):
            ingest_items(store, bad_dim)
        mismatched = {
            m: rng.normal(size=(1 + i, store.features[m].shape[1]))
            for i, m in enumerate(store.modalities)
        }
        with pytest.raises(ValueError):
            ingest_items(store, mismatched)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_non_finite_features_rejected(self, store, rng, value):
        """NaN, infinities and values past float32's range are refused
        before the store changes (1e39 overflows to inf in float32)."""
        features = {m: rng.normal(size=(2, store.features[m].shape[1]))
                    for m in store.modalities}
        features[store.modalities[0]][1, 0] = value
        num_items = store.num_items
        with pytest.raises(ValueError, match="finite"):
            ingest_items(store, features)
        assert store.num_items == num_items
