"""Tests for the EmbeddingStore snapshot artifact."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.baselines import create_model
from repro.serve import BatchRanker, CorruptStoreError, EmbeddingStore
from repro.utils.arraydir import MANIFEST_NAME


@pytest.fixture()
def store(tiny_dataset):
    model = create_model("BPR", tiny_dataset, embedding_dim=8)
    return EmbeddingStore.from_model(model, tiny_dataset)


class TestFromModel:
    def test_shapes_and_dtypes(self, store, tiny_dataset):
        assert store.num_users == tiny_dataset.num_users
        assert store.num_items == tiny_dataset.num_items
        assert store.dim == 8
        assert store.user_vectors.dtype == np.float32
        assert store.item_vectors.dtype == np.float32
        assert store.user_vectors.flags["C_CONTIGUOUS"]
        for modality in tiny_dataset.modalities:
            assert store.features[modality].dtype == np.float32

    def test_snapshot_matches_model(self, store, tiny_dataset):
        model = create_model("BPR", tiny_dataset, embedding_dim=8)
        np.testing.assert_allclose(store.item_vectors,
                                   model.item_matrix().astype(np.float32))

    def test_cold_flags_and_seen(self, store, tiny_dataset):
        np.testing.assert_array_equal(store.is_cold,
                                      tiny_dataset.split.is_cold)
        assert not store.is_ingested.any()
        assert 0 < store.seen.nnz <= len(tiny_dataset.split.train)
        user, item = tiny_dataset.split.train[0]
        assert bool(store.seen[int(user), int(item)])

    def test_metadata(self, store):
        assert store.metadata["model"] == "BPR"
        assert store.metadata["dataset"] == "tiny"
        assert store.item_topk > 0

    def test_firzen_topk_recorded(self, tiny_dataset):
        model = create_model("Firzen", tiny_dataset, embedding_dim=8)
        snapshot = EmbeddingStore.from_model(model, tiny_dataset)
        assert snapshot.item_topk == model.config.item_item_topk


class TestRoundTrip:
    def test_disk_round_trip(self, store, tmp_path):
        loaded = EmbeddingStore.load(store.save(tmp_path / "store"))
        np.testing.assert_array_equal(loaded.user_vectors,
                                      store.user_vectors)
        np.testing.assert_array_equal(loaded.item_vectors,
                                      store.item_vectors)
        np.testing.assert_array_equal(loaded.is_cold, store.is_cold)
        np.testing.assert_array_equal(loaded.is_ingested,
                                      store.is_ingested)
        assert (loaded.seen != store.seen).nnz == 0
        assert loaded.modalities == store.modalities
        for modality in store.modalities:
            np.testing.assert_array_equal(loaded.features[modality],
                                          store.features[modality])
        assert loaded.item_topk == store.item_topk
        assert loaded.metadata == store.metadata

    def test_saves_are_byte_identical(self, store, tmp_path):
        """The writer is byte-deterministic: two saves of one store
        give the same file names and bytes."""
        a = store.save(tmp_path / "a")
        b = store.save(tmp_path / "b")
        assert sorted(p.name for p in a.iterdir()) == \
            sorted(p.name for p in b.iterdir())
        for file in a.iterdir():
            assert file.read_bytes() == (b / file.name).read_bytes()

    def test_round_trip_preserves_rankings(self, store, tmp_path):
        loaded = EmbeddingStore.load(store.save(tmp_path / "store"))
        users = np.arange(6)
        before = BatchRanker.from_store(store).topk(users, 10)
        after = BatchRanker.from_store(loaded).topk(users, 10)
        np.testing.assert_array_equal(before.items, after.items)


def assert_stores_equal(loaded, store):
    np.testing.assert_array_equal(loaded.user_vectors, store.user_vectors)
    np.testing.assert_array_equal(loaded.item_vectors, store.item_vectors)
    np.testing.assert_array_equal(loaded.is_cold, store.is_cold)
    np.testing.assert_array_equal(loaded.is_ingested, store.is_ingested)
    assert (loaded.seen != store.seen).nnz == 0
    assert loaded.modalities == store.modalities
    for modality in store.modalities:
        np.testing.assert_array_equal(loaded.features[modality],
                                      store.features[modality])
    assert loaded.item_topk == store.item_topk
    assert loaded.metadata == store.metadata


def is_memory_mapped(array):
    """Walk the base chain down to the backing buffer: a zero-copy view
    of a mapped file has a ``np.memmap`` somewhere below it (whose own
    ``.base`` is an ``mmap.mmap``, not an ndarray)."""
    base = array
    while isinstance(base, np.ndarray):
        if isinstance(base, np.memmap):
            return True
        base = base.base
    return False


class TestFormatV2:
    def test_mmap_load_is_zero_copy(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        mapped = EmbeddingStore.load(path, mmap=True)
        assert_stores_equal(mapped, store)
        for array in (mapped.user_vectors, mapped.item_vectors,
                      *(mapped.features[m] for m in mapped.modalities)):
            assert not array.flags["OWNDATA"]
            assert is_memory_mapped(array)
        # the eager load really does copy, as a control
        eager = EmbeddingStore.load(path)
        assert not is_memory_mapped(eager.item_vectors)

    def test_mmap_store_preserves_rankings(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        mapped = EmbeddingStore.load(path, mmap=True)
        users = np.arange(6)
        before = BatchRanker.from_store(store).topk(users, 10)
        after = BatchRanker.from_store(mapped).topk(users, 10)
        np.testing.assert_array_equal(before.items, after.items)
        np.testing.assert_array_equal(before.scores, after.scores)

    def test_mmap_on_v1_rejected(self, tmp_path):
        """A single-file .npz archive of an older release is not a
        store; the error says to re-export it."""
        path = tmp_path / "s.npz"
        np.savez(path, user_vectors=np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(CorruptStoreError, match="re-export"):
            EmbeddingStore.load(path, mmap=True)

    def test_v2_rejects_npz_suffix(self, store, tmp_path):
        with pytest.raises(ValueError, match="directory"):
            store.save(tmp_path / "s.npz")

    def test_unknown_format_rejected(self, store, tmp_path):
        for format in ("v1", "v3"):
            with pytest.raises(ValueError, match="unknown store format"):
                store.save(tmp_path / "s", format=format)
        assert store.save(tmp_path / "s") == tmp_path / "s"

    def test_republish_over_existing_directory(self, store, tmp_path):
        path = store.save(tmp_path / "s")
        other = EmbeddingStore(store.user_vectors * 2.0,
                               store.item_vectors * 2.0,
                               metadata={"model": "replacement"})
        assert other.save(path) == path
        reloaded = EmbeddingStore.load(path)
        assert reloaded.metadata["model"] == "replacement"
        np.testing.assert_array_equal(reloaded.item_vectors,
                                      other.item_vectors)

    def test_torn_write_rejected(self, store, tmp_path):
        # A directory without a manifest is an interrupted publish and
        # must never load as a (partial) store.
        path = store.save(tmp_path / "s")
        (path / "manifest.json").unlink()
        with pytest.raises(ValueError, match="torn"):
            EmbeddingStore.load(path)

    def test_ingest_onto_mmap_store(self, store, tmp_path, rng):
        # Onboarding grows the item axis, which cannot happen in-place
        # on a read-only mapping; the store must still accept ingests.
        path = store.save(tmp_path / "s")
        mapped = EmbeddingStore.load(path, mmap=True)
        new = {m: rng.normal(size=(2, store.features[m].shape[1]))
               for m in store.modalities}
        ids = mapped.ingest_items(new)
        assert list(ids) == [store.num_items, store.num_items + 1]
        assert mapped.num_items == store.num_items + 2


class TestMalformedHeader:
    """A header that is not a JSON object, or lacks a key the loaders
    read, is a corrupt store naming its path, not a raw lookup error."""

    @pytest.mark.parametrize("header", [[1, 2], "store", None])
    def test_v2_manifest_not_an_object(self, store, tmp_path, header):
        path = store.save(tmp_path / "s")
        (path / MANIFEST_NAME).write_text(json.dumps(header))
        with pytest.raises(CorruptStoreError, match=re.escape(str(path))):
            EmbeddingStore.load(path)

    @pytest.mark.parametrize("key", ["version", "item_topk", "modalities",
                                     "metadata"])
    def test_v2_manifest_without_key(self, store, tmp_path, key):
        path = store.save(tmp_path / "s")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        del manifest[key]
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CorruptStoreError, match=key):
            EmbeddingStore.load(path)

    @pytest.mark.parametrize("header", [[1, 2], "store", None])
    def test_v1_header_not_an_object(self, tmp_path, header):
        """An archive of the older single-file format is refused naming
        its path, whatever its header holds."""
        path = tmp_path / "s.npz"
        np.savez(path, __store_header__=np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8))
        with pytest.raises(CorruptStoreError, match=re.escape(str(path))):
            EmbeddingStore.load(path)

    @pytest.mark.parametrize("key, value", [
        ("modalities", 5), ("modalities", None), ("item_topk", None),
        ("item_topk", True), ("metadata", 5), ("version", "2"),
    ])
    def test_manifest_value_of_wrong_kind(self, store, tmp_path, key,
                                          value):
        path = store.save(tmp_path / "s")
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        manifest[key] = value
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CorruptStoreError, match=key) as info:
            EmbeddingStore.load(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("name, index", [
        ("user_vectors", (slice(None), 0)), ("item_vectors", (slice(None), 0)),
        ("item_vectors", (0, 0)), ("is_cold", slice(3)),
        ("is_ingested", slice(3)),
    ], ids=["user-1d", "item-1d", "item-0d", "cold-short", "ingested-short"])
    def test_array_of_the_wrong_shape(self, store, tmp_path, name, index):
        """Vector matrices that are not 2-D, and item flags that do not
        cover every item, are an inconsistent store naming its path."""
        path = store.save(tmp_path / "s")
        np.save(path / f"{name}.npy", np.load(path / f"{name}.npy")[index])
        with pytest.raises(CorruptStoreError, match=re.escape(str(path))):
            EmbeddingStore.load(path)


class TestValidation:
    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            EmbeddingStore(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))

    def test_feature_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            EmbeddingStore(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                           features={"text": rng.normal(size=(4, 2))})
