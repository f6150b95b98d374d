"""Tests for dataset serialization."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from repro.data import load_dataset, save_dataset
from repro.data.io import CorruptDatasetError, dataset_fingerprint


class TestRoundTrip:
    def test_identity(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path)

        assert loaded.name == tiny_dataset.name
        assert loaded.num_users == tiny_dataset.num_users
        assert loaded.num_items == tiny_dataset.num_items
        assert set(loaded.modalities) == set(tiny_dataset.modalities)
        np.testing.assert_array_equal(loaded.split.train,
                                      tiny_dataset.split.train)
        np.testing.assert_array_equal(loaded.split.cold_items,
                                      tiny_dataset.split.cold_items)
        np.testing.assert_allclose(loaded.features["text"],
                                   tiny_dataset.features["text"])
        np.testing.assert_array_equal(loaded.kg.triplets,
                                      tiny_dataset.kg.triplets)
        assert loaded.kg.num_relations == tiny_dataset.kg.num_relations

    def test_normal_cold_fields_preserved(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path)
        np.testing.assert_array_equal(loaded.split.cold_test_known,
                                      tiny_dataset.split.cold_test_known)

    def test_loaded_dataset_trains_a_model(self, tiny_dataset, tmp_path):
        from repro.baselines import create_model
        from repro.train import TrainConfig, train_model
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path)
        model = create_model("LightGCN", loaded, embedding_dim=8, seed=0)
        result = train_model(model, loaded,
                             TrainConfig(epochs=1, eval_every=1,
                                         batch_size=128))
        assert np.isfinite(result.losses).all()

    def test_statistics_match(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path)
        a = tiny_dataset.statistics()
        b = loaded.statistics()
        assert a.num_interactions == b.num_interactions
        assert a.num_triplets == b.num_triplets


class TestV2Format:
    def test_round_trip(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path)
        assert loaded.name == tiny_dataset.name
        np.testing.assert_array_equal(loaded.split.train,
                                      tiny_dataset.split.train)
        np.testing.assert_array_equal(loaded.kg.triplets,
                                      tiny_dataset.kg.triplets)
        np.testing.assert_array_equal(loaded.features["image"],
                                      tiny_dataset.features["image"])

    def test_mmap_load(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        loaded = load_dataset(path, mmap=True)
        assert isinstance(loaded.features["text"], np.memmap)
        np.testing.assert_array_equal(
            np.asarray(loaded.features["text"]),
            tiny_dataset.features["text"])

    def test_fingerprint_is_storage_independent(self, tiny_dataset,
                                                tmp_path):
        """A directory, loaded whole or mmap'd, hashes to the in-memory
        dataset's fingerprint."""
        want = dataset_fingerprint(tiny_dataset)
        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        assert dataset_fingerprint(load_dataset(path)) == want
        assert dataset_fingerprint(load_dataset(path, mmap=True)) == want

    def test_missing_manifest_raises_naming_the_path(self, tiny_dataset,
                                                     tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "torn")
        (path / "manifest.json").unlink()
        with pytest.raises(CorruptDatasetError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)

    def test_missing_array_raises(self, tiny_dataset, tmp_path):
        path = save_dataset(tiny_dataset, tmp_path / "torn")
        (path / "kg.triplets.npy").unlink()
        with pytest.raises(CorruptDatasetError):
            load_dataset(path)

    def test_corrupt_error_is_a_value_error(self, tmp_path):
        """Back-compat: callers catching ValueError keep working."""
        with pytest.raises(ValueError):
            load_dataset(tmp_path / "never-written.v2")

    def test_mmap_rejected_for_v1(self, tiny_dataset, tmp_path):
        """A single-file .npz archive of an older release is refused,
        naming the path, with or without mmap."""
        path = tmp_path / "tiny.npz"
        np.savez_compressed(path, **{"kg.triplets": tiny_dataset.kg.triplets})
        for mmap in (False, True):
            with pytest.raises(CorruptDatasetError,
                               match="re-exported") as info:
                load_dataset(path, mmap=mmap)
            assert str(path) in str(info.value)

    def test_saves_are_byte_identical(self, tiny_dataset, tmp_path):
        """The writer is byte-deterministic — committed artifacts hash
        these bytes."""
        a = save_dataset(tiny_dataset, tmp_path / "a")
        b = save_dataset(tiny_dataset, tmp_path / "b")
        assert sorted(p.name for p in a.iterdir()) == \
            sorted(p.name for p in b.iterdir())
        for file in a.iterdir():
            assert file.read_bytes() == (b / file.name).read_bytes()

    def test_mmap_loaded_dataset_trains_bit_identically(self,
                                                        tiny_dataset,
                                                        tmp_path):
        from repro.baselines import create_model
        from repro.train import TrainConfig, train_model

        def fingerprint(dataset):
            model = create_model("BPR", dataset, embedding_dim=8, seed=0)
            train_model(model, dataset,
                        TrainConfig(epochs=1, eval_every=1,
                                    batch_size=64))
            return dataset_fingerprint(dataset), {
                name: value.tobytes()
                for name, value in model.state_dict().items()}

        path = save_dataset(tiny_dataset, tmp_path / "tiny")
        assert fingerprint(tiny_dataset) == \
            fingerprint(load_dataset(path, mmap=True))


def _edited(path, edit):
    manifest = path / "manifest.json"
    manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    return path


class TestMalformedManifest:
    """A manifest that is not a JSON object, or lacks a field the loader
    reads or holds it with the wrong kind, is a corrupt dataset naming
    its path, not a raw lookup or type error."""

    @pytest.mark.parametrize("manifest", [[1, 2], "dataset", None])
    def test_not_an_object(self, tiny_dataset, tmp_path, manifest):
        path = _edited(save_dataset(tiny_dataset, tmp_path / "d"),
                       lambda _: manifest)
        with pytest.raises(CorruptDatasetError, match=re.escape(str(path))):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["name", "num_users", "num_items",
                                     "modalities", "kg"])
    def test_without_key(self, tiny_dataset, tmp_path, key):
        path = _edited(save_dataset(tiny_dataset, tmp_path / "d"),
                       lambda m: {k: v for k, v in m.items() if k != key})
        with pytest.raises(CorruptDatasetError, match=key) as info:
            load_dataset(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("key, value", [
        ("modalities", 5), ("modalities", None), ("modalities", [1]),
        ("arrays", 5),
        ("kg", [1, 2]),
        ("kg", {"num_entities": 1, "num_relations": 1, "num_items": 1}),
    ])
    def test_wrong_kind(self, tiny_dataset, tmp_path, key, value):
        path = _edited(save_dataset(tiny_dataset, tmp_path / "d"),
                       lambda m: {**m, key: value})
        with pytest.raises(CorruptDatasetError, match=key) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
