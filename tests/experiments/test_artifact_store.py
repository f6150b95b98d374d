"""ArtifactStore: atomic commits, content addressing, partial state."""

from __future__ import annotations

import json

import pytest

from repro.experiments import ArtifactStore


@pytest.fixture()
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


class TestCommit:
    def test_staged_dir_is_invisible_until_committed(self, store):
        staged = store.stage_dir("train", "k1")
        (staged / "model.npz").write_bytes(b"payload")
        assert store.get("train", "k1") is None
        store.commit("train", "k1", staged, {"model": "BPR"})
        committed = store.get("train", "k1")
        assert committed is not None
        assert (committed / "model.npz").read_bytes() == b"payload"
        assert json.loads((committed / "meta.json").read_text()) == {
            "model": "BPR"}

    def test_losing_a_commit_race_keeps_the_winner(self, store):
        first = store.stage_dir("eval", "k")
        (first / "a.txt").write_text("first")
        store.commit("eval", "k", first, {})
        second = store.stage_dir("eval", "k")
        (second / "a.txt").write_text("second")
        store.commit("eval", "k", second, {})
        assert (store.get("eval", "k") / "a.txt").read_text() == "first"
        assert not second.exists()

    def test_overwrite_replaces_the_existing_artifact(self, store):
        first = store.stage_dir("eval", "k")
        (first / "a.txt").write_text("first")
        store.commit("eval", "k", first, {})
        second = store.stage_dir("eval", "k")
        (second / "a.txt").write_text("second")
        store.commit("eval", "k", second, {}, overwrite=True)
        assert (store.get("eval", "k") / "a.txt").read_text() == "second"

    def test_json_roundtrip_is_exact_for_floats(self, store):
        payload = {"recall": 0.1 + 0.2, "mrr": 1e-17, "k": 20}
        store.put_json("eval", "k", payload)
        assert store.get_json("eval", "k") == payload

    def test_meta_json_is_valid_json(self, store):
        staged = store.stage_dir("dataset", "k")
        store.commit("dataset", "k", staged, {"size": "tiny"})
        meta_path = store.get("dataset", "k") / "meta.json"
        assert json.loads(meta_path.read_text()) == {"size": "tiny"}


class TestPartial:
    def test_partial_dir_is_not_a_committed_artifact(self, store):
        partial = store.partial_dir("train", "k")
        (partial / "snapshot.npz").write_bytes(b"wip")
        assert store.get("train", "k") is None
        assert "k" not in store.entries("train")

    def test_clear_partial(self, store):
        partial = store.partial_dir("train", "k")
        (partial / "snapshot.npz").write_bytes(b"wip")
        store.clear_partial("train", "k")
        assert not partial.exists()


class TestListing:
    def test_entries_lists_only_committed_keys(self, store):
        assert store.entries("train") == []
        store.put_json("train", "b", {})
        store.put_json("train", "a", {})
        store.partial_dir("train", "c")
        assert store.entries("train") == ["a", "b"]

    def test_remove_drops_artifact_and_partial(self, store):
        store.put_json("train", "k", {})
        store.partial_dir("train", "k")
        store.remove("train", "k")
        assert store.get("train", "k") is None
        assert store.entries("train") == []
