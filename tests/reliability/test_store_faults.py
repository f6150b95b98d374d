"""Fault-plan-driven torn writes, corruption, and quarantine/recompute.

Torn-write rejection on the embedding store's array directory and
ArtifactStore hash-mismatch quarantine, scripted through
fault-injection plans and the file mangling those plans apply.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.experiments.store import ArtifactStore
from repro.reliability import (FaultPlan, FaultSpec, InjectedCrash,
                               InjectedError, inject)
from repro.reliability.faults import tear_file
from repro.serve.store import CorruptStoreError, EmbeddingStore


def make_store(seed=0, num_items=20):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        rng.normal(size=(10, 8)), rng.normal(size=(num_items, 8)),
        features={"image": rng.normal(size=(num_items, 4))},
        is_cold=rng.random(num_items) < 0.3)


def torn_v1_archive(tmp_path):
    """A single-file .npz store of an older release, cut short the way a
    kill mid-write left it (those writes were not atomic)."""
    path = tmp_path / "store.npz"
    np.savez_compressed(path, user_vectors=make_store().user_vectors)
    tear_file(path)
    return path


class TestEmbeddingStoreTornWrites:
    def test_v1_torn_write_raises_corrupt_store_error(self, tmp_path):
        path = torn_v1_archive(tmp_path)
        with pytest.raises(CorruptStoreError) as info:
            EmbeddingStore.load(path)
        assert str(path) in str(info.value)

    def test_v1_torn_error_is_still_a_value_error(self, tmp_path):
        """Back-compat: callers catching ValueError keep working."""
        with pytest.raises(ValueError):
            EmbeddingStore.load(torn_v1_archive(tmp_path))

    @pytest.mark.parametrize("name", ["item_vectors", "seen.indices",
                                      "is_cold", "features.image"])
    def test_torn_array_raises_corrupt_store_error(self, tmp_path, name):
        """A published store with one array cut short (what a disk
        fault or a partial copy leaves) is a structured error naming
        the path, loaded whole or mmap'd."""
        path = make_store().save(tmp_path / "store")
        tear_file(path / f"{name}.npy")
        for mmap in (False, True):
            with pytest.raises(CorruptStoreError) as info:
                EmbeddingStore.load(path, mmap=mmap)
            assert str(path) in str(info.value)

    def test_v2_torn_write_never_publishes(self, tmp_path):
        store = make_store()
        path = tmp_path / "store.v2"
        plan = FaultPlan([FaultSpec(op="store.v2.write", kind="crash")],
                         name="kill-v2")
        with inject(plan):
            with pytest.raises(InjectedCrash):
                store.save(path)
        # atomic publish: the final directory never appeared; the staged
        # dir (manifest-less, exactly what a real kill leaves) did
        assert not path.exists()
        staged = list(tmp_path.glob("store.v2.tmp-*"))
        assert staged, "simulated kill should leave the staged dir"
        with pytest.raises(ValueError, match="torn"):
            EmbeddingStore.load(staged[0])

    def test_v2_torn_staged_dir_rejected_with_clear_error(self, tmp_path):
        store = make_store()
        path = tmp_path / "store.v2"
        plan = FaultPlan([FaultSpec(op="store.v2.write", kind="torn")])
        with inject(plan):
            with pytest.raises(InjectedCrash):
                store.save(path)
        staged = list(tmp_path.glob("store.v2.tmp-*"))
        assert staged
        with pytest.raises(CorruptStoreError):
            EmbeddingStore.load(staged[0])

    def test_v2_commit_after_clean_retry_round_trips(self, tmp_path):
        """After the fault window closes, a retried save publishes a
        store that loads bit-identically."""
        store = make_store()
        path = tmp_path / "store.v2"
        plan = FaultPlan([FaultSpec(op="store.v2.write", kind="crash",
                                    times=1)])
        with inject(plan):
            with pytest.raises(InjectedCrash):
                store.save(path)
            store.save(path)  # second call: clean
        loaded = EmbeddingStore.load(path)
        np.testing.assert_array_equal(loaded.user_vectors,
                                      store.user_vectors.astype(np.float32))

    def test_read_fault_surfaces_as_transient(self, tmp_path):
        store = make_store()
        path = store.save(tmp_path / "store")
        plan = FaultPlan([FaultSpec(op="store.read", kind="error")])
        with inject(plan):
            with pytest.raises(OSError):
                EmbeddingStore.load(path)
            loaded = EmbeddingStore.load(path)  # window closed
        np.testing.assert_array_equal(loaded.item_vectors,
                                      store.item_vectors.astype(np.float32))


def _commit_blob(store: ArtifactStore, stage="train", key="k",
                 payload=b"payload-bytes", meta=None):
    staged = store.stage_dir(stage, key)
    (staged / "blob.bin").write_bytes(payload)
    return store.commit(stage, key, staged, meta or {"m": 1})


class TestArtifactStoreQuarantine:
    def test_clean_round_trip_verifies(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _commit_blob(store)
        path = store.get("train", "k")
        assert path is not None
        assert (path / "blob.bin").read_bytes() == b"payload-bytes"
        assert json.loads((path / "meta.json").read_text()) == {"m": 1}
        assert store.quarantined == []

    def test_corrupt_read_quarantines_and_misses(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _commit_blob(store)
        # the read seam silently flips one byte of the artifact —
        # bit rot between commit and read
        plan = FaultPlan([FaultSpec(op="artifact.read", kind="corrupt")],
                         name="bitrot")
        with inject(plan):
            assert store.get("train", "k") is None
        assert len(store.quarantined) == 1
        stage, key, target = store.quarantined[0]
        assert (stage, key) == ("train", "k")
        # evidence preserved, entry gone from the live listing
        assert target.exists()
        assert store.entries("train") == []

    def test_recommit_after_quarantine_serves_again(self, tmp_path):
        store = ArtifactStore(tmp_path)
        _commit_blob(store)
        plan = FaultPlan([FaultSpec(op="artifact.read", kind="corrupt")])
        with inject(plan):
            assert store.get("train", "k") is None
        # the recompute path: a fresh commit under the same key
        _commit_blob(store, payload=b"recomputed")
        path = store.get("train", "k")
        assert path is not None
        assert (path / "blob.bin").read_bytes() == b"recomputed"

    def test_verify_off_trusts_the_disk(self, tmp_path):
        store = ArtifactStore(tmp_path, verify_reads=False)
        _commit_blob(store)
        plan = FaultPlan([FaultSpec(op="artifact.read", kind="corrupt")])
        with inject(plan):
            assert store.get("train", "k") is not None
        assert store.quarantined == []

    def test_commit_crash_leaves_staged_never_half_commits(self, tmp_path):
        store = ArtifactStore(tmp_path)
        plan = FaultPlan([FaultSpec(op="artifact.commit", kind="crash")])
        with inject(plan):
            with pytest.raises(InjectedCrash):
                _commit_blob(store)
        assert store.get("train", "k") is None
        assert store.entries("train") == []
        # the staged temp dir survives the simulated kill (the next
        # commit under the key simply replaces it)
        assert list((tmp_path / "train").glob("k.tmp-*"))

    def test_quarantine_names_do_not_collide(self, tmp_path):
        store = ArtifactStore(tmp_path)
        for round_no in range(3):
            _commit_blob(store, payload=b"x%d" % round_no)
            plan = FaultPlan([FaultSpec(op="artifact.read",
                                        kind="corrupt")])
            with inject(plan):
                assert store.get("train", "k") is None
        names = sorted(p.name for p in (tmp_path / "train").iterdir())
        assert [n for n in names if ".quarantine-" in n] == \
            ["k.quarantine-0", "k.quarantine-1", "k.quarantine-2"]


class TestRunnerDegradation:
    """The runner survives transient faults and corrupt cache entries."""

    def _spec(self):
        from repro.experiments import ExperimentSpec
        from repro.train import TrainConfig
        return ExperimentSpec(
            name="chaos-tiny", dataset="custom",
            world={"num_users": 30, "num_items": 40, "num_brands": 4,
                   "seed": 0},
            models=("BPR",), embedding_dim=8,
            train=TrainConfig(epochs=1, eval_every=1, batch_size=32,
                              learning_rate=0.05))

    def test_transient_read_faults_are_retried(self, tmp_path):
        from repro.experiments import Runner
        store = ArtifactStore(tmp_path / "store")
        runner = Runner(store)
        spec = self._spec()
        runner.run(spec)  # populate the cache

        fresh = Runner(ArtifactStore(tmp_path / "store"))
        plan = FaultPlan([FaultSpec(op="artifact.read", kind="error",
                                    times=2)], name="flaky-disk")
        with inject(plan):
            run = fresh.run(spec)
        assert fresh.stats["read_retries"] >= 2
        assert fresh.stats["train_runs"] == 0  # cache hits, not retrains
        assert "BPR" in run.results

    def test_corrupt_train_artifact_is_recomputed(self, tmp_path):
        from repro.experiments import Runner
        store = ArtifactStore(tmp_path / "store")
        runner = Runner(store)
        spec = self._spec()
        reference = runner.run(spec)

        fresh_store = ArtifactStore(tmp_path / "store")
        fresh = Runner(fresh_store)
        # corrupt the first train-stage read: the store must quarantine
        # it and the runner retrain — and land on the same bits (seeded)
        plan = FaultPlan(
            [FaultSpec(op="artifact.read", kind="corrupt", at=2)],
            name="poisoned-cache")
        with inject(plan):
            # at=2: first artifact.read is the dataset stage, second is
            # the train stage (glob 'at' counts matching calls)
            rerun = fresh.run(spec)
        assert any(stage == "train"
                   for stage, _k, _p in fresh_store.quarantined) or \
            any(stage == "dataset"
                for stage, _k, _p in fresh_store.quarantined)
        assert rerun.fingerprint == reference.fingerprint
