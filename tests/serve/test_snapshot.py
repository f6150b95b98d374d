"""Tests for atomic snapshot hot-swap: queries racing a swap must see
one snapshot fully — old or new — never a torn mix."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.serve import BatchRanker, EmbeddingStore, SnapshotManager


def make_store(seed, num_items=40):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        rng.normal(size=(25, 8)), rng.normal(size=(num_items, 8)),
        features={"image": rng.normal(size=(num_items, 5))},
        is_cold=rng.random(num_items) < 0.25,
        metadata={"model": f"seed{seed}"})


class TestSnapshotManager:
    def test_initial_publish(self):
        manager = SnapshotManager(make_store(1))
        assert manager.version == 1
        assert manager.current.store.metadata["model"] == "seed1"
        assert isinstance(manager.current.ranker, BatchRanker)

    def test_no_snapshot_raises(self):
        manager = SnapshotManager()
        with pytest.raises(RuntimeError):
            manager.current

    def test_swap_bumps_version_and_pins_old(self):
        manager = SnapshotManager(make_store(1))
        old = manager.current
        new = manager.swap(make_store(2), source="test")
        assert new.version == 2 and manager.current is new
        # the old snapshot stays fully usable for in-flight queries
        result = old.ranker.topk(np.arange(5), 5)
        expected = BatchRanker.from_store(old.store).topk(np.arange(5), 5)
        np.testing.assert_array_equal(result.items, expected.items)

    def test_swap_from_path_loaded_and_mapped(self, tmp_path):
        path = make_store(3).save(tmp_path / "store")
        manager = SnapshotManager(make_store(1))
        snap1 = manager.swap_from_path(path)
        snap2 = manager.swap_from_path(path, mmap=True)
        assert snap2.version == snap1.version + 1
        np.testing.assert_array_equal(snap1.store.item_vectors,
                                      snap2.store.item_vectors)
        assert not snap2.store.item_vectors.flags["OWNDATA"]

    def test_describe_includes_version(self):
        manager = SnapshotManager(make_store(1))
        info = manager.describe()
        assert info["snapshot version"] == 1
        assert info["model"] == "seed1"


class TestConcurrentSwap:
    def test_queries_never_see_a_torn_snapshot(self):
        """Readers racing rapid swaps must get rankings that exactly
        match ONE of the published stores — never a mix of an old
        store's vectors with a new store's ranker or vice versa."""
        stores = [make_store(seed) for seed in range(6)]
        users = np.arange(10)
        expected = {}
        for seed, store in enumerate(stores):
            result = BatchRanker.from_store(store).topk(users, 8)
            expected[seed] = (result.items, result.scores)
        manager = SnapshotManager(stores[0])
        stop = threading.Event()
        failures: list = []

        def reader():
            while not stop.is_set():
                snapshot = manager.current  # one atomic grab
                result = snapshot.ranker.topk(users, 8)
                matched = any(
                    np.array_equal(result.items, items)
                    and np.array_equal(result.scores, scores)
                    for items, scores in expected.values())
                if not matched:
                    failures.append(result)
                    stop.set()
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for _ in range(3):  # keep swapping under the readers
            for store in stores[1:]:
                manager.swap(store)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        assert not failures
        assert manager.version == 1 + 3 * (len(stores) - 1)


class TestConcurrentIngest:
    def test_writers_get_unique_contiguous_ids(self):
        """Concurrent ingests serialize: every id is issued once, the
        ids are contiguous, and every per-item array ends at the same
        length."""
        base = make_store(0, num_items=20_000)
        manager = SnapshotManager(base)
        issued: list = []
        failures: list = []

        def writer(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(5):
                    ids, _ = manager.ingest(
                        {"image": rng.normal(size=(3, 5))})
                    issued.extend(ids.tolist())
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append(exc)

        threads = [threading.Thread(target=writer, args=(seed,))
                   for seed in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads mid-ingest often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert sorted(issued) == list(range(20_000, 20_120))
        store = manager.current.store
        assert manager.version == 1 + 8 * 5
        assert {store.num_items, len(store.is_cold), len(store.is_ingested),
                store.features["image"].shape[0], store.seen.shape[1],
                manager.current.ranker.num_items} == {20_120}
        # the store the manager started from was never grown
        assert base.num_items == len(base.is_cold) == 20_000
