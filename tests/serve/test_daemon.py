"""Tests for the micro-batching queue and the HTTP serving daemon."""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (BatchRanker, EmbeddingStore, MicroBatcher,
                         ServingDaemon, SnapshotManager)
from repro.serve.daemon import MAX_K


def make_store(seed, num_items=50):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        rng.normal(size=(30, 8)), rng.normal(size=(num_items, 8)),
        features={"image": rng.normal(size=(num_items, 5))},
        is_cold=rng.random(num_items) < 0.3,
        metadata={"model": f"seed{seed}"})


@pytest.fixture()
def manager():
    return SnapshotManager(make_store(1))


class TestMicroBatcher:
    def test_single_request_matches_library_ranker(self, manager):
        batcher = MicroBatcher(manager)
        try:
            response = batcher.submit(3, 5).result(timeout=30)
        finally:
            batcher.stop()
        store = manager.current.store
        expected = BatchRanker.from_store(store).topk(np.array([3]), 5)
        assert response["items"] == expected.items[0].tolist()
        assert response["scores"] == expected.scores[0].tolist()
        assert response["snapshot_version"] == 1

    def test_cold_mode_restricts_candidates(self, manager):
        batcher = MicroBatcher(manager)
        try:
            response = batcher.submit(3, 5, mode="cold").result(timeout=30)
        finally:
            batcher.stop()
        store = manager.current.store
        expected = BatchRanker.from_store(store).topk(
            np.array([3]), 5, candidates=store.cold_items())
        assert response["items"] == expected.items[0].tolist()

    def test_concurrent_requests_coalesce_and_stay_exact(self, manager):
        store = manager.current.store
        reference = BatchRanker.from_store(store).topk(
            np.arange(store.num_users), 7)
        batcher = MicroBatcher(manager, max_batch=16)
        try:
            futures = [batcher.submit(user, 7)
                       for user in range(store.num_users)]
            for user, future in enumerate(futures):
                response = future.result(timeout=30)
                # batching changes scheduling, never results
                assert response["items"] == \
                    reference.items[user].tolist()
            stats = batcher.stats()
        finally:
            batcher.stop()
        assert stats["requests"] == store.num_users
        # the burst must actually have been coalesced
        assert stats["max_batch_observed"] > 1
        assert stats["batches"] < stats["requests"]

    def test_invalid_mode_rejected(self, manager):
        batcher = MicroBatcher(manager)
        try:
            with pytest.raises(ValueError):
                batcher.submit(0, 5, mode="nope")
        finally:
            batcher.stop()

    def test_error_propagates_to_future(self, manager):
        batcher = MicroBatcher(manager)
        try:
            # out-of-range user id: the scoring gather raises inside the
            # worker and the future must surface it, not hang
            with pytest.raises(IndexError):
                batcher.submit(10_000, 5).result(timeout=30)
        finally:
            batcher.stop()


def _get(url, timeout=30):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def _post(url, body, timeout=30):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _post_raw(url, data, timeout=30):
    """POST raw bytes; returns ``(status, JSON body)`` for any status."""
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _json(body):
    return json.dumps(body).encode("utf-8")


def _not_a_store(root):
    (root / "notes.txt").write_text("not an embedding store\n")
    return _json({"path": str(root / "notes.txt")})


def _single_array(root):
    np.save(root / "vector.npy", np.zeros(3))
    return _json({"path": str(root / "vector.npy")})


def _v1_store(root, mmap):
    path = make_store(2).save(root / "v1.npz")
    return _json({"path": str(path), "mmap": mmap})


#: name -> (endpoint, expected status, body builder over the swap root);
#: the fixture store has one modality, "image", 5 features wide
BAD_POSTS = {
    "ingest-json-array": ("/ingest", 400, lambda root: b"[1, 2]"),
    "ingest-unknown-modality": ("/ingest", 400, lambda root: _json(
        {"features": {"text": [[0.5] * 5]}})),
    "ingest-wrong-width": ("/ingest", 400, lambda root: _json(
        {"features": {"image": [[0.5] * 4]}})),
    "ingest-non-numeric": ("/ingest", 400, lambda root: _json(
        {"features": {"image": [["a"] * 5]}})),
    "ingest-ragged": ("/ingest", 400, lambda root: _json(
        {"features": {"image": [[0.5] * 5, [0.5] * 4]}})),
    "ingest-scalar": ("/ingest", 400, lambda root: _json(
        {"features": {"image": 0.5}})),
    "ingest-nan": ("/ingest", 400, lambda root: _json(
        {"features": {"image": [[float("nan")] * 5]}})),
    "ingest-infinity": ("/ingest", 400, lambda root: _json(
        {"features": {"image": [[float("inf")] + [0.5] * 4]}})),
    "swap-json-array": ("/swap", 400, lambda root: b"[]"),
    "swap-missing-store": ("/swap", 404, lambda root: _json(
        {"path": str(root / "missing.npz")})),
    "swap-not-a-store": ("/swap", 400, _not_a_store),
    "swap-single-array": ("/swap", 400, _single_array),
    "swap-v1-mmap-string": ("/swap", 400,
                            lambda root: _v1_store(root, "false")),
    "swap-v1-mmap-true": ("/swap", 400,
                          lambda root: _v1_store(root, True)),
}


class TestServingDaemon:
    @pytest.fixture()
    def daemon(self, manager, tmp_path):
        with ServingDaemon(manager, swap_root=tmp_path) as running:
            yield running

    def test_healthz_and_stats(self, daemon):
        health = _get(daemon.url + "/healthz")
        assert health == {"status": "ok", "snapshot_version": 1}
        stats = _get(daemon.url + "/stats")
        assert stats["snapshot_version"] == 1
        assert stats["store"]["items"] == 50

    def test_topk_round_trip_matches_ranker(self, daemon, manager):
        response = _get(daemon.url + "/topk?user=4&k=6")
        expected = BatchRanker.from_store(manager.current.store).topk(
            np.array([4]), 6)
        assert response["items"] == expected.items[0].tolist()
        assert response["snapshot_version"] == 1

    def test_cold_round_trip(self, daemon, manager):
        store = manager.current.store
        response = _get(daemon.url + "/cold?user=4&k=3")
        expected = BatchRanker.from_store(store).topk(
            np.array([4]), 3, candidates=store.cold_items())
        assert response["items"] == expected.items[0].tolist()

    def test_bad_requests_return_4xx(self, daemon):
        out_of_range_k = [f"{endpoint}?user=0&k={k}"
                          for endpoint in ("/topk", "/cold")
                          for k in (0, -1, MAX_K + 1)]
        for path in ("/topk", "/topk?user=notanint", "/topk?user=99999",
                     "/nope", *out_of_range_k):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(daemon.url + path)
            assert 400 <= excinfo.value.code < 500
            assert "error" in json.loads(excinfo.value.read())

    @pytest.mark.parametrize("case", BAD_POSTS)
    def test_bad_posts_return_4xx_and_publish_nothing(self, daemon,
                                                      tmp_path, case):
        endpoint, expected, body = BAD_POSTS[case]
        before = _get(daemon.url + "/stats")
        status, reply = _post_raw(daemon.url + endpoint, body(tmp_path))
        assert status == expected, reply
        assert "error" in reply
        after = _get(daemon.url + "/stats")
        assert after["snapshot_version"] == before["snapshot_version"]
        assert after["store"]["items"] == before["store"]["items"]

    def test_keep_alive_requests_do_not_stall(self, daemon):
        # Replies leave as a header write and a body write; with Nagle
        # on, each keep-alive reply waited ~40 ms for a delayed ACK.
        conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                          timeout=30)
        latencies = []
        try:
            for user in range(20):
                start = time.perf_counter()
                conn.request("GET", f"/topk?user={user}&k=5")
                response = conn.getresponse()
                response.read()
                latencies.append(time.perf_counter() - start)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(latencies) < 0.010, latencies

    def test_swap_round_trip(self, daemon, manager, tmp_path):
        new_store = make_store(2)
        path = new_store.save(tmp_path / "next", format="v2")
        response = _post(daemon.url + "/swap",
                         {"path": str(path), "mmap": True})
        assert response["snapshot_version"] == 2
        after = _get(daemon.url + "/topk?user=4&k=6")
        expected = BatchRanker.from_store(new_store).topk(np.array([4]), 6)
        assert after["items"] == expected.items[0].tolist()
        assert after["snapshot_version"] == 2

    @pytest.mark.parametrize("escape", ["dotdot", "absolute", "symlink"])
    def test_swap_outside_root_is_forbidden(self, daemon, tmp_path,
                                            tmp_path_factory, escape):
        outside = tmp_path_factory.mktemp("outside")
        stored = make_store(2).save(outside / "next", format="v2")
        if escape == "dotdot":
            path = tmp_path / ".." / outside.name / "next"
        elif escape == "absolute":
            path = stored
        else:
            path = tmp_path / "link"
            path.symlink_to(stored, target_is_directory=True)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(daemon.url + "/swap", {"path": str(path)})
        assert excinfo.value.code == 403
        assert "error" in json.loads(excinfo.value.read())
        assert _get(daemon.url + "/healthz")["snapshot_version"] == 1

    def test_swap_without_root_is_forbidden(self, manager, tmp_path):
        path = make_store(2).save(tmp_path / "next", format="v2")
        with ServingDaemon(manager) as daemon:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _post(daemon.url + "/swap", {"path": str(path)})
            assert excinfo.value.code == 403
            assert _get(daemon.url + "/healthz")["snapshot_version"] == 1

    def test_ingest_round_trip(self, daemon, manager, rng):
        held = manager.current
        before = held.store.num_items
        response = _post(daemon.url + "/ingest", {"features": {
            "image": rng.normal(size=(2, 5)).tolist()}})
        assert response["ingested_items"] == [before, before + 1]
        assert response["num_items"] == before + 2
        # the snapshot a reader held is not grown under it
        assert held.store.num_items == held.ranker.num_items
        assert len(held.store.is_cold) == held.ranker.num_items
        # the republished snapshot ranks the new items
        cold = _get(daemon.url + f"/cold?user=0&k={before + 2}")
        assert before in cold["items"] and before + 1 in cold["items"]

    def test_concurrent_queries_during_swap_are_never_torn(
            self, daemon, manager, tmp_path):
        """Every response racing a hot-swap must bit-match the library
        ranker of the snapshot version the response claims."""
        stores = {1: manager.current.store, 2: make_store(2)}
        path = stores[2].save(tmp_path / "next", format="v2")
        users = list(range(stores[1].num_users))
        expected = {
            version: BatchRanker.from_store(store).topk(
                np.asarray(users), 6)
            for version, store in stores.items()}
        failures: list = []
        swapped = threading.Event()

        def client(user):
            try:
                for _ in range(6):
                    response = _get(daemon.url + f"/topk?user={user}&k=6")
                    version = response["snapshot_version"]
                    want = expected[version].items[user].tolist()
                    if response["items"] != want:
                        failures.append((user, version, response))
            except Exception as exc:  # pragma: no cover - diagnostics
                failures.append((user, "exc", exc))

        threads = [threading.Thread(target=client, args=(user,))
                   for user in users[:8]]
        for thread in threads:
            thread.start()
        _post(daemon.url + "/swap", {"path": str(path)})
        swapped.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures
        versions = {_get(daemon.url + "/healthz")["snapshot_version"]}
        assert versions == {2}
