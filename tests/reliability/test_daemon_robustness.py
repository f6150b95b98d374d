"""Daemon degradation under load and faults: shed, deadline, drain,
structured errors, and the never-torn-response guarantee.
"""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.reliability import FaultPlan, FaultSpec, inject
from repro.serve import (BatchRanker, DeadlineExceededError,
                         EmbeddingStore, LoadShedError, MicroBatcher,
                         ServingDaemon, SnapshotManager)
from repro.serve.daemon import MAX_BODY_BYTES


def make_store(seed, num_items=40):
    rng = np.random.default_rng(seed)
    return EmbeddingStore(
        rng.normal(size=(20, 8)), rng.normal(size=(num_items, 8)),
        features={"image": rng.normal(size=(num_items, 5))},
        is_cold=rng.random(num_items) < 0.3,
        metadata={"model": f"seed{seed}"})


@pytest.fixture()
def manager():
    return SnapshotManager(make_store(1))


def _get_raw(url: str) -> tuple[int, dict, dict]:
    """(status, headers, json body) without raising on 4xx/5xx."""
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return (response.status, dict(response.headers),
                    json.loads(response.read()))
    except urllib.error.HTTPError as error:
        body = json.loads(error.read())
        return error.code, dict(error.headers), body


def _post_declaring(daemon, content_length: str) -> tuple[int, dict]:
    """POST /ingest over a raw socket with a hand-written Content-Length
    and no body; returns (status, JSON body). Reads until the server
    closes the connection, so a handler waiting for the body times out
    instead of passing."""
    with socket.create_connection((daemon.host, daemon.port),
                                  timeout=10) as sock:
        sock.sendall((f"POST /ingest HTTP/1.1\r\nHost: {daemon.host}\r\n"
                      f"Content-Length: {content_length}\r\n\r\n"
                      ).encode("ascii"))
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestBoundedAdmission:
    def test_full_queue_sheds_instead_of_queueing(self, manager):
        # a slow fault holds the worker inside a batch so the queue
        # backs up deterministically
        plan = FaultPlan([FaultSpec(op="daemon.batch", kind="slow",
                                    delay_ms=200.0, times=-1)])
        batcher = MicroBatcher(manager, max_batch=1, max_queue=2)
        try:
            with inject(plan):
                futures = [batcher.submit(0, 5)]  # worker picks this up
                time.sleep(0.05)                  # worker now sleeping
                futures.append(batcher.submit(1, 5))
                futures.append(batcher.submit(2, 5))
                with pytest.raises(LoadShedError) as info:
                    batcher.submit(3, 5)
                assert info.value.reason == "queue_full"
                for future in futures:
                    assert future.result(timeout=30)["items"]
        finally:
            batcher.stop()
        assert batcher.stats()["shed"] == 1
        assert batcher.stats()["requests"] == 3

    def test_shed_maps_to_503_with_retry_after(self, manager):
        plan = FaultPlan([FaultSpec(op="daemon.batch", kind="slow",
                                    delay_ms=300.0, times=-1)])
        with ServingDaemon(manager, max_batch=1, max_queue=1) as daemon:
            with inject(plan):
                statuses = []

                def client(user):
                    status, headers, body = _get_raw(
                        f"{daemon.url}/topk?user={user}&k=5")
                    statuses.append((status, headers, body))

                threads = [threading.Thread(target=client, args=(u,))
                           for u in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
        shed = [s for s in statuses if s[0] == 503]
        served = [s for s in statuses if s[0] == 200]
        assert shed, "overload must produce 503s"
        assert served, "the bounded queue must still serve some"
        for status, headers, body in shed:
            assert headers.get("Retry-After")
            assert "error" in body
            assert "snapshot_version" in body
        assert len(shed) + len(served) == 6


class TestDeadlines:
    def test_expired_request_gets_deadline_error(self, manager):
        plan = FaultPlan([FaultSpec(op="daemon.batch", kind="slow",
                                    delay_ms=150.0)])
        batcher = MicroBatcher(manager, max_batch=1, deadline_ms=50.0)
        try:
            with inject(plan):
                first = batcher.submit(0, 5)   # served; batch is slow
                time.sleep(0.02)
                second = batcher.submit(1, 5)  # expires while queued
                assert first.result(timeout=30)["items"]
                with pytest.raises(DeadlineExceededError):
                    second.result(timeout=30)
        finally:
            batcher.stop()
        assert batcher.stats()["expired"] == 1

    def test_deadline_maps_to_504(self, manager):
        plan = FaultPlan([FaultSpec(op="daemon.batch", kind="slow",
                                    delay_ms=200.0)])
        with ServingDaemon(manager, max_batch=1,
                           deadline_ms=50.0) as daemon:
            with inject(plan):
                results = []

                def client(user):
                    results.append(_get_raw(
                        f"{daemon.url}/topk?user={user}&k=5"))

                threads = [threading.Thread(target=client, args=(u,))
                           for u in range(4)]
                for thread in threads:
                    thread.start()
                    time.sleep(0.02)
                for thread in threads:
                    thread.join(timeout=30)
        codes = sorted(status for status, _h, _b in results)
        assert 504 in codes, codes
        for status, _headers, body in results:
            if status == 504:
                assert "error" in body

    def test_no_deadline_by_default(self, manager):
        batcher = MicroBatcher(manager)
        try:
            assert batcher.deadline_ms is None
            assert batcher.submit(0, 5).result(timeout=30)["items"]
        finally:
            batcher.stop()


class TestGracefulDrain:
    def test_drain_finishes_inflight_then_rejects(self, manager):
        plan = FaultPlan([FaultSpec(op="daemon.batch", kind="slow",
                                    delay_ms=100.0)])
        batcher = MicroBatcher(manager, max_batch=4)
        try:
            with inject(plan):
                futures = [batcher.submit(u, 5) for u in range(4)]
                assert batcher.drain(grace_s=5.0) is True
            # every in-flight request completed with real results
            for future in futures:
                assert future.result(timeout=1)["items"]
            with pytest.raises(LoadShedError) as info:
                batcher.submit(0, 5)
            assert info.value.reason == "draining"
        finally:
            batcher.stop()

    def test_healthz_flips_to_draining(self, manager, tmp_path):
        with ServingDaemon(manager, swap_root=tmp_path) as daemon:
            status, _headers, body = _get_raw(daemon.url + "/healthz")
            assert (status, body["status"]) == (200, "ok")
            daemon.batcher.drain(grace_s=1.0)
            status, headers, body = _get_raw(daemon.url + "/healthz")
            assert (status, body["status"]) == (503, "draining")
            assert headers.get("Retry-After")
            # mutating endpoints are rejected while draining
            request = urllib.request.Request(
                daemon.url + "/swap",
                data=json.dumps({"path": str(tmp_path / "nope")}).encode(),
                headers={"Content-Type": "application/json"})
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            assert info.value.code == 503

    def test_shutdown_grace_is_configurable(self, manager):
        daemon = ServingDaemon(manager, shutdown_grace_s=0.5)
        daemon.start()
        start = time.perf_counter()
        daemon.shutdown()
        assert time.perf_counter() - start < 5.0
        assert daemon.draining


class TestStructuredErrors:
    def test_unknown_endpoint_is_json_404(self, manager):
        with ServingDaemon(manager) as daemon:
            status, headers, body = _get_raw(daemon.url + "/nope")
            assert status == 404
            assert headers["Content-Type"] == "application/json"
            assert "error" in body and "snapshot_version" in body

    def test_stdlib_error_paths_emit_json_not_html(self, manager):
        """An unsupported method goes through the stdlib's send_error,
        which the handler overrides: the body must be JSON."""
        with ServingDaemon(manager) as daemon:
            request = urllib.request.Request(daemon.url + "/topk?user=0",
                                             method="PUT")
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=30)
            body = info.value.read()
            assert b"<html" not in body.lower()
            assert "error" in json.loads(body)

    def test_non_integer_content_length_is_400(self, manager):
        # Python's int() would read "1_0" as 10 and "+5" as 5; neither
        # is an HTTP Content-Length (ASCII digits only)
        with ServingDaemon(manager) as daemon:
            for declared in ("abc", "1_0", "+5"):
                status, body = _post_declaring(daemon, declared)
                assert status == 400
                assert "Content-Length" in body["error"]
            assert _get_raw(daemon.url + "/healthz")[0] == 200

    def test_negative_content_length_is_400(self, manager):
        with ServingDaemon(manager) as daemon:
            status, body = _post_declaring(daemon, "-1")
            assert status == 400
            assert body["snapshot_version"] == 1

    def test_oversized_content_length_is_413_unread(self, manager):
        with ServingDaemon(manager) as daemon:
            for declared in (MAX_BODY_BYTES + 1, 5_000_000_000):
                status, body = _post_declaring(daemon, str(declared))
                assert status == 413
                assert str(MAX_BODY_BYTES) in body["error"]
            assert _get_raw(daemon.url + "/healthz")[0] == 200

    def test_bad_request_carries_snapshot_version(self, manager):
        with ServingDaemon(manager) as daemon:
            status, _headers, body = _get_raw(
                daemon.url + "/topk?user=notanint")
            assert status == 400
            assert body["snapshot_version"] == 1

    def test_batch_fault_surfaces_as_500_never_torn(self, manager):
        """Under a seeded fault plan on the batch seam, every response
        is either a clean JSON error or a bit-exact ranking for the
        version it claims — never a torn payload."""
        store = manager.current.store
        reference = BatchRanker.from_store(store).topk(
            np.arange(store.num_users), 5)
        plan = FaultPlan(
            [FaultSpec(op="daemon.batch", kind="error", at=2, times=2)],
            seed=9, name="flaky-batches")
        outcomes = {"ok": 0, "error": 0}
        with ServingDaemon(manager, max_batch=1) as daemon:
            with inject(plan):
                for user in range(12):
                    status, _headers, body = _get_raw(
                        f"{daemon.url}/topk?user={user % 20}&k=5")
                    if status == 200:
                        outcomes["ok"] += 1
                        assert body["snapshot_version"] == 1
                        assert body["items"] == \
                            reference.items[user % 20].tolist()
                    else:
                        outcomes["error"] += 1
                        assert status == 500
                        assert "error" in body
        assert outcomes["error"] == 2  # exactly the scripted window
        assert outcomes["ok"] == 10
        assert [e[1:4] for e in plan.event_log()] == [
            ("daemon.batch", "error", 2), ("daemon.batch", "error", 3)]
