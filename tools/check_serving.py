#!/usr/bin/env python
"""Serving smoke check: daemon + concurrent clients + mid-stream swap.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python tools/check_serving.py STORE [--swap-store OTHER] \
        [--mmap] [--clients 6] [--requests 8] [--k 10]

The CI serving-smoke job exports an embedding store from a smoke-trained
model, starts the HTTP daemon over it, fires concurrent warm/cold
queries, hot-swaps to a second store while the clients are mid-stream,
and asserts every response bit-matches the library ``BatchRanker`` of
whichever snapshot version the response claims — the end-to-end proof
that micro-batching and the snapshot seam change scheduling, never
results.

Exit status: 0 when every response matched, 1 on any mismatch or
transport error, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np

from repro.reliability import backoff_schedule
from repro.serve import (BatchRanker, EmbeddingStore, ServingDaemon,
                         SnapshotManager)

#: attempts per request; a load-shedding 503 (or a transient transport
#: error) is retried with jittered exponential backoff, honoring the
#: daemon's Retry-After header when present
ATTEMPTS = 4


def _fetch(request) -> dict:
    """One HTTP exchange with shed/transient-aware retries."""
    delays = backoff_schedule(ATTEMPTS, base_delay=0.05, max_delay=1.0)
    for attempt in range(ATTEMPTS):
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                return json.loads(response.read())
        except urllib.error.HTTPError as error:
            if error.code in (503, 504) and attempt < ATTEMPTS - 1:
                retry_after = error.headers.get("Retry-After")
                error.close()
                delay = delays[attempt] if retry_after is None \
                    else min(float(retry_after), 1.0)
                time.sleep(delay)
                continue
            raise
        except (urllib.error.URLError, TimeoutError, OSError):
            if attempt < ATTEMPTS - 1:
                time.sleep(delays[attempt])
                continue
            raise


def _get(url: str) -> dict:
    return _fetch(url)


def _post(url: str, body: dict) -> dict:
    return _fetch(urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"}))


def expected_rankings(store: EmbeddingStore, k: int) -> dict:
    """Per-mode reference rankings from the library ranker."""
    users = np.arange(store.num_users)
    ranker = BatchRanker.from_store(store)
    out = {"all": ranker.topk(users, k).items}
    cold = store.cold_items()
    if len(cold):
        out["cold"] = ranker.topk(users, k, candidates=cold).items
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store", help="exported embedding store (v1 .npz "
                                      "or v2 directory)")
    parser.add_argument("--swap-store",
                        help="second store to hot-swap to mid-stream "
                             "(default: republish the first store)")
    parser.add_argument("--mmap", action="store_true",
                        help="memory-map the initial store (v2 only)")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=8,
                        help="requests per client per mode")
    parser.add_argument("--k", type=int, default=10)
    args = parser.parse_args(argv)

    store = EmbeddingStore.load(args.store, mmap=args.mmap)
    swap_path = Path(args.swap_store or args.store)
    swap_store = EmbeddingStore.load(swap_path)
    expected = {1: expected_rankings(store, args.k),
                2: expected_rankings(swap_store, args.k)}

    manager = SnapshotManager(store)
    failures: list[str] = []
    lock = threading.Lock()
    started = threading.Barrier(args.clients + 1)

    def client(worker: int, base_url: str, num_users: int) -> None:
        rng = np.random.default_rng(worker)
        started.wait()
        for _ in range(args.requests):
            for mode, endpoint in (("all", "topk"), ("cold", "cold")):
                user = int(rng.integers(num_users))
                try:
                    response = _get(
                        f"{base_url}/{endpoint}?user={user}&k={args.k}")
                except Exception as error:
                    with lock:
                        failures.append(f"{endpoint} user={user}: {error}")
                    continue
                version = response["snapshot_version"]
                reference = expected[version].get(mode)
                if reference is None:  # store has no cold items
                    continue
                want = reference[user].tolist()
                if response["items"] != want:
                    with lock:
                        failures.append(
                            f"{endpoint} user={user} v{version}: "
                            f"got {response['items']}, want {want}")

    num_users = min(store.num_users, swap_store.num_users)
    with ServingDaemon(manager, port=0) as daemon:
        threads = [
            threading.Thread(target=client,
                             args=(worker, daemon.url, num_users))
            for worker in range(args.clients)]
        for thread in threads:
            thread.start()
        started.wait()  # swap while the clients are mid-stream
        swapped = _post(daemon.url + "/swap", {"path": str(swap_path)})
        for thread in threads:
            thread.join(timeout=120)
        stats = _get(daemon.url + "/stats")

    total = args.clients * args.requests * 2
    if swapped["snapshot_version"] != 2:
        failures.append(f"swap published v{swapped['snapshot_version']}, "
                        "expected v2")
    if stats["batcher"]["requests"] < total:
        failures.append(f"daemon saw {stats['batcher']['requests']} "
                        f"requests, expected >= {total}")
    if failures:
        for line in failures[:20]:
            print(f"FAIL: {line}", file=sys.stderr)
        print(f"{len(failures)} failure(s) across {total} responses",
              file=sys.stderr)
        return 1
    print(f"serving smoke OK: {total} concurrent responses bit-matched "
          f"the library ranker across a mid-stream hot-swap "
          f"(mean batch {stats['batcher']['mean_batch_size']:.2f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
