#!/usr/bin/env python
"""Chaos smoke: kill/resume training, torn stores, a faulted daemon.

Usage (from the repo root, with ``PYTHONPATH=src``)::

    python tools/check_chaos.py [--seed 1234] [--epochs 4] [--clients 4]

Drives one seeded fault plan through each subsystem and asserts the
reliability contracts end to end (the CI ``chaos-smoke`` job's gate):

1. **Training**: a scripted crash at every snapshot boundary, each
   followed by a fresh-process resume — the resumed training fingerprint
   must be bit-identical to an uninterrupted run's, and a corrupt
   snapshot must degrade to a clean (still bit-exact) restart.
2. **Stores**: a published store with a torn array is rejected with
   ``CorruptStoreError``, mapped or not; a killed write never publishes;
   an ArtifactStore entry corrupted on disk is quarantined and recomputed.
3. **Serving**: a daemon under a seeded fault plan (slow + failing
   batches against a bounded queue) never returns a torn or
   wrong-version response — every 200 bit-matches the library ranker,
   every failure is a structured JSON 5xx.
4. **Determinism**: replaying the same plan over the same operation
   sequence twice yields the identical fault event log.

Exit status: 0 when every contract held, 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import urllib.error
import urllib.request

import numpy as np

from repro.baselines import create_model
from repro.data import build_dataset
from repro.data.world import WorldConfig
from repro.reliability import (FaultPlan, FaultSpec, InjectedCrash,
                               inject)
from repro.serve import (BatchRanker, EmbeddingStore, ServingDaemon,
                         SnapshotManager)
from repro.serve.store import CorruptStoreError
from repro.train import TrainConfig, train_model
from repro.train.fingerprint import training_fingerprint


def _dataset():
    return build_dataset("custom", WorldConfig(
        num_users=40, num_items=60, num_brands=4, seed=0))


def check_training(seed: int, epochs: int, tmp, failures: list) -> None:
    """Kill at every snapshot boundary; resume must be bit-exact."""
    dataset = _dataset()
    config = TrainConfig(epochs=epochs, eval_every=2, batch_size=64,
                         learning_rate=0.05, patience=10)

    def fresh():
        return create_model("BPR", dataset, embedding_dim=16, seed=0)

    reference = fresh()
    ref_result = train_model(reference, dataset, config)
    expected = training_fingerprint(reference, ref_result)["combined"]

    for kill_epoch in range(1, epochs):
        snapshot = tmp / f"kill{kill_epoch}"
        plan = FaultPlan(
            [FaultSpec(op="train.epoch.end", kind="crash",
                       at=kill_epoch)],
            seed=seed, name=f"kill-{kill_epoch}")
        victim = fresh()
        try:
            with inject(plan):
                train_model(victim, dataset, config,
                            snapshot_path=snapshot)
            failures.append(f"training: plan {plan.name} never fired")
            continue
        except InjectedCrash:
            pass
        resumed = fresh()
        res_result = train_model(resumed, dataset, config,
                                 snapshot_path=snapshot)
        got = training_fingerprint(resumed, res_result)["combined"]
        if got != expected:
            failures.append(
                f"training: resume after kill at epoch {kill_epoch} "
                f"diverged ({got[:12]} != {expected[:12]})")

    # corrupt-snapshot degradation: restart from scratch, same bits
    from repro.reliability.faults import tear_file
    snapshot = tmp / "corrupt"
    victim = fresh()
    plan = FaultPlan([FaultSpec(op="train.epoch.end", kind="crash")],
                     seed=seed)
    try:
        with inject(plan):
            train_model(victim, dataset, config, snapshot_path=snapshot)
    except InjectedCrash:
        pass
    tear_file(min((snapshot / "epoch-0").glob("*.npy")), keep_fraction=0.3)
    import warnings
    restarted = fresh()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res_result = train_model(restarted, dataset, config,
                                 snapshot_path=snapshot)
    got = training_fingerprint(restarted, res_result)["combined"]
    if got != expected:
        failures.append("training: corrupt-snapshot restart diverged")


def check_stores(seed: int, tmp, failures: list) -> None:
    """A torn array and a killed write are rejected; quarantine +
    recompute."""
    from repro.reliability.faults import tear_file
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(rng.normal(size=(10, 8)),
                           rng.normal(size=(20, 8)))

    # a published store whose array a disk fault cut short: rejected
    # whether its matrices are read or memory-mapped
    torn = store.save(tmp / "torn")
    tear_file(torn / "item_vectors.npy")
    for mmap in (False, True):
        try:
            EmbeddingStore.load(torn, mmap=mmap)
            failures.append(f"stores: torn array loaded (mmap={mmap})")
        except CorruptStoreError:
            pass

    # a write killed between the arrays and the manifest never
    # publishes
    killed = tmp / "killed"
    plan = FaultPlan([FaultSpec(op="store.v2.write", kind="crash")],
                     seed=seed, name="kill-write")
    try:
        with inject(plan):
            store.save(killed)
        failures.append("stores: kill plan never fired")
    except InjectedCrash:
        pass
    if killed.exists():
        failures.append("stores: killed write still published")

    from repro.experiments.store import ArtifactStore
    artifacts = ArtifactStore(tmp / "artifacts")
    staged = artifacts.stage_dir("train", "k")
    (staged / "blob.bin").write_bytes(b"payload")
    artifacts.commit("train", "k", staged, {"m": 1})
    plan = FaultPlan([FaultSpec(op="artifact.read", kind="corrupt")],
                     seed=seed, name="bitrot")
    with inject(plan):
        if artifacts.get("train", "k") is not None:
            failures.append("stores: corrupted artifact served anyway")
    if not artifacts.quarantined:
        failures.append("stores: corrupted artifact was not quarantined")
    staged = artifacts.stage_dir("train", "k")
    (staged / "blob.bin").write_bytes(b"recomputed")
    artifacts.commit("train", "k", staged, {"m": 1})
    served = artifacts.get("train", "k")
    if served is None or \
            (served / "blob.bin").read_bytes() != b"recomputed":
        failures.append("stores: recompute after quarantine not served")


def _get_raw(url: str):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def check_daemon(seed: int, clients: int, failures: list) -> None:
    """Zero torn responses under a seeded fault plan on a bounded
    daemon: each 200 bit-matches the library ranker; each failure is a
    structured JSON 5xx."""
    rng = np.random.default_rng(seed)
    store = EmbeddingStore(rng.normal(size=(20, 8)),
                           rng.normal(size=(40, 8)))
    reference = BatchRanker.from_store(store).topk(
        np.arange(store.num_users), 5)
    manager = SnapshotManager(store)
    plan = FaultPlan(
        [FaultSpec(op="daemon.batch", kind="slow", delay_ms=20.0,
                   at=1, times=4),
         FaultSpec(op="daemon.batch", kind="error", at=6, times=3)],
        seed=seed, name="chaos-daemon")
    outcomes = {"ok": 0, "shed": 0, "failed": 0, "torn": 0}
    lock = threading.Lock()

    def client(worker: int, base_url: str) -> None:
        worker_rng = np.random.default_rng(seed + worker)
        for _ in range(8):
            user = int(worker_rng.integers(store.num_users))
            status, body = _get_raw(f"{base_url}/topk?user={user}&k=5")
            with lock:
                if status == 200:
                    if body["snapshot_version"] != 1 or \
                            body["items"] != \
                            reference.items[user].tolist():
                        outcomes["torn"] += 1
                    else:
                        outcomes["ok"] += 1
                elif status == 503:
                    outcomes["shed"] += 1
                elif "error" in body and "snapshot_version" in body:
                    outcomes["failed"] += 1
                else:
                    outcomes["torn"] += 1

    with ServingDaemon(manager, max_batch=4, max_queue=8) as daemon:
        with inject(plan):
            threads = [threading.Thread(target=client,
                                        args=(w, daemon.url))
                       for w in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        status, body = _get_raw(daemon.url + "/healthz")
        if status != 200:
            failures.append(f"daemon: healthz said {status} after the "
                            "fault window closed")

    if outcomes["torn"]:
        failures.append(f"daemon: {outcomes['torn']} torn or "
                        "wrong-version response(s)")
    if not outcomes["ok"]:
        failures.append("daemon: no request was served at all")
    if not plan.events:
        failures.append("daemon: the fault plan never fired")
    print(f"  daemon outcomes: {outcomes} "
          f"({len(plan.events)} faults fired)")


def check_determinism(seed: int, failures: list) -> None:
    """Same plan + same operation sequence twice = identical event log."""
    from repro.reliability import fire

    def drive(plan: FaultPlan):
        plan.reset()
        with inject(plan):
            for op in ("a.x", "b.y", "a.x", "a.z", "b.y", "a.x"):
                try:
                    fire(op)
                except BaseException:
                    pass
        return plan.event_log()

    plan = FaultPlan([FaultSpec(op="a.*", kind="error", at=2, times=2),
                      FaultSpec(op="b.*", kind="crash", at=2)],
                     seed=seed, name="replay")
    first, second = drive(plan), drive(plan)
    if first != second:
        failures.append(f"determinism: event logs differ: {first} vs "
                        f"{second}")
    if not first:
        failures.append("determinism: plan fired no events")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1234,
                        help="fault-plan seed (the failure sequence is "
                             "a pure function of it)")
    parser.add_argument("--epochs", type=int, default=4)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--workdir", default=None,
                        help="scratch dir (default: a fresh temp dir)")
    args = parser.parse_args(argv)

    import tempfile
    from pathlib import Path
    if args.workdir:
        tmp = Path(args.workdir)
        tmp.mkdir(parents=True, exist_ok=True)
    else:
        tmp = Path(tempfile.mkdtemp(prefix="repro-chaos-"))

    failures: list[str] = []
    print("chaos smoke: training kill/resume ...")
    check_training(args.seed, args.epochs, tmp, failures)
    print("chaos smoke: torn stores + quarantine ...")
    check_stores(args.seed, tmp, failures)
    print("chaos smoke: daemon under faults ...")
    check_daemon(args.seed, args.clients, failures)
    print("chaos smoke: fault-plan determinism ...")
    check_determinism(args.seed, failures)

    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"chaos smoke OK (seed {args.seed}): bit-exact resume at "
          f"every boundary, torn writes rejected, quarantine + "
          f"recompute served, zero torn responses, replayable faults")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
