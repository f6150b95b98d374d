"""Training / inference timing harness (paper Table VII, extended).

Measures wall-clock training time and per-user inference latency for
Firzen variants that consume increasing feature sets: BA only, +KA, +VA,
+TA — the exact rows of Table VII — plus these addenda:

* serving: full-ranking top-k throughput of the seed per-user Python
  loop vs the batched :class:`repro.serve.ranker.BatchRanker` path;
* training: epochs/second per model through the frozen-graph engine
  (:func:`measure_training_throughput`);
* optimizer/gradient: the row-sparse gradient pipeline vs the dense
  schedule — a per-phase training-step breakdown
  (:func:`measure_step_breakdown`) and epochs/second on a
  catalog-dominated fixture (:func:`measure_sparse_training_throughput`
  over :func:`catalog_dominated_dataset`), both training bit-identical
  models in either mode.

Every row emitted here records the runtime context it was measured
under — backend name, parameter dtype, effective BLAS thread count
(:func:`runtime_columns`) — so recorded tables are attributable.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..backend import runtime_info as _runtime_info
from ..autograd import optim as ag_optim
from ..autograd.optim import Adam, clip_grad_norm
from ..baselines import create_model
from ..core.config import FirzenConfig
from ..core.firzen import FirzenModel
from ..data import build_dataset
from ..data.datasets import RecDataset
from ..data.splits import ColdStartSplit
from ..data.world import WorldConfig
from ..serve.daemon import LoadShedError, MicroBatcher
from ..serve.ranker import BatchRanker, interactions_to_csr
from ..serve.snapshot import SnapshotManager
from ..serve.store import EmbeddingStore
from ..train.sampler import BPRSampler
from ..train.trainer import TrainConfig, train_model


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set in MB (``ru_maxrss``).

    Monotonic per process (the kernel's high-water mark never resets),
    so per-measurement numbers that must not inherit earlier peaks —
    the build-scaling probes — run in subprocesses
    (:mod:`repro.analysis.scale_probe`)."""
    import resource
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    divisor = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    return peak / divisor


def runtime_columns() -> dict:
    """Render-ready columns naming the runtime a measurement ran under:
    backend, parameter dtype, effective BLAS thread count, and
    the process's peak RSS so far.

    Captured at row-*construction* time (every timing dataclass takes it
    as a ``default_factory`` field), so the peak RSS is the one the
    measurement reached, not the one at render time.
    """
    info = _runtime_info()
    return {"Backend": info["backend"],
            "Param dtype": info["param_dtype"],
            "BLAS threads": info["blas_threads"],
            "Peak RSS (MB)": round(peak_rss_mb(), 1)}


@dataclass
class TimingRow:
    """One Table VII row."""

    label: str
    train_seconds: float
    cold_inference_ms_per_user: float
    warm_inference_ms_per_user: float
    runtime: dict = field(default_factory=runtime_columns)

    def as_row(self) -> dict:
        return {
            "Features": self.label,
            "Train (s)": round(self.train_seconds, 2),
            "Cold inference (ms/user)": round(
                self.cold_inference_ms_per_user, 3),
            "Warm inference (ms/user)": round(
                self.warm_inference_ms_per_user, 3),
            **self.runtime,
        }


def _inference_ms_per_user(model: FirzenModel, users: np.ndarray,
                           repeats: int = 3) -> float:
    """Average per-user latency of a full scoring pass (repr + ranking)."""
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        model.invalidate()
        scores = model.score_users(users)
        np.argsort(-scores, axis=1)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return 1000.0 * best / max(len(users), 1)


def variant_config(use_knowledge: bool, modalities: tuple) -> FirzenConfig:
    """Firzen config for one feature-set row of Table VII."""
    return FirzenConfig(
        use_knowledge=use_knowledge,
        # keep MSHGL only when at least one modality graph exists
        use_mshgl=bool(modalities),
    )


def measure_feature_sets(dataset: RecDataset,
                         train_config: TrainConfig | None = None,
                         seed: int = 0) -> list[TimingRow]:
    """Run the four Table VII rows: BA / +KA / +KA+VA / +KA+VA+TA."""
    rows = []
    variants = [
        ("BA", False, ()),
        ("BA+KA", True, ()),
        ("BA+KA+VA", True, ("image",)),
        ("BA+KA+VA+TA", True, ("image", "text")),
    ]
    train_config = train_config or TrainConfig(epochs=4, eval_every=4)
    cold_users = np.unique(dataset.split.cold_test[:, 0])[:50]
    warm_users = np.unique(dataset.split.warm_test[:, 0])[:50]
    for label, use_kg, modalities in variants:
        config = variant_config(use_kg, modalities)
        model = FirzenModel(dataset, config.embedding_dim,
                            np.random.default_rng(seed), config=config,
                            modalities=modalities)
        result = train_model(model, dataset, train_config)
        rows.append(TimingRow(
            label=label,
            train_seconds=result.train_seconds,
            cold_inference_ms_per_user=_inference_ms_per_user(
                model, cold_users),
            warm_inference_ms_per_user=_inference_ms_per_user(
                model, warm_users),
        ))
    return rows


# ----------------------------------------------------------------------
# serving-layer addendum: per-user loop vs batched ranking throughput
# ----------------------------------------------------------------------
@dataclass
class ThroughputResult:
    """Old-vs-new full-ranking throughput for one serving scenario.

    Two seed baselines are reported: ``single_query`` is how the seed
    repo could actually serve (score + rank one user per request — its
    only entry points were offline, one user at a time), and ``loop`` is
    the seed evaluation protocol's inner loop (scoring batched, ranking
    per user in Python). ``batched`` is the serving layer's blocked path.
    """

    scenario: str
    num_users: int
    num_candidates: int
    k: int
    single_query_users_per_second: float
    loop_users_per_second: float
    batched_users_per_second: float
    runtime: dict = field(default_factory=runtime_columns)

    @property
    def speedup(self) -> float:
        """Batched vs the seed's single-query serving path."""
        return self.batched_users_per_second / max(
            self.single_query_users_per_second, 1e-12)

    @property
    def loop_speedup(self) -> float:
        """Batched vs the seed evaluation protocol's per-user loop."""
        return self.batched_users_per_second / max(
            self.loop_users_per_second, 1e-12)

    def as_rows(self) -> list[dict]:
        rows = [
            ("single-query serving (seed)",
             self.single_query_users_per_second, 1.0),
            ("per-user eval loop (seed)", self.loop_users_per_second,
             self.loop_users_per_second
             / max(self.single_query_users_per_second, 1e-12)),
            ("BatchRanker (blocked)", self.batched_users_per_second,
             self.speedup),
        ]
        return [{"Scenario": self.scenario, "Ranking path": label,
                 "Users": self.num_users,
                 "Candidates": self.num_candidates,
                 "Users/s": round(users_per_s, 1),
                 "Speedup": round(speedup, 1),
                 **self.runtime}
                for label, users_per_s, speedup in rows]


def _single_query_rank(model, users: np.ndarray, candidates: np.ndarray,
                       seen: dict, k: int) -> list:
    """The seed's serving reality: each request scores and ranks one
    user at a time (there was no batch entry point)."""
    from ..eval.protocol import rank_candidates
    rankings = []
    for user in users:
        user_scores = model.score_users(np.asarray([user]))[0].copy()
        for item in seen.get(int(user), ()):
            user_scores[item] = -np.inf
        rankings.append(rank_candidates(user_scores, candidates, k))
    return rankings


def _loop_rank(model, users: np.ndarray, candidates: np.ndarray,
               seen: dict, k: int) -> list:
    """The seed evaluation hot path: full scoring, then a per-user
    Python loop doing set-based masking and one ranking call per user."""
    from ..eval.protocol import rank_candidates
    scores = model.score_users(users)
    rankings = []
    for row, user in enumerate(users):
        user_scores = scores[row].copy()
        for item in seen.get(int(user), ()):
            user_scores[item] = -np.inf
        rankings.append(rank_candidates(user_scores, candidates, k))
    return rankings


def _measure_scenario(model, ranker: BatchRanker, scenario: str,
                      users: np.ndarray, candidates: np.ndarray,
                      seen_sets: dict, k: int,
                      repeats: int) -> ThroughputResult:
    single_best = np.inf
    loop_best = np.inf
    batched_best = np.inf
    mask_seen = bool(seen_sets)
    for _ in range(repeats):
        start = time.perf_counter()
        _single_query_rank(model, users, candidates, seen_sets, k)
        single_best = min(single_best, time.perf_counter() - start)
        start = time.perf_counter()
        _loop_rank(model, users, candidates, seen_sets, k)
        loop_best = min(loop_best, time.perf_counter() - start)
        start = time.perf_counter()
        ranker.topk(users, k, candidates=candidates, mask_seen=mask_seen)
        batched_best = min(batched_best, time.perf_counter() - start)
    return ThroughputResult(
        scenario=scenario,
        num_users=len(users),
        num_candidates=len(candidates),
        k=k,
        single_query_users_per_second=len(users) / max(single_best, 1e-12),
        loop_users_per_second=len(users) / max(loop_best, 1e-12),
        batched_users_per_second=len(users) / max(batched_best, 1e-12),
    )


# ----------------------------------------------------------------------
# training addendum: epochs/second through the frozen-graph engine
# ----------------------------------------------------------------------
@dataclass
class TrainingThroughputRow:
    """Training throughput for one model through the frozen-graph
    engine."""

    model: str
    epochs: int
    epochs_per_second: float
    runtime: dict = field(default_factory=runtime_columns)

    def as_row(self) -> dict:
        return {
            "Model": self.model,
            "Epochs": self.epochs,
            "Epochs/s": round(self.epochs_per_second, 2),
            **self.runtime,
        }


def _epochs_per_second(name: str, dataset: RecDataset, epochs: int,
                       train_config: TrainConfig, seed: int, repeats: int,
                       **model_kwargs) -> float:
    """Best-of-``repeats`` epochs/second for ``epochs`` training epochs
    (intermediate validation passes disabled; the trainer's final-epoch
    validation is included, as it is for every recorded snapshot).

    Each repeat trains a fresh model; one warm-up loss/backward runs
    outside the timer so one-time costs (propagation-plan compilation,
    allocator warm-up) don't skew short measurements.
    """
    config = TrainConfig(**{**train_config.__dict__,
                            "epochs": epochs,
                            "eval_every": epochs + 1})
    best = 0.0
    for _ in range(max(repeats, 1)):
        model = create_model(name, dataset, seed=seed, **model_kwargs)
        warmup = dataset.split.train[:min(64, len(dataset.split.train))]
        model.loss(warmup[:, 0], warmup[:, 1], warmup[:, 1]).backward()
        model.zero_grad()
        result = train_model(model, dataset, config)
        best = max(best,
                   result.epochs_run / max(result.train_seconds, 1e-12))
    return best


def measure_training_throughput(
        dataset: RecDataset,
        model_names: tuple = ("LightGCN", "KGAT", "Firzen"),
        epochs: int = 8, seed: int = 0, repeats: int = 3,
        train_config: TrainConfig | None = None,
        **model_kwargs) -> list[TrainingThroughputRow]:
    """Best-of-``repeats`` epochs/second per model, each repeat training
    a fresh model from the same seed."""
    train_config = train_config or TrainConfig(batch_size=512,
                                               learning_rate=0.05)
    return [TrainingThroughputRow(
        model=name, epochs=epochs,
        epochs_per_second=_epochs_per_second(
            name, dataset, epochs, train_config, seed, repeats,
            **model_kwargs))
        for name in model_names]


def measure_ranking_throughput(model, split: ColdStartSplit,
                               num_users: int = 256, k: int = 20,
                               block_size: int = 256, repeats: int = 5,
                               seed: int = 0) -> list[ThroughputResult]:
    """Benchmark full-ranking top-k scoring, seed paths vs batched path,
    on the paper's two serving scenarios: warm all-ranking (train items
    masked) and strict cold-start all-ranking (the eq. 34-35 workload).

    All paths start from the model's cached representation matrices and
    produce identical top-k lists for ``num_users`` users (sampled with
    replacement so the batch size is independent of the dataset);
    best-of-``repeats`` wall-clock is reported as users/second.
    """
    rng = np.random.default_rng(seed)
    users = rng.choice(np.unique(split.train[:, 0]), size=num_users,
                       replace=True)
    model.refresh()  # exclude representation computation from all paths
    ranker = BatchRanker.from_model(model, block_size=block_size)
    ranker.seen = interactions_to_csr(split.train, split.num_users,
                                      split.num_items)
    warm = _measure_scenario(
        model, ranker, "warm", users, np.asarray(split.warm_items),
        split.train_items_by_user(), k, repeats)
    cold = _measure_scenario(
        model, ranker, "cold", users, np.asarray(split.cold_items),
        {}, k, repeats)
    return [warm, cold]


# ----------------------------------------------------------------------
# serving-service addendum: p50/p99 latency under concurrent load
# ----------------------------------------------------------------------
def synthetic_serving_store(num_users: int = 2000, num_items: int = 24000,
                            dim: int = 64, cold_fraction: float = 0.1,
                            seed: int = 0) -> EmbeddingStore:
    """Catalog-scale synthetic store for service-level measurements.

    The trained tiny/small fixtures have catalogs so small that a
    single-user ``topk`` finishes in microseconds — queue and scheduling
    overhead would dominate any latency measurement.  This fixture is
    sized so the scoring matmul is the measurable cost, which is the
    regime micro-batching targets (and the regime the paper's Amazon
    catalogs occupy).
    """
    rng = np.random.default_rng(seed)
    user_vectors = rng.standard_normal((num_users, dim)).astype(np.float32)
    item_vectors = rng.standard_normal((num_items, dim)).astype(np.float32)
    is_cold = np.zeros(num_items, dtype=bool)
    num_cold = int(num_items * cold_fraction)
    if num_cold:
        is_cold[rng.choice(num_items, size=num_cold, replace=False)] = True
    warm = np.flatnonzero(~is_cold)
    pairs = np.column_stack([
        rng.integers(0, num_users, size=20 * num_users),
        rng.choice(warm, size=20 * num_users),
    ])
    return EmbeddingStore(
        user_vectors, item_vectors,
        seen=interactions_to_csr(pairs, num_users, num_items),
        features={"image": rng.standard_normal((num_items, 16))
                  .astype(np.float32)},
        is_cold=is_cold,
        metadata={"model": "synthetic", "dataset": "serving-bench"},
    )


@dataclass
class ServingLatencyRow:
    """Service-level latency/throughput for one serving scenario.

    ``p50_ms``/``p99_ms`` are client-observed per-request latencies
    through the micro-batching admission queue (the daemon's serving
    core; the stdlib HTTP layer is excluded so the row measures the
    coalescing engine, not socket parsing).  The baseline column is the
    seed-shaped alternative: the same requests issued one at a time as
    single-user ``topk`` calls on the same snapshot.
    """

    scenario: str
    clients: int
    requests: int
    k: int
    p50_ms: float
    p99_ms: float
    requests_per_second: float
    sequential_requests_per_second: float
    mean_batch_size: float
    ingests: int = 0
    #: requests rejected at admission (queue full / draining) during the
    #: reported round — clients retried them, so the row's latencies
    #: include the shed-and-retry cost
    shed: int = 0
    #: requests failed because their deadline passed while queued
    expired: int = 0
    runtime: dict = field(default_factory=runtime_columns)

    @property
    def speedup(self) -> float:
        """Micro-batched concurrent throughput vs sequential queries."""
        return self.requests_per_second / max(
            self.sequential_requests_per_second, 1e-12)

    def as_row(self) -> dict:
        return {
            "Scenario": self.scenario,
            "Clients": self.clients,
            "Requests": self.requests,
            "p50 (ms)": round(self.p50_ms, 3),
            "p99 (ms)": round(self.p99_ms, 3),
            "Batched (req/s)": round(self.requests_per_second, 1),
            "Sequential (req/s)": round(
                self.sequential_requests_per_second, 1),
            "Speedup": round(self.speedup, 2),
            "Mean batch": round(self.mean_batch_size, 1),
            "Shed": self.shed,
            "Expired": self.expired,
            **self.runtime,
        }


def _run_concurrent_clients(batcher: MicroBatcher, users: np.ndarray,
                            k: int, clients: int,
                            requests_per_client: int
                            ) -> tuple[np.ndarray, float]:
    """Fire ``clients`` threads of back-to-back requests; returns
    (client-observed per-request latencies in ms, total wall seconds)."""
    import threading
    latencies: list = [None] * clients
    errors: list = []
    barrier = threading.Barrier(clients + 1)

    def client(idx: int) -> None:
        rng = np.random.default_rng(idx)
        picks = rng.choice(users, size=requests_per_client)
        own = np.empty(requests_per_client)
        try:
            barrier.wait()
            for i, user in enumerate(picks):
                start = time.perf_counter()
                while True:
                    try:
                        future = batcher.submit(int(user), k)
                        break
                    except LoadShedError:
                        # shed: back off briefly and retry, so the
                        # latency recorded includes the shedding cost
                        time.sleep(0.001)
                future.result(timeout=60)
                own[i] = time.perf_counter() - start
            latencies[idx] = own
        except Exception as exc:  # surfaced to the caller below
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=client, args=(idx,), daemon=True)
               for idx in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return 1000.0 * np.concatenate(latencies), wall


def _run_sequential(ranker: BatchRanker, users: np.ndarray, k: int,
                    num_requests: int) -> float:
    """Wall seconds for ``num_requests`` one-user-at-a-time queries —
    how a service without an admission queue answers concurrent load."""
    rng = np.random.default_rng(0)
    picks = rng.choice(users, size=num_requests)
    start = time.perf_counter()
    for user in picks:
        ranker.topk(np.asarray([user], dtype=np.int64), k)
    return time.perf_counter() - start


def measure_serving_latency(store: EmbeddingStore | None = None,
                            clients: int = 8,
                            requests_per_client: int = 40, k: int = 20,
                            max_delay_ms: float = 0.0,
                            max_batch: int = 64, repeats: int = 3,
                            measure_ingest: bool = True,
                            seed: int = 0) -> list[ServingLatencyRow]:
    """p50/p99 serving latency under concurrent load.

    The micro-batched path (``clients`` threads streaming single-user
    requests through a :class:`MicroBatcher`) and the sequential
    baseline (same request count, one ``topk`` per request) are
    measured in *interleaved rounds with the order rotated per round*
    (the :func:`measure_step_breakdown` methodology), keeping each
    path's best round; percentiles come from the batched path's best
    round.  Batching never changes results — each user's row of a
    blocked ``topk`` is bit-identical to their single-user call — so
    the ratio is pure scheduling.

    ``measure_ingest`` adds a scenario where cold-item onboarding plus
    snapshot republish runs concurrently with the query stream (on a
    copy of the store, so the caller's snapshot is not grown).
    """
    if store is None:
        store = synthetic_serving_store(seed=seed)
    users = np.arange(store.num_users, dtype=np.int64)
    num_requests = clients * requests_per_client
    modes = ("batched", "sequential")
    manager = SnapshotManager(store)
    ranker = manager.current.ranker
    # one warm-up pass per path so BLAS/page-cache warm-up is paid
    # outside every timed round
    ranker.topk(users[:8], k)
    best_wall = {mode: np.inf for mode in modes}
    best_latencies = None
    batch_stats = {}
    for round_no in range(max(repeats, 1)):
        shift = round_no % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            if mode == "sequential":
                wall = _run_sequential(ranker, users, k, num_requests)
                best_wall[mode] = min(best_wall[mode], wall)
            else:
                batcher = MicroBatcher(manager, max_batch=max_batch,
                                       max_delay_ms=max_delay_ms)
                try:
                    latencies, wall = _run_concurrent_clients(
                        batcher, users, k, clients, requests_per_client)
                    if wall < best_wall[mode]:
                        best_wall[mode] = wall
                        best_latencies = latencies
                        batch_stats = batcher.stats()
                finally:
                    batcher.stop()
    rows = [ServingLatencyRow(
        scenario="topk under load",
        clients=clients, requests=num_requests, k=k,
        p50_ms=float(np.percentile(best_latencies, 50)),
        p99_ms=float(np.percentile(best_latencies, 99)),
        requests_per_second=num_requests / best_wall["batched"],
        sequential_requests_per_second=(
            num_requests / best_wall["sequential"]),
        mean_batch_size=batch_stats.get("mean_batch_size", 0.0),
        shed=batch_stats.get("shed", 0),
        expired=batch_stats.get("expired", 0),
    )]
    if measure_ingest and store.features:
        rows.append(_measure_ingest_under_load(
            store, users, clients, requests_per_client, k,
            max_delay_ms=max_delay_ms, max_batch=max_batch, seed=seed))
    return rows


def _copy_store(store: EmbeddingStore) -> EmbeddingStore:
    return EmbeddingStore(
        store.user_vectors.copy(), store.item_vectors.copy(),
        seen=store.seen.copy(),
        features={m: f.copy() for m, f in store.features.items()},
        is_cold=store.is_cold, is_ingested=store.is_ingested,
        item_topk=store.item_topk, metadata=store.metadata)


def _measure_ingest_under_load(store: EmbeddingStore, users: np.ndarray,
                               clients: int, requests_per_client: int,
                               k: int, max_delay_ms: float,
                               max_batch: int, seed: int,
                               num_ingests: int = 5,
                               items_per_ingest: int = 4
                               ) -> ServingLatencyRow:
    """Query latency while cold-item onboarding + snapshot republish
    runs concurrently: the hot-swap seam under its intended load."""
    import threading
    working = _copy_store(store)
    manager = SnapshotManager(working)
    batcher = MicroBatcher(manager, max_batch=max_batch,
                           max_delay_ms=max_delay_ms)
    rng = np.random.default_rng(seed)
    stop = threading.Event()
    ingests_done = 0

    def ingester() -> None:
        nonlocal ingests_done
        for _ in range(num_ingests):
            if stop.is_set():
                break
            snapshot = manager.current
            features = {
                modality: rng.standard_normal(
                    (items_per_ingest, feats.shape[1])
                ).astype(np.float32)
                for modality, feats in snapshot.store.features.items()}
            snapshot.store.ingest_items(features)
            manager.swap(snapshot.store, source="<ingest>")
            ingests_done += 1

    thread = threading.Thread(target=ingester, daemon=True)
    try:
        thread.start()
        latencies, wall = _run_concurrent_clients(
            batcher, users, k, clients, requests_per_client)
    finally:
        stop.set()
        thread.join(timeout=30)
        batcher.stop()
    num_requests = clients * requests_per_client
    sequential_wall = _run_sequential(manager.current.ranker, users, k,
                                      num_requests)
    return ServingLatencyRow(
        scenario="ingest under load",
        clients=clients, requests=num_requests, k=k,
        p50_ms=float(np.percentile(latencies, 50)),
        p99_ms=float(np.percentile(latencies, 99)),
        requests_per_second=num_requests / wall,
        sequential_requests_per_second=num_requests / sequential_wall,
        mean_batch_size=batcher.stats()["mean_batch_size"],
        ingests=ingests_done,
        shed=batcher.stats()["shed"],
        expired=batcher.stats()["expired"],
    )


# ----------------------------------------------------------------------
# optimizer/gradient addendum: row-sparse pipeline vs dense baseline
# ----------------------------------------------------------------------
@contextmanager
def _sparse_mode(enabled: bool):
    """Force ``REPRO_SPARSE_GRAD`` for the duration of one measurement."""
    previous = os.environ.get("REPRO_SPARSE_GRAD")
    os.environ["REPRO_SPARSE_GRAD"] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SPARSE_GRAD", None)
        else:
            os.environ["REPRO_SPARSE_GRAD"] = previous


def catalog_dominated_dataset(scale: float = 1.0,
                              seed: int = 0) -> RecDataset:
    """Synthetic timing fixture where the catalog dwarfs the active set.

    Models the workload the row-sparse gradient pipeline targets (and
    the paper's strict cold-start regime taken to production scale):
    a large item catalog of which most rows never receive a gradient —
    80% strict cold-start items plus whatever warm items a batch
    doesn't touch. Dense training scales with the catalog here; the
    sparse pipeline scales with the touched rows.
    """
    config = WorldConfig(
        num_users=int(500 * scale),
        num_items=int(12000 * scale),
        num_clusters=8,
        interactions_per_user_mean=60.0,
        seed=seed,
    )
    return build_dataset("synthetic-catalog", config, cold_fraction=0.8)


@dataclass
class StepPhaseBreakdown:
    """Per-phase cost of one training step (milliseconds per step).

    ``step_ms`` includes every replay of deferred row updates — the
    epoch-boundary flush *and* the replays triggered by forward-phase
    gathers from stale rows (``repro.autograd.optim.REPLAY_SECONDS``).
    That replay is optimizer-step work the sparse schedule moved, not
    removed, so it is attributed to the step phase regardless of which
    read triggered it; the forward column is pure representation cost.

    ``extra_ms`` is the per-epoch auxiliary work (``extra_step`` — the
    discriminator and TransR phases — plus ``on_epoch_end``), amortized
    over the epoch's steps like the flush.
    """

    model: str
    mode: str  # "sparse" | "dense"
    steps: int
    sample_ms: float
    forward_ms: float
    backward_ms: float
    clip_ms: float
    step_ms: float
    extra_ms: float = 0.0
    runtime: dict = field(default_factory=runtime_columns)

    PHASES = ("sample", "forward", "backward", "clip", "step", "extra")

    @property
    def total_ms(self) -> float:
        return (self.sample_ms + self.forward_ms + self.backward_ms
                + self.clip_ms + self.step_ms + self.extra_ms)

    def phase_ms(self, phase: str) -> float:
        return getattr(self, f"{phase}_ms")


def measure_step_breakdown(dataset: RecDataset, model_name: str,
                           epochs: int = 4, batch_size: int = 512,
                           learning_rate: float = 0.05,
                           embedding_dim: int = 32, seed: int = 0,
                           grad_clip: float = 10.0, repeats: int = 3,
                           **model_kwargs) -> dict[str, StepPhaseBreakdown]:
    """Time each training-step phase in two gradient modes.

    Runs the trainer's exact inner loop (sample / forward / backward /
    clip / step) phase-by-phase under a wall clock, one full training
    run per mode from the same seed, and returns
    ``{"sparse": ..., "dense": ...}``:

    * ``sparse`` — row-sparse gradients: the shipped default;
    * ``dense`` — the historical dense schedule.

    Both runs do identical numerical work — the bit-reproducibility
    contract — so the per-phase deltas are pure representation and
    dispatch cost.

    Each mode is measured ``repeats`` times in interleaved rounds with
    the mode order rotated per round, keeping the per-phase minimum —
    a fixed measurement order would hand whichever mode runs first the
    benefit of an undecayed CPU clock and bias every cross-mode ratio.
    """
    modes = ("sparse", "dense")

    def run_once(mode: str) -> StepPhaseBreakdown:
        with _sparse_mode(mode == "sparse"):
            model = create_model(model_name, dataset, seed=seed,
                                 embedding_dim=embedding_dim,
                                 **model_kwargs)
            rng = np.random.default_rng(seed)
            sampler = BPRSampler(dataset.split.train, dataset.num_items,
                                 dataset.split.warm_items, rng)
            optimizer = Adam(model.parameters(), lr=learning_rate)
            phase_s = dict.fromkeys(StepPhaseBreakdown.PHASES, 0.0)
            steps = 0
            for epoch in range(epochs):
                model.train()
                model.invalidate()
                start = time.perf_counter()
                batches = list(sampler.epoch_batches(batch_size))
                phase_s["sample"] += time.perf_counter() - start
                for users, pos, neg in batches:
                    optimizer.zero_grad()
                    start = time.perf_counter()
                    replay_before = ag_optim.REPLAY_SECONDS
                    loss = model.loss(users, pos, neg)
                    moved = ag_optim.REPLAY_SECONDS - replay_before
                    # Deferred-row replays triggered by forward gathers
                    # are optimizer-step work: attribute them there.
                    phase_s["forward"] += time.perf_counter() - start - moved
                    phase_s["step"] += moved
                    start = time.perf_counter()
                    loss.backward()
                    phase_s["backward"] += time.perf_counter() - start
                    start = time.perf_counter()
                    clip_grad_norm(optimizer.params, grad_clip)
                    phase_s["clip"] += time.perf_counter() - start
                    start = time.perf_counter()
                    optimizer.step()
                    phase_s["step"] += time.perf_counter() - start
                    steps += 1
                start = time.perf_counter()
                optimizer.flush()
                phase_s["step"] += time.perf_counter() - start
                start = time.perf_counter()
                replay_before = ag_optim.REPLAY_SECONDS
                model.extra_step()
                model.on_epoch_end(epoch)
                moved = ag_optim.REPLAY_SECONDS - replay_before
                # Lazy-row replays triggered by the auxiliary phases
                # (e.g. Firzen's KG batches reading lazy tables) are
                # step work too — same attribution as the forward's.
                phase_s["extra"] += time.perf_counter() - start - moved
                phase_s["step"] += moved
            optimizer.release()
            return StepPhaseBreakdown(
                model=model_name, mode=mode, steps=steps,
                **{f"{phase}_ms": 1000.0 * seconds / max(steps, 1)
                   for phase, seconds in phase_s.items()})

    results: dict[str, StepPhaseBreakdown] = {}
    for round_no in range(max(repeats, 1)):
        order = modes[round_no % len(modes):] + modes[:round_no % len(modes)]
        for mode in order:
            run = run_once(mode)
            best = results.get(mode)
            if best is None:
                results[mode] = run
                continue
            for phase in StepPhaseBreakdown.PHASES:
                name = f"{phase}_ms"
                setattr(best, name, min(getattr(best, name),
                                        getattr(run, name)))
    return {mode: results[mode] for mode in modes}


def breakdown_rows(breakdowns: dict[str, StepPhaseBreakdown]) -> list[dict]:
    """Render a per-phase comparison table (sparse vs dense)."""
    sparse, dense = breakdowns["sparse"], breakdowns["dense"]
    rows = []
    for phase in StepPhaseBreakdown.PHASES + ("total",):
        dense_ms = (dense.total_ms if phase == "total"
                    else dense.phase_ms(phase))
        sparse_ms = (sparse.total_ms if phase == "total"
                     else sparse.phase_ms(phase))
        row = {
            "Model": sparse.model,
            "Phase": phase,
            "Dense (ms/step)": round(dense_ms, 3),
            "Sparse (ms/step)": round(sparse_ms, 3),
            "Speedup": round(dense_ms / max(sparse_ms, 1e-9), 2),
        }
        row.update(sparse.runtime)
        rows.append(row)
    return rows


@dataclass
class SparseThroughputRow:
    """Epochs/second with the row-sparse gradient pipeline on vs off.

    The two runs train bit-identical models (sparse off is the dense
    reference schedule); only wall-clock differs.
    """

    model: str
    epochs: int
    sparse_epochs_per_second: float
    dense_epochs_per_second: float
    runtime: dict = field(default_factory=runtime_columns)

    @property
    def speedup(self) -> float:
        return self.sparse_epochs_per_second / max(
            self.dense_epochs_per_second, 1e-12)

    def as_row(self) -> dict:
        return {
            "Model": self.model,
            "Epochs": self.epochs,
            "Sparse (epochs/s)": round(self.sparse_epochs_per_second, 2),
            "Dense (epochs/s)": round(self.dense_epochs_per_second, 2),
            "Sparse speedup": round(self.speedup, 2),
            **self.runtime,
        }


def measure_sparse_training_throughput(
        dataset: RecDataset, model_names: tuple = ("BPR",),
        epochs: int = 12, seed: int = 0, repeats: int = 3,
        train_config: TrainConfig | None = None,
        **model_kwargs) -> list[SparseThroughputRow]:
    """Epochs/second per model, sparse gradient pipeline vs dense.

    Same per-run protocol as :func:`measure_training_throughput` (fresh
    model per run, one warm-up step outside the timer, final-epoch
    validation included), toggled over ``REPRO_SPARSE_GRAD``. The two
    modes are measured in *interleaved rounds with the mode order
    rotated per round* (the :func:`measure_step_breakdown`
    methodology), keeping each mode's best round: a fixed order would
    hand whichever mode runs first the benefit of an undecayed CPU
    clock and bias the ratio the CI floor gates on.
    """
    train_config = train_config or TrainConfig(batch_size=512,
                                               learning_rate=0.05)
    modes = (True, False)
    rows = []
    for name in model_names:
        best = dict.fromkeys(modes, 0.0)
        for round_no in range(max(repeats, 1)):
            shift = round_no % len(modes)
            for sparse in modes[shift:] + modes[:shift]:
                with _sparse_mode(sparse):
                    eps = _epochs_per_second(
                        name, dataset, epochs, train_config, seed,
                        repeats=1, **model_kwargs)
                best[sparse] = max(best[sparse], eps)
        rows.append(SparseThroughputRow(
            model=name, epochs=epochs,
            sparse_epochs_per_second=best[True],
            dense_epochs_per_second=best[False],
        ))
    return rows


# ----------------------------------------------------------------------
# scaling curves (Table VII addendum): build cost + serving vs size
# ----------------------------------------------------------------------
@dataclass
class BuildScalingRow:
    """One point of the build-scaling curve: the wall-clock and peak-RSS
    cost of materializing a benchmark at a given catalog size.

    ``mode`` distinguishes the in-RAM reference build from the chunked
    out-of-core build; both are measured in dedicated subprocesses
    (:mod:`repro.analysis.scale_probe`), so each peak RSS is an honest
    per-build high-water mark, not this process's accumulated one.
    ``fingerprint`` is the dataset's content hash — equal across modes
    by the chunked-parity contract, and the CLI gate fails if not.
    """

    size: str
    num_users: int
    num_items: int
    interactions: int
    mode: str
    build_seconds: float
    build_peak_rss_mb: float
    fingerprint: str
    runtime: dict = field(default_factory=runtime_columns)

    @property
    def interactions_per_second(self) -> float:
        return self.interactions / max(self.build_seconds, 1e-9)

    def as_row(self) -> dict:
        return {
            "Size": self.size,
            "#Users": self.num_users,
            "#Items": self.num_items,
            "#Interactions": self.interactions,
            "Mode": self.mode,
            "Build (s)": round(self.build_seconds, 2),
            "Rows/s": round(self.interactions_per_second, 0),
            # distinct from the runtime "Peak RSS (MB)" column, which
            # reports THIS process — the build ran in a subprocess
            "Build peak RSS (MB)": round(self.build_peak_rss_mb, 1),
            "Fingerprint": self.fingerprint,
            **self.runtime,
        }


def _run_scale_probe(args: list) -> dict:
    """One build probe in a fresh subprocess; returns its JSON report."""
    import json
    import subprocess
    import sys
    from pathlib import Path

    import repro
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.scale_probe", *args],
        capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"scale probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_build_scaling(sizes: tuple = ("tiny", "small"),
                          chunk_rows: int | None = None,
                          seed: int = 0) -> list[BuildScalingRow]:
    """Build throughput and peak RSS vs catalog size, in-RAM vs chunked.

    Each (size, mode) point is one subprocess probe.  The in-RAM
    reference's RSS grows with the catalog; the chunked build's must
    stay bounded by the chunk size — the curve this addendum exists to
    show (and the CI job asserts under a ceiling).
    """
    from ..data.chunked import DEFAULT_CHUNK_ROWS
    chunk_rows = chunk_rows or DEFAULT_CHUNK_ROWS
    rows = []
    for size in sizes:
        for mode_args, mode in (
                ([], "in-RAM"),
                (["--chunk-rows", str(chunk_rows)],
                 f"chunked({chunk_rows})")):
            report = _run_scale_probe(
                ["--size", size, "--seed", str(seed), *mode_args])
            rows.append(BuildScalingRow(
                size=size,
                num_users=report["num_users"],
                num_items=report["num_items"],
                interactions=report["interactions"],
                mode=mode,
                build_seconds=report["seconds"],
                build_peak_rss_mb=report["maxrss_mb"],
                fingerprint=report["fingerprint"],
            ))
    return rows


def measure_serving_scaling(num_items: int = 1_000_000,
                            num_users: int = 4000, dim: int = 64,
                            clients: int = 4,
                            requests_per_client: int = 8,
                            k: int = 20,
                            seed: int = 0) -> list[ServingLatencyRow]:
    """Serving p50/p99 on a catalog where scoring dominates every
    request (default: one million items).

    A thin wrapper over :func:`measure_serving_latency` on a
    :func:`synthetic_serving_store` of the requested catalog size; one
    round (the matmuls are long enough that best-of repetition buys
    little at this scale), no ingest scenario.
    """
    store = synthetic_serving_store(num_users=num_users,
                                    num_items=num_items, dim=dim,
                                    seed=seed)
    return measure_serving_latency(
        store, clients=clients, requests_per_client=requests_per_client,
        k=k, repeats=1,
        measure_ingest=False, seed=seed)
