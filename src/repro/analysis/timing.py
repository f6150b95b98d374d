"""Training / inference timing harness (paper Table VII, extended).

Measures wall-clock training time and per-user inference latency for
Firzen variants that consume increasing feature sets: BA only, +KA, +VA,
+TA — the exact rows of Table VII — plus these addenda:

* serving: full-ranking top-k throughput of the seed per-user Python
  loop vs the batched :class:`repro.serve.ranker.BatchRanker` path;
* training: epochs/second per model through the frozen-graph engine
  (:func:`measure_training_throughput`, behind ``repro bench train``).

Every repeated measurement runs through :func:`compare`: interleaved
rounds that run each mode once, with the starting mode rotated per
round. Every row emitted here records the runtime context it was measured
under — backend name, parameter dtype, effective BLAS thread count
(:func:`runtime_columns`) — so recorded tables are attributable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..backend import runtime_info as _runtime_info
from ..baselines import create_model
from ..core.config import FirzenConfig
from ..core.firzen import FirzenModel
from ..data.datasets import RecDataset
from ..data.splits import ColdStartSplit
from ..serve.daemon import LoadShedError, MicroBatcher
from ..serve.ranker import BatchRanker, interactions_to_csr
from ..serve.snapshot import SnapshotManager
from ..serve.store import EmbeddingStore
from ..train.trainer import TrainConfig, train_model


def runtime_columns() -> dict:
    """Render-ready columns naming the runtime a measurement ran under:
    backend, parameter dtype, effective BLAS thread count, and
    the process's peak RSS so far.

    Captured at row-*construction* time (every timing dataclass takes it
    as a ``default_factory`` field), so the peak RSS is the one the
    measurement reached, not the one at render time.
    """
    # imported here: ``python -m repro.analysis.scale_probe`` imports this
    # module through the package, and must not find itself imported
    from .scale_probe import peak_rss_mb
    info = _runtime_info()
    return {"Backend": info["backend"],
            "Param dtype": info["param_dtype"],
            "BLAS threads": info["blas_threads"],
            "Peak RSS (MB)": round(peak_rss_mb(), 1)}


def compare(modes, run_once, rounds: int) -> dict:
    """Run every mode once per round; returns ``{mode: [result, ...]}``
    with one result per round.

    The starting mode moves by one each round (``a b c``, then
    ``b c a``, then ``c a b``): a fixed order would hand whichever mode
    runs first the benefit of an undecayed CPU clock and bias every
    cross-mode ratio. The caller reduces the per-round results (best
    epochs/s, fewest seconds, ...). Modes must be distinct: each names
    one result list.
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"compare: repeated mode in {modes}")
    results = {mode: [] for mode in modes}
    for round_no in range(max(rounds, 1)):
        shift = round_no % len(modes)
        for mode in modes[shift:] + modes[:shift]:
            results[mode].append(run_once(mode))
    return results


def _seconds(fn, *args) -> float:
    """Wall seconds of one ``fn(*args)`` call."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


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


def _inference_ms_per_user(model: FirzenModel, users: dict) -> dict:
    """Per-user latency of a full scoring pass (repr + ranking) for each
    named user set, fewest seconds over three rounds."""
    def score(name: str) -> None:
        model.invalidate()
        np.argsort(-model.score_users(users[name]), axis=1)

    seconds = compare(users, lambda name: _seconds(score, name), rounds=3)
    return {name: 1000.0 * min(times) / max(len(users[name]), 1)
            for name, times in seconds.items()}


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
    """Run the four Table VII rows: BA / +KA / +KA+VA / +KA+VA+TA.

    The variants run through :func:`compare` for three rounds, each run
    training a fresh model from ``seed``; every row keeps its variant's
    best training and inference times.
    """
    variants = {
        "BA": (False, ()),
        "BA+KA": (True, ()),
        "BA+KA+VA": (True, ("image",)),
        "BA+KA+VA+TA": (True, ("image", "text")),
    }
    train_config = train_config or TrainConfig(epochs=4, eval_every=4)
    users = {"cold": np.unique(dataset.split.cold_test[:, 0])[:50],
             "warm": np.unique(dataset.split.warm_test[:, 0])[:50]}

    def run_once(label: str) -> tuple[float, dict]:
        use_kg, modalities = variants[label]
        config = variant_config(use_kg, modalities)
        model = FirzenModel(dataset, config.embedding_dim,
                            np.random.default_rng(seed), config=config,
                            modalities=modalities)
        result = train_model(model, dataset, train_config)
        return result.train_seconds, _inference_ms_per_user(model, users)

    return [TimingRow(
        label=label,
        train_seconds=min(seconds for seconds, _ in runs),
        cold_inference_ms_per_user=min(ms["cold"] for _, ms in runs),
        warm_inference_ms_per_user=min(ms["warm"] for _, ms in runs),
    ) for label, runs in compare(variants, run_once, rounds=3).items()]


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
    mask_seen = bool(seen_sets)
    paths = {
        "single": lambda: _single_query_rank(model, users, candidates,
                                             seen_sets, k),
        "loop": lambda: _loop_rank(model, users, candidates, seen_sets, k),
        "batched": lambda: ranker.topk(users, k, candidates=candidates,
                                       mask_seen=mask_seen),
    }
    users_per_s = {
        path: len(users) / max(min(seconds), 1e-12)
        for path, seconds in compare(
            paths, lambda path: _seconds(paths[path]), repeats).items()}
    return ThroughputResult(
        scenario=scenario,
        num_users=len(users),
        num_candidates=len(candidates),
        k=k,
        single_query_users_per_second=users_per_s["single"],
        loop_users_per_second=users_per_s["loop"],
        batched_users_per_second=users_per_s["batched"],
    )


# ----------------------------------------------------------------------
# training throughput (``repro bench train``): epochs/second through
# the frozen-graph engine
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
                       train_config: TrainConfig, seed: int,
                       **model_kwargs) -> float:
    """Epochs/second of one fresh model trained for ``epochs`` epochs
    (intermediate validation passes disabled; the trainer's final-epoch
    validation is included, as it is for every recorded snapshot).

    One warm-up loss/backward runs outside the timer so one-time costs
    (propagation-plan compilation, allocator warm-up) don't skew short
    measurements.
    """
    config = TrainConfig(**{**train_config.__dict__,
                            "epochs": epochs,
                            "eval_every": epochs + 1})
    model = create_model(name, dataset, seed=seed, **model_kwargs)
    warmup = dataset.split.train[:min(64, len(dataset.split.train))]
    model.loss(warmup[:, 0], warmup[:, 1], warmup[:, 1]).backward()
    model.zero_grad()
    result = train_model(model, dataset, config)
    return result.epochs_run / max(result.train_seconds, 1e-12)


def measure_training_throughput(
        dataset: RecDataset,
        model_names: tuple = ("LightGCN", "KGAT", "Firzen"),
        epochs: int = 8, seed: int = 0, repeats: int = 3,
        train_config: TrainConfig | None = None,
        **model_kwargs) -> list[TrainingThroughputRow]:
    """Best epochs/second per model over ``repeats`` :func:`compare`
    rounds (the models rotate across rounds), each run training a fresh
    model from the same seed."""
    train_config = train_config or TrainConfig(batch_size=512,
                                               learning_rate=0.05)
    runs = compare(model_names, lambda name: _epochs_per_second(
        name, dataset, epochs, train_config, seed, **model_kwargs), repeats)
    return [TrainingThroughputRow(model=name, epochs=epochs,
                                  epochs_per_second=max(rates))
            for name, rates in runs.items()]


def measure_ranking_throughput(model, split: ColdStartSplit,
                               num_users: int = 256, k: int = 20,
                               block_size: int = 256, repeats: int = 5,
                               seed: int = 0) -> list[ThroughputResult]:
    """Benchmark full-ranking top-k scoring, seed paths vs batched path,
    on the paper's two serving scenarios: warm all-ranking (train items
    masked) and strict cold-start all-ranking (the eq. 34-35 workload).

    All paths start from the model's cached representation matrices and
    produce identical top-k lists for ``num_users`` users (sampled with
    replacement so the batch size is independent of the dataset). The
    three paths run in ``repeats`` :func:`compare` rounds; each path's
    fewest seconds is reported as users/second.
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
                            max_batch: int = 64, repeats: int = 3,
                            measure_ingest: bool = True,
                            seed: int = 0) -> list[ServingLatencyRow]:
    """p50/p99 serving latency under concurrent load.

    Three modes run in ``repeats`` :func:`compare` rounds:

    * ``batched`` — ``clients`` threads stream single-user requests
      through a :class:`MicroBatcher`;
    * ``sequential`` — the same request count, one ``topk`` per request;
    * ``ingest`` (with ``measure_ingest`` and a store with features) —
      the batched clients while a writer onboards cold items through
      :meth:`SnapshotManager.ingest`, the hot-swap seam under its
      intended load. Each round starts a fresh manager over ``store``;
      ingest publishes new snapshots and never grows the caller's store.

    Each concurrent row reports its round with the lowest wall time
    (latency percentiles included); both rows share the sequential
    baseline's fewest seconds. Batching never changes results — each
    user's row of a blocked ``topk`` is bit-identical to their
    single-user call — so the ratio is pure scheduling.
    """
    import threading
    if store is None:
        store = synthetic_serving_store(seed=seed)
    users = np.arange(store.num_users, dtype=np.int64)
    num_requests = clients * requests_per_client
    manager = SnapshotManager(store)
    ranker = manager.current.ranker
    # one warm-up pass so BLAS/page-cache warm-up is paid outside every
    # timed round
    ranker.topk(users[:8], k)
    modes = ["batched", "sequential"]
    if measure_ingest and store.features:
        modes.append("ingest")

    def ingester(target: SnapshotManager, stop: threading.Event) -> None:
        """Five ingests of four cold items each, until ``stop``."""
        rng = np.random.default_rng(seed)
        for _ in range(5):
            if stop.is_set():
                break
            target.ingest({
                modality: rng.standard_normal(
                    (4, feats.shape[1])).astype(np.float32)
                for modality, feats in store.features.items()})

    def run_once(mode: str) -> dict:
        if mode == "sequential":
            return {"wall": _run_sequential(ranker, users, k, num_requests)}
        target = manager if mode == "batched" else SnapshotManager(store)
        batcher = MicroBatcher(target, max_batch=max_batch)
        stop = threading.Event()
        writer = None
        if mode == "ingest":
            writer = threading.Thread(target=ingester, args=(target, stop),
                                      daemon=True)
            writer.start()
        try:
            latencies, wall = _run_concurrent_clients(
                batcher, users, k, clients, requests_per_client)
        finally:
            stop.set()
            if writer is not None:
                writer.join(timeout=30)
            batcher.stop()
        return {"wall": wall, "latencies": latencies,
                "ingests": target.version - 1, **batcher.stats()}

    runs = compare(modes, run_once, repeats)
    sequential = min(run["wall"] for run in runs["sequential"])
    rows = []
    for mode, scenario in (("batched", "topk under load"),
                           ("ingest", "ingest under load")):
        if mode not in runs:
            continue
        best = min(runs[mode], key=lambda run: run["wall"])
        rows.append(ServingLatencyRow(
            scenario=scenario,
            clients=clients, requests=num_requests, k=k,
            p50_ms=float(np.percentile(best["latencies"], 50)),
            p99_ms=float(np.percentile(best["latencies"], 99)),
            requests_per_second=num_requests / best["wall"],
            sequential_requests_per_second=num_requests / sequential,
            mean_batch_size=best["mean_batch_size"],
            ingests=best["ingests"],
            shed=best["shed"],
            expired=best["expired"],
        ))
    return rows


# ----------------------------------------------------------------------
# scaling curves (Table VII addendum): build cost + serving vs size
# ----------------------------------------------------------------------
@dataclass
class BuildScalingRow:
    """One point of the build-scaling curve: the wall-clock and peak-RSS
    cost of materializing a benchmark at a given catalog size.

    ``mode`` distinguishes the in-RAM reference build from the streamed
    block-at-a-time build; both are measured in dedicated subprocesses
    (:mod:`repro.analysis.scale_probe`), so each peak RSS is an honest
    per-build high-water mark, not this process's accumulated one.
    ``fingerprint`` is the dataset's content hash — equal across modes
    by the streamed-parity contract, and the CLI gate fails if not.
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


def measure_build_scaling(sizes: tuple = ("tiny", "small"),
                          seed: int = 0) -> list[BuildScalingRow]:
    """Build throughput and peak RSS vs catalog size, in-RAM vs streamed.

    Each (size, mode) point is one subprocess probe.  The in-RAM
    reference's RSS grows with the catalog; the streamed build's must
    stay bounded by one generator block — the curve this addendum
    exists to show (and the CI job asserts under a ceiling).
    """
    from .scale_probe import run_probe
    rows = []
    for size in sizes:
        for mode_args, mode in (([], "in-RAM"),
                                (["--streamed"], "streamed")):
            report = run_probe(["--size", size, "--seed", seed,
                                *mode_args])
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
