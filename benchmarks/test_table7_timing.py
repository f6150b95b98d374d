"""Table VII — training and inference time vs consumed feature sets.

Rows: BA / BA+KA / BA+KA+VA / BA+KA+VA+TA. Paper shapes: adding KA
dominates the training-time increase (TransR + attention + adversarial
objectives); adding the modalities adds little inference latency.

Serving addendum: full-ranking top-k throughput of the seed per-user
loop vs the batched serving path, on a >=256-user batch.

Training addendum: epochs/second through the frozen-graph engine for
three representative models, against the epochs/second the pre-engine
seed implementation measured on the reference machine (the
``SEED_EPOCHS_PER_SECOND`` snapshot below) — the before/after record of
the engine refactor. Absolute numbers are machine-dependent; the
snapshot documents the *relative* change on one machine.

Optimizer/gradient addendum: the row-sparse gradient pipeline (PR 3)
vs the dense schedule it replaced, on the catalog-dominated synthetic
fixture where most embedding rows never receive a gradient — epochs/
second plus the per-phase training-step breakdown. Both modes train
bit-identical models; the dense column is the schedule this repo ran
before the row-sparse pipeline landed. The heterogeneous models
(Firzen, KGAT) get the same per-phase breakdown on beauty/small.

Serving-latency addendum: client-observed p50/p99 of the micro-batched
daemon path under concurrent closed-loop load, against a sequential
one-query-at-a-time baseline over the same snapshot — plus
ingest-under-load (hot-swaps racing the query stream). Honest numbers
from the reference machine (24k-item synthetic catalog, 8 clients):
micro-batching wins ~1.3-2.1x on throughput because batches form from
the backlog that accumulates while the previous batch computes (any
positive straggler window only adds latency — the default max_delay_ms
is 0 for exactly that reason). Ingest-under-load stays ~1.0-1.4x:
snapshot republish happens off the query path. Gates are no-regression
floors on the batched/sequential ratio.

Backend addendum: the opt-in ``fast`` array backend (float32 params,
accelerated scatter kernels; ``REPRO_BACKEND=fast``) vs the bit-exact reference tier, interleaved rotated-order
rounds on the propagation-bound LightGCN fixtures. The honest result:
~1.3-1.4x, not the 2.3x the PR 2 snapshot recorded for the raw
``PARAM_DTYPE=float32`` flip — that number predates the interleaved
methodology (the fixed measurement order handed the first-measured
mode an undecayed CPU clock, the same artifact the optimizer addendum
documents), and the float64 reference it was measured against has
since been made ~2x faster at default settings (row-sparse gradients,
fused kernels, the frozen-graph engine's cached plans), which
compresses the dtype ratio.
Python graph construction and closure dispatch — identical in both
tiers — now bound the step; the remaining fast-tier headroom is
torch/cupy dispatch on hosts that have them. Gates are no-regression
floors.
"""

from _shared import get_dataset, get_trained_model, write_result
from repro.analysis.timing import (breakdown_rows,
                                   catalog_dominated_dataset,
                                   measure_backend_training_throughput,
                                   measure_feature_sets,
                                   measure_ranking_throughput,
                                   measure_serving_latency,
                                   measure_sparse_training_throughput,
                                   measure_step_breakdown,
                                   measure_training_throughput,
                                   synthetic_serving_store)
from repro.train import TrainConfig
from repro.utils.tables import format_table

#: epochs/second of the seed implementation (commit b325cd5: per-call
#: CSR conversion, per-row Python rejection sampling, np.add.at gather
#: backward), measured on the reference machine with the same protocol
#: measure_training_throughput uses (beauty/small, 8 epochs, batch 512,
#: lr 0.05, seed 0, one warm-up step, final-epoch validation included,
#: best of 3 repeats x 3 interleaved rounds — the machine is noisy, so
#: the *best* seed round is recorded, making the speedups conservative).
SEED_EPOCHS_PER_SECOND = {
    "LightGCN": 67.9,
    "LightGCN (3 layers)": 61.6,
    "KGAT": 1.17,
    "Firzen": 1.59,
}


def test_table7_timing(benchmark):
    dataset = get_dataset("beauty")
    rows = benchmark.pedantic(
        lambda: measure_feature_sets(
            dataset, TrainConfig(epochs=3, eval_every=3, batch_size=512)),
        rounds=1, iterations=1)
    table = [{
        "Features": row.label,
        "Training (s)": round(row.train_seconds, 2),
        "Cold infer (ms/user)": round(row.cold_inference_ms_per_user, 3),
        "Warm infer (ms/user)": round(row.warm_inference_ms_per_user, 3),
    } for row in rows]
    warm, cold = measure_ranking_throughput(
        get_trained_model("beauty", "Firzen", epochs=2)[0], dataset.split,
        num_users=256)

    training_rows = measure_training_throughput(
        dataset, model_names=("LightGCN", "KGAT", "Firzen"), epochs=8,
        embedding_dim=32)
    deep_rows = measure_training_throughput(
        dataset, model_names=("LightGCN",), epochs=8,
        embedding_dim=32, num_layers=3)
    for row in deep_rows:
        row.model = f"{row.model} (3 layers)"
    training_rows += deep_rows
    training_table = []
    for row in training_rows:
        cells = row.as_row()
        seed_eps = SEED_EPOCHS_PER_SECOND.get(row.model)
        cells["Seed (epochs/s)"] = seed_eps
        cells["Speedup vs seed"] = (
            round(row.epochs_per_second / seed_eps, 2)
            if seed_eps else None)
        training_table.append(cells)

    catalog = catalog_dominated_dataset()
    sparse_rows = measure_sparse_training_throughput(
        catalog, model_names=("BPR",), epochs=12, embedding_dim=64)
    breakdown = measure_step_breakdown(catalog, "BPR", epochs=4,
                                       embedding_dim=64)

    backend_rows = measure_backend_training_throughput(
        dataset, model_names=("LightGCN",), epochs=8, embedding_dim=32)
    deep_backend_rows = measure_backend_training_throughput(
        dataset, model_names=("LightGCN",), epochs=8, embedding_dim=32,
        num_layers=3)
    for row in deep_backend_rows:
        row.model = f"{row.model} (3 layers)"
    backend_rows += deep_backend_rows

    hetero_breakdowns = []
    for name in ("Firzen", "KGAT"):
        hetero_breakdowns += breakdown_rows(
            measure_step_breakdown(dataset, name, epochs=3))

    serving_rows = measure_serving_latency(
        synthetic_serving_store(seed=0), clients=8, requests_per_client=40,
        k=20, repeats=3, seed=0)

    write_result(
        "table7_timing.txt",
        format_table(table, "Table VII: training/inference time") + "\n\n"
        + format_table(warm.as_rows() + cold.as_rows(),
                       "Serving addendum: full-ranking throughput")
        + "\n\n"
        + format_table(training_table,
                       "Training addendum: epochs/second through the "
                       "frozen-graph engine (seed column: reference-"
                       "machine snapshot, commit b325cd5)")
        + "\n\n"
        + format_table([row.as_row() for row in sparse_rows],
                       "Optimizer/gradient addendum: row-sparse pipeline "
                       "vs dense schedule on the catalog-dominated "
                       "fixture (500 users x 12000 items, 80% strict "
                       "cold; bit-identical trained models)")
        + "\n\n"
        + format_table(breakdown_rows(breakdown),
                       "Optimizer/gradient addendum: per-phase "
                       "training-step cost on the catalog-dominated "
                       "fixture (step includes every replay of "
                       "deferred row updates, wherever triggered; "
                       "interleaved rotated-order rounds, best of 3)")
        + "\n\n"
        + format_table([row.as_row() for row in backend_rows],
                       "Backend addendum: opt-in fast tier (float32 "
                       "params, accelerated scatter; "
                       "tolerance parity, not bit parity) vs the "
                       "bit-exact reference backend (beauty/small, "
                       "interleaved rotated-order rounds; the PR 2 "
                       "float32 snapshot of 2.3x predates this "
                       "methodology and a ~2x-faster reference — see "
                       "module docstring)")
        + "\n\n"
        + format_table(hetero_breakdowns,
                       "Optimizer/gradient addendum: per-phase "
                       "training-step cost of the heterogeneous models "
                       "(beauty/small; extra = discriminator + "
                       "TransR per-epoch phases, amortized per step)")
        + "\n\n"
        + format_table([row.as_row() for row in serving_rows],
                       "Serving-latency addendum: micro-batched daemon "
                       "path vs sequential single-query baseline, "
                       "client-observed p50/p99 (synthetic 2000x24000 "
                       "store, 8 closed-loop clients, interleaved "
                       "rotated-order rounds, best of 3; max_delay_ms=0 "
                       "— batches form from compute-time backlog, a "
                       "positive straggler window only adds latency; "
                       "ingest row: 5 hot-swap republishes racing the "
                       "stream)"))

    # Every model trains at a real (positive) throughput.
    for row in training_rows:
        assert row.epochs_per_second > 0

    # The row-sparse pipeline must clearly beat the dense schedule on
    # the catalog-dominated fixture (the reference machine records
    # >= 2x; 1.5 is the noise-tolerant floor), and the breakdown must
    # show the win where the design puts it: the optimizer step and
    # the gather backward, with the clip phase no longer scanning the
    # full tables.
    assert sparse_rows[0].speedup >= 1.5
    sparse_bd, dense_bd = breakdown["sparse"], breakdown["dense"]
    assert sparse_bd.step_ms < dense_bd.step_ms
    assert sparse_bd.backward_ms < dense_bd.backward_ms
    assert sparse_bd.clip_ms < dense_bd.clip_ms
    # The sparse forward pays a real ~10-15% for lazy-gather
    # bookkeeping (PR 4's "no slower than dense" reading came from the
    # old fixed measurement order, which handed the first-measured mode
    # an undecayed CPU clock; interleaved rotated-order rounds cancel
    # that bias). The floor bounds the
    # bookkeeping cost so it cannot silently grow — the sparse *total*
    # still wins ~2.5x, which the assertions above gate directly.
    assert sparse_bd.forward_ms <= 1.25 * dense_bd.forward_ms

    # The fast backend must deliver a real win on the propagation-
    # bound fixtures — the reference machine measures ~1.3-1.4x under
    # interleaved rotated-order rounds (see the module docstring for
    # why the PR 2 snapshot's 2.3x does not survive fair measurement),
    # so 1.1 is the noise-tolerant floor — and the reference column
    # must stay real (positive) with the tiers correctly recorded.
    for row in backend_rows:
        assert row.reference_epochs_per_second > 0
        assert row.fast_epochs_per_second > 0
        assert row.reference_info["param_dtype"] == "float64"
        assert row.fast_info["param_dtype"] == "float32"
        assert row.speedup >= 1.1

    # The batched serving path must beat the seed's one-query-at-a-time
    # serving by a wide margin on a production-sized batch — on the
    # strict cold-start scenario (the paper's headline serving workload)
    # by >= 5x — and still clearly beat the (already score-batched)
    # evaluation loop.
    assert warm.num_users >= 256 and cold.num_users >= 256
    assert cold.speedup >= 5.0
    assert cold.loop_speedup >= 3.0
    assert warm.speedup >= 1.5

    # Micro-batched serving under concurrent load must at least match
    # the sequential baseline (the reference machine measures
    # ~1.3-2.1x; 1.0 is the noise-tolerant floor), with real latency
    # percentiles and actual coalescing. The ingest scenario must keep
    # serving while snapshots republish (republish is off the query
    # path, so ~1.0x; 0.8 bounds the interference).
    topk_row, ingest_row = serving_rows
    assert topk_row.scenario == "topk under load"
    assert 0 < topk_row.p50_ms <= topk_row.p99_ms
    assert topk_row.mean_batch_size > 1.0
    assert topk_row.speedup >= 1.0
    assert ingest_row.scenario == "ingest under load"
    assert ingest_row.ingests > 0
    assert ingest_row.speedup >= 0.8

    by_label = {row.label: row for row in rows}
    # KA adds the largest training-time increment.
    ka_increase = (by_label["BA+KA"].train_seconds
                   - by_label["BA"].train_seconds)
    va_increase = (by_label["BA+KA+VA"].train_seconds
                   - by_label["BA+KA"].train_seconds)
    ta_increase = (by_label["BA+KA+VA+TA"].train_seconds
                   - by_label["BA+KA+VA"].train_seconds)
    assert ka_increase > 0
    assert ka_increase > va_increase
    assert ka_increase > ta_increase

    # Modalities bring only modest inference latency: the full model's
    # warm inference stays within 5x of the BA+KA configuration.
    assert by_label["BA+KA+VA+TA"].warm_inference_ms_per_user \
        <= 5.0 * max(by_label["BA+KA"].warm_inference_ms_per_user, 1e-6)
