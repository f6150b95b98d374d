"""Table VII — training and inference time vs consumed feature sets.

Rows: BA / BA+KA / BA+KA+VA / BA+KA+VA+TA. Paper shapes: adding KA
dominates the training-time increase (TransR + attention + adversarial
objectives); adding the modalities adds little inference latency. The
KA assertions compare wall-clock increments of a few tenths of a
second, so they can fail on a loaded host.

Serving addendum: full-ranking top-k throughput of the seed per-user
loop vs the batched serving path, on a >=256-user batch.

Serving-latency addendum: client-observed p50/p99 of the micro-batched
daemon path under concurrent closed-loop load, against a sequential
one-query-at-a-time baseline over the same snapshot — plus
ingest-under-load (hot-swaps racing the query stream). Honest numbers
from the reference machine (24k-item synthetic catalog, 8 clients):
micro-batching wins ~1.3-2.1x on throughput because batches form from
the backlog that accumulates while the previous batch computes (a
straggler window only added latency, so the batcher takes the queued
backlog without waiting). Ingest-under-load stays ~1.0-1.4x:
snapshot republish happens off the query path. Gates are no-regression
floors on the batched/sequential ratio.

Training throughput is not measured here. The repository benchmark
(``perfbench/``, declared in ``BENCHMARK.json``) gates
``train_epochs_per_s`` on ``train-firzen`` and on ``train-catalog``,
whose 80%-cold catalog is where the row-sparse gradient pipeline pays:
forcing the dense schedule (``REPRO_SPARSE_GRAD=0``) fails that bound.
Its traced runs (``--trace 1``) report the per-phase step costs
(``train.*_ms``). Tier-1 tests (``tests/optim/test_model_parity.py``)
pin that row-sparse gradients stay sparse through backward, clip and
step, and that a row-stepped table's forward is the dense forward.

Regenerate ``results/table7_timing.txt`` with::

    PYTHONPATH=src python -m pytest -q benchmarks/test_table7_timing.py
"""

from _shared import get_dataset, get_trained_model, write_result
from repro.analysis.timing import (
    # the paper's four feature-set rows
    measure_feature_sets,
    # the serving addenda: the seed's ranking paths against BatchRanker,
    # and the micro-batched daemon path against sequential queries
    measure_ranking_throughput,
    measure_serving_latency,
    synthetic_serving_store,
)
from repro.train import TrainConfig
from repro.utils.tables import format_table


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

    serving_rows = measure_serving_latency(
        synthetic_serving_store(seed=0), clients=8, requests_per_client=40,
        k=20, repeats=3, seed=0)

    write_result(
        "table7_timing.txt",
        format_table(table, "Table VII: training/inference time") + "\n\n"
        + format_table(warm.as_rows() + cold.as_rows(),
                       "Serving addendum: full-ranking throughput")
        + "\n\n"
        + format_table([row.as_row() for row in serving_rows],
                       "Serving-latency addendum: micro-batched daemon "
                       "path vs sequential single-query baseline, "
                       "client-observed p50/p99 (synthetic 2000x24000 "
                       "store, 8 closed-loop clients, interleaved "
                       "rotated-order rounds, best of 3; batches form "
                       "from compute-time backlog, with no straggler "
                       "window; ingest row: 5 hot-swap republishes "
                       "racing the stream)"))

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
