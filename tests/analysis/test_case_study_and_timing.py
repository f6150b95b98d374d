"""Tests for the Fig. 7 case study and Table VII timing harnesses."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.analysis import timing
from repro.analysis.case_study import (run_case_study,
                                       similar_items_under_subset)
from repro.analysis.timing import (measure_feature_sets,
                                   measure_serving_latency,
                                   measure_training_throughput,
                                   synthetic_serving_store)
from repro.core import FirzenModel
from repro.train import TrainConfig, train_model


@pytest.fixture(scope="module")
def firzen(tiny_dataset):
    model = FirzenModel(tiny_dataset, embedding_dim=16,
                        rng=np.random.default_rng(0))
    train_model(model, tiny_dataset,
                TrainConfig(epochs=2, eval_every=2, batch_size=128))
    return model


class TestCaseStudy:
    def test_all_subsets_return_k_items(self, firzen, tiny_dataset):
        for subset in ("modality", "kg", "complete"):
            result = similar_items_under_subset(
                firzen, tiny_dataset, query=0, subset=subset, k=5)
            assert len(result.items) == 5
            assert 0 not in result.items  # query excluded

    def test_diversity_and_purity_in_range(self, firzen, tiny_dataset):
        result = similar_items_under_subset(
            firzen, tiny_dataset, query=3, subset="complete", k=5)
        assert 0.0 < result.brand_diversity <= 1.0
        assert 0.0 <= result.category_purity <= 1.0

    def test_run_case_study_covers_all(self, firzen, tiny_dataset):
        results = run_case_study(firzen, tiny_dataset, queries=[0, 1], k=3)
        assert len(results) == 6  # 2 queries x 3 subsets
        assert {r.subset for r in results} \
            == {"modality", "kg", "complete"}

    def test_unknown_subset_raises(self, firzen, tiny_dataset):
        with pytest.raises(ValueError):
            similar_items_under_subset(firzen, tiny_dataset, 0, "audio")


class TestTiming:
    def test_rows_and_monotone_training_cost(self, tiny_dataset):
        rows = measure_feature_sets(
            tiny_dataset,
            TrainConfig(epochs=1, eval_every=1, batch_size=256))
        labels = [r.label for r in rows]
        assert labels == ["BA", "BA+KA", "BA+KA+VA", "BA+KA+VA+TA"]
        for row in rows:
            assert row.train_seconds > 0
            assert row.cold_inference_ms_per_user > 0
            assert row.warm_inference_ms_per_user > 0
        # Adding the knowledge graph must increase training cost (the
        # paper's headline Table VII observation).
        assert rows[1].train_seconds > rows[0].train_seconds


class TestTrainingThroughput:
    def test_measures_epochs_per_second(self, tiny_dataset):
        rows = measure_training_throughput(
            tiny_dataset, model_names=("LightGCN",), epochs=2,
            embedding_dim=16,
            train_config=TrainConfig(batch_size=256, learning_rate=0.05))
        (row,) = rows
        assert row.model == "LightGCN"
        assert row.epochs == 2
        assert row.epochs_per_second > 0
        cells = row.as_row()
        assert cells["Model"] == "LightGCN"
        assert set(cells) == {"Model", "Epochs", "Epochs/s",
                              "Backend", "Param dtype", "BLAS threads",
                              "Peak RSS (MB)"}
        assert cells["Peak RSS (MB)"] > 0
        # Runtime context is captured at measurement time.
        assert cells["Backend"] == "reference"
        assert cells["Param dtype"] == "float64"

    def test_sparse_ab_runs_interleaved_rotated_rounds(self, tiny_dataset,
                                                       monkeypatch):
        calls = []

        def record(*args, **kwargs):
            calls.append((os.environ["REPRO_SPARSE_GRAD"],
                          kwargs.get("repeats")))
            return float(len(calls))

        monkeypatch.setattr(timing, "_epochs_per_second", record)
        (row,) = timing.measure_sparse_training_throughput(
            tiny_dataset, model_names=("BPR",), repeats=3)
        assert [mode for mode, _ in calls] == ["1", "0", "0", "1", "1", "0"]
        assert {repeats for _, repeats in calls} == {1}
        # each mode keeps its best round
        assert row.sparse_epochs_per_second == 5.0
        assert row.dense_epochs_per_second == 6.0


class TestServingLatency:
    def test_synthetic_store_shape(self):
        store = synthetic_serving_store(num_users=30, num_items=80, dim=8,
                                        seed=3)
        assert store.num_users == 30 and store.num_items == 80
        assert 0 < store.is_cold.sum() < 80
        assert store.seen.nnz > 0
        assert store.modalities == ("image",)
        # deterministic for a given seed
        again = synthetic_serving_store(num_users=30, num_items=80, dim=8,
                                        seed=3)
        np.testing.assert_array_equal(store.item_vectors,
                                      again.item_vectors)

    def test_measure_serving_latency_rows(self):
        store = synthetic_serving_store(num_users=40, num_items=200, dim=8,
                                        seed=1)
        rows = measure_serving_latency(
            store, clients=2, requests_per_client=4, k=5,
            repeats=1, measure_ingest=True, seed=1)
        assert [r.scenario for r in rows] == ["topk under load",
                                              "ingest under load"]
        for row in rows:
            assert row.requests == 8
            assert 0 < row.p50_ms <= row.p99_ms
            assert row.requests_per_second > 0
            assert row.sequential_requests_per_second > 0
            assert row.speedup > 0
            assert row.mean_batch_size >= 1
            cells = row.as_row()
            assert cells["Scenario"] == row.scenario
            assert "Backend" in cells and "BLAS threads" in cells
            assert cells["Peak RSS (MB)"] > 0
        assert rows[-1].ingests > 0
