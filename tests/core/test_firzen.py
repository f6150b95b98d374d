"""Integration tests for the Firzen model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FirzenConfig, FirzenModel
from repro.eval import evaluate_model
from repro.train import TrainConfig, train_model

QUICK = TrainConfig(epochs=3, eval_every=3, batch_size=128,
                    learning_rate=0.05)


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    model = FirzenModel(tiny_dataset, embedding_dim=16,
                        rng=np.random.default_rng(0))
    result = train_model(model, tiny_dataset, QUICK)
    return model, result


class TestTraining:
    def test_losses_finite(self, trained):
        _, result = trained
        assert np.isfinite(result.losses).all()

    def test_beta_stays_normalized(self, trained):
        model, _ = trained
        total = sum(model.beta.values())
        assert total == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 < b < 1.0 for b in model.beta.values())

    def test_evaluation_in_range(self, trained, tiny_dataset):
        model, _ = trained
        bundle = evaluate_model(model, tiny_dataset.split, k=10)
        for metrics in (bundle.cold, bundle.warm, bundle.hm):
            assert 0.0 <= metrics.recall <= 1.0

    def test_scores_finite(self, trained, tiny_dataset):
        model, _ = trained
        scores = model.score_users(np.arange(4))
        assert np.isfinite(scores).all()


class TestColdPath:
    def test_cold_items_receive_warm_signal(self, trained, tiny_dataset):
        """At inference the item-item graphs must propagate into cold rows:
        a cold item's final representation cannot equal its SAHGL-only
        fused embedding."""
        model, _ = trained
        fused_u, fused_i, _ = model._sahgl(model.modalities)
        final_u, final_i, _ = model._forward("infer")
        cold = tiny_dataset.split.cold_items
        assert not np.allclose(final_i.data[cold], fused_i.data[cold])

    def test_train_mode_excludes_cold(self, trained, tiny_dataset):
        """During training the item-item graph covers warm items only, so a
        cold item's MSHGL input/output may differ only through layer-0
        (identity) content."""
        model, _ = trained
        for graph in model.item_graphs.values():
            train_adj = graph.adjacency("train").toarray()
            cold = tiny_dataset.split.cold_items
            assert train_adj[cold].sum() == 0
            assert train_adj[:, cold].sum() == 0

    def test_mask_blocks_cold_to_warm(self, trained, tiny_dataset):
        model, _ = trained
        cold = tiny_dataset.split.is_cold
        for graph in model.item_graphs.values():
            infer = graph.adjacency("infer").toarray()
            assert infer[~cold][:, cold].sum() == 0


class TestAblationConfigs:
    @pytest.mark.parametrize("toggle", ["use_behavior", "use_knowledge",
                                        "use_modality", "use_mshgl"])
    def test_component_removal_trains(self, tiny_dataset, toggle):
        config = FirzenConfig(embedding_dim=16, **{toggle: False})
        model = FirzenModel(tiny_dataset, 16, np.random.default_rng(0),
                            config=config)
        result = train_model(model, tiny_dataset,
                             TrainConfig(epochs=2, eval_every=2,
                                         batch_size=128))
        assert np.isfinite(result.losses).all()
        scores = model.score_users(np.arange(3))
        assert np.isfinite(scores).all()

    def test_modality_subset(self, tiny_dataset):
        model = FirzenModel(tiny_dataset, 16, np.random.default_rng(0),
                            modalities=("text",))
        train_model(model, tiny_dataset, QUICK)
        assert model.modalities == ("text",)
        assert np.isfinite(model.score_users(np.arange(2))).all()

    def test_no_modalities_at_all(self, tiny_dataset):
        model = FirzenModel(tiny_dataset, 16, np.random.default_rng(0),
                            modalities=(),
                            config=FirzenConfig(embedding_dim=16,
                                                use_mshgl=False))
        train_model(model, tiny_dataset, QUICK)
        assert np.isfinite(model.score_users(np.arange(2))).all()


class TestInferenceGating:
    def test_gated_inference_changes_scores(self, trained, tiny_dataset):
        """Table VIII mechanism: disabling a modality at inference changes
        the representations."""
        model, _ = trained
        full = model.score_users(np.arange(4)).copy()
        model.config.inference_modalities = ("text",)
        model.invalidate()
        gated = model.score_users(np.arange(4))
        model.config.inference_modalities = None
        model.invalidate()
        assert not np.allclose(full, gated)


class TestNormalColdStart:
    def test_adapt_to_interactions_changes_representations(
            self, tiny_dataset):
        # New links rebuild the frozen graphs; invalidate() must drop
        # the cached representations computed on the old ones.
        model = FirzenModel(tiny_dataset, embedding_dim=16,
                            rng=np.random.default_rng(0))
        users_before = model.user_matrix().copy()
        model.adapt_to_interactions(tiny_dataset.split.cold_test[:4])
        assert not np.array_equal(users_before, model.user_matrix())
