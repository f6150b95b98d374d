"""Tests for model checkpoints (array directories of ``model.*``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import create_model
from repro.train import (TrainConfig, read_checkpoint, save_checkpoint,
                         train_model)


@pytest.fixture()
def trained_bpr(tiny_dataset):
    model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
    train_model(model, tiny_dataset,
                TrainConfig(epochs=2, eval_every=2, batch_size=128))
    return model


class TestRoundTrip:
    def test_scores_identical_after_reload(self, tiny_dataset, trained_bpr,
                                           tmp_path):
        path = tmp_path / "bpr"
        save_checkpoint(path, trained_bpr, {"epochs": 2})
        fresh = create_model("BPR", tiny_dataset, embedding_dim=16, seed=9)
        checkpoint = read_checkpoint(path)
        checkpoint.load_model(fresh)
        assert checkpoint.header["epochs"] == 2
        np.testing.assert_allclose(
            fresh.score_users(np.arange(5)),
            trained_bpr.score_users(np.arange(5)))

    def test_firzen_roundtrip(self, tiny_dataset, tmp_path):
        model = create_model("Firzen", tiny_dataset, embedding_dim=16,
                             seed=0)
        train_model(model, tiny_dataset,
                    TrainConfig(epochs=1, eval_every=1, batch_size=128))
        path = tmp_path / "firzen"
        save_checkpoint(path, model)
        fresh = create_model("Firzen", tiny_dataset, embedding_dim=16,
                             seed=0)
        read_checkpoint(path).load_model(fresh)
        fresh.eval()
        model.eval()
        model.invalidate()
        np.testing.assert_allclose(
            fresh.score_users(np.arange(3)),
            model.score_users(np.arange(3)), atol=1e-10)

    def test_peek_metadata(self, trained_bpr, tmp_path):
        path = tmp_path / "bpr"
        save_checkpoint(path, trained_bpr, {"dataset": "tiny"})
        meta = read_checkpoint(path).header
        assert meta["model_class"] == "BPRModel"
        assert meta["dataset"] == "tiny"
        assert sorted(meta["arrays"]) == ["model.item_emb.weight",
                                          "model.user_emb.weight"]


class TestValidation:
    def test_wrong_model_class_rejected(self, tiny_dataset, trained_bpr,
                                        tmp_path):
        path = tmp_path / "bpr"
        save_checkpoint(path, trained_bpr)
        other = create_model("LightGCN", tiny_dataset, embedding_dim=16,
                             seed=0)
        with pytest.raises(ValueError):
            read_checkpoint(path).load_model(other)

    def test_wrong_shape_rejected(self, tiny_dataset, trained_bpr,
                                  tmp_path):
        path = tmp_path / "bpr"
        save_checkpoint(path, trained_bpr)
        other = create_model("BPR", tiny_dataset, embedding_dim=8, seed=0)
        with pytest.raises(ValueError):
            read_checkpoint(path).load_model(other)
