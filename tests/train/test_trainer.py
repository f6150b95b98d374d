"""Integration tests for the shared training loop."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.baselines import create_model
from repro.experiments import ExperimentSpec
from repro.train import TrainConfig, train_model


def quick_config(**kw):
    defaults = dict(epochs=4, eval_every=2, batch_size=128,
                    learning_rate=0.05, patience=10)
    defaults.update(kw)
    return TrainConfig(**defaults)


def spec_with_train(**train):
    """An experiment spec loaded from a file whose ``train`` block
    holds ``train``."""
    payload = {"name": "t", "size": "tiny", "train": train}
    return ExperimentSpec.from_json(json.dumps(payload))


class TestTraining:
    def test_loss_decreases(self, tiny_dataset):
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        result = train_model(model, tiny_dataset, quick_config(epochs=8))
        assert result.losses[-1] < result.losses[0]

    def test_records_history(self, tiny_dataset):
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        result = train_model(model, tiny_dataset, quick_config())
        assert result.epochs_run == 4
        assert len(result.losses) == 4
        assert len(result.val_history) == 2
        assert result.train_seconds > 0

    def test_best_state_restored(self, tiny_dataset):
        """After training, the model carries its best-validation weights."""
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        result = train_model(model, tiny_dataset, quick_config())
        assert result.best_epoch >= 0

    def test_early_stop_caps_epochs(self, tiny_dataset):
        model = create_model("BPR", tiny_dataset, embedding_dim=16, seed=0)
        config = quick_config(epochs=40, eval_every=1, patience=2,
                              learning_rate=1e-12)  # ~frozen: no gain
        result = train_model(model, tiny_dataset, config)
        assert result.epochs_run < 40

    def test_deterministic_given_seed(self, tiny_dataset):
        losses = []
        for _ in range(2):
            model = create_model("BPR", tiny_dataset, embedding_dim=16,
                                 seed=7)
            result = train_model(model, tiny_dataset, quick_config(seed=7))
            losses.append(result.losses)
        np.testing.assert_allclose(losses[0], losses[1])


class TestConfigValidation:
    """Values that cannot train fail at construction: zero epochs or
    patience would return an untrained model, a zero eval_every or
    batch_size would die mid-run, and a learning rate that is not
    positive would train silently."""

    @pytest.mark.parametrize("name, value", [
        ("epochs", 0), ("batch_size", 0), ("eval_every", 0),
        ("patience", 0), ("eval_k", 0), ("epochs", -3),
        ("learning_rate", 0.0), ("learning_rate", -0.05),
        ("learning_rate", float("nan"))])
    def test_bad_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            spec_with_train(**{name: value})

    def test_unknown_monitor_rejected(self):
        # Validation always monitors harmonic-mean recall: there is no
        # knob, and a spec file that picks another monitor is refused.
        with pytest.raises(TypeError):
            TrainConfig(monitor="hm_recall")
        with pytest.raises(ValueError, match="monitor"):
            spec_with_train(monitor="warm_recall")

    def test_unknown_lr_schedule_rejected(self):
        # The learning rate is constant: no knob, and a spec file that
        # schedules it is refused.
        with pytest.raises(TypeError):
            TrainConfig(lr_schedule="constant")
        with pytest.raises(ValueError, match="lr_schedule"):
            spec_with_train(lr_schedule="cosine")

    def test_valid_values_accepted(self):
        config = TrainConfig(epochs=1, batch_size=1, eval_every=1,
                             patience=1, eval_k=1, learning_rate=1e-9)
        assert config.epochs == config.patience == 1

