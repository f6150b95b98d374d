"""Tests for Firzen's multi-task objective decomposition (eq. 32)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FirzenConfig, FirzenModel
from repro.train import trainer


def _model(dataset, **config_kwargs):
    config = FirzenConfig(embedding_dim=16, **config_kwargs)
    return FirzenModel(dataset, 16, np.random.default_rng(0), config=config)


def _warm_batch(dataset):
    warm = dataset.split.warm_items
    return np.array([0, 1, 2, 3]), warm[:4], warm[4:8]


class TestObjectiveTerms:
    def test_adv_weight_changes_loss(self, tiny_dataset):
        users, pos, neg = _warm_batch(tiny_dataset)
        base = _model(tiny_dataset, adv_weight=0.0, contrastive_weight=0.0,
                      modality_dropout=0.0)
        with_adv = _model(tiny_dataset, adv_weight=0.5,
                          contrastive_weight=0.0, modality_dropout=0.0)
        assert base.loss(users, pos, neg).item() \
            != pytest.approx(with_adv.loss(users, pos, neg).item())

    def test_contrastive_weight_changes_loss(self, tiny_dataset):
        users, pos, neg = _warm_batch(tiny_dataset)
        base = _model(tiny_dataset, adv_weight=0.0, contrastive_weight=0.0,
                      modality_dropout=0.0)
        with_cl = _model(tiny_dataset, adv_weight=0.0,
                         contrastive_weight=0.5, modality_dropout=0.0)
        assert base.loss(users, pos, neg).item() \
            != pytest.approx(with_cl.loss(users, pos, neg).item())

    def test_loss_differentiable_end_to_end(self, tiny_dataset):
        users, pos, neg = _warm_batch(tiny_dataset)
        model = _model(tiny_dataset)
        loss = model.loss(users, pos, neg)
        loss.backward()
        # Every major parameter group receives gradient.
        assert model.user_emb.weight.grad is not None
        assert model.item_emb.weight.grad is not None
        for encoder in model.modality_encoders.values():
            assert encoder.projector.weight.grad is not None
        assert model.knowledge.entity_emb.weight.grad is not None

    def test_discriminator_not_updated_by_generator_loss(self, tiny_dataset,
                                                         monkeypatch):
        """The adversarial term in loss() trains the *generator* side
        against a frozen discriminator; the discriminator's own update
        happens in extra_step."""
        model = _model(tiny_dataset, adv_weight=0.5)
        disc_ids = {id(p) for p in model.discriminator.parameters()}
        built = []

        class RecordingAdam(trainer.Adam):
            def __init__(self, params, *args, **kwargs):
                super().__init__(params, *args, **kwargs)
                built.append(self)

        with monkeypatch.context() as patch:
            patch.setattr(trainer, "Adam", RecordingAdam)
            trainer.train_model(model, tiny_dataset,
                                trainer.TrainConfig(epochs=1))
        assert len(built) == 1
        assert not disc_ids & {id(p) for p in built[0].params}

        # One generator step, as the trainer runs it, leaves D's six
        # parameters bit-identical and gives them no gradient.
        users, pos, neg = _warm_batch(tiny_dataset)
        model = _model(tiny_dataset, adv_weight=0.5)
        before = model.discriminator.state_dict()
        assert len(before) == 6
        optimizer = trainer.Adam(model.parameters(), lr=0.05)
        optimizer.zero_grad()
        model.loss(users, pos, neg).backward()
        trainer.clip_grad_norm(optimizer.params, trainer.GRAD_CLIP)
        optimizer.step()
        assert all(p.grad is None for p in model.discriminator.parameters())
        after = model.discriminator.state_dict()
        for key in before:
            assert np.array_equal(before[key], after[key]), key

        model.extra_step()
        after = model.discriminator.state_dict()
        moved = any(not np.allclose(before[k], after[k]) for k in before)
        assert moved

    def test_kg_alternating_step_moves_entities(self, tiny_dataset):
        model = _model(tiny_dataset, kg_batches=1, kg_batch_size=64)
        before = model.knowledge.entity_emb.weight.data.copy()
        model.extra_step()
        assert not np.allclose(before,
                               model.knowledge.entity_emb.weight.data)

    def test_beta_update_follows_discriminator(self, tiny_dataset):
        model = _model(tiny_dataset, beta_momentum=0.5)
        model._last_disc_scores = {"text": 3.0, "image": 0.0}
        model.on_epoch_end(0)
        assert model.beta["text"] > model.beta["image"]

    def test_freeze_beta_blocks_update(self, tiny_dataset):
        model = _model(tiny_dataset, beta_momentum=0.5, freeze_beta=True)
        model._last_disc_scores = {"text": 3.0, "image": 0.0}
        model.on_epoch_end(0)
        assert model.beta["text"] == pytest.approx(0.5)
