"""The frozen golden-fingerprint training protocol.

One canonical short training run per roster model on the tiny synthetic
world. ``tests/golden/test_goldens.py`` asserts the resulting
:func:`repro.train.fingerprint.training_fingerprint` digests equal the
committed per-model JSON files next to it; ``tools/update_goldens.py``
regenerates those files when a trajectory change is *intentional* (and
``docs/TESTING.md`` says when that warrants a ``PIPELINE_VERSION``
bump).

Everything here is deliberately frozen — the world config, the model
roster, the training hyperparameters, the embedding size. Changing any
of it changes every fingerprint and must go through an explicit golden
update.
"""

from __future__ import annotations

from functools import lru_cache

from repro.baselines import create_model
from repro.data import build_dataset
from repro.data.world import WorldConfig
from repro.train import TrainConfig, train_model
from repro.train.fingerprint import training_fingerprint

#: models with committed goldens (one JSON file per entry)
MODELS = ("BPR", "LightGCN", "KGAT", "Firzen")

#: bump together with the committed files when the protocol itself
#: changes (different world, epochs, roster, ...)
PROTOCOL_VERSION = 1

EMBEDDING_DIM = 16
SEED = 0


def golden_world() -> WorldConfig:
    return WorldConfig(
        num_users=60,
        num_items=40,
        num_clusters=4,
        latent_dim=8,
        interactions_per_user_mean=8.0,
        text_feature_dim=12,
        image_feature_dim=16,
        vocab_size=120,
        cluster_vocab_size=12,
        num_brands=8,
        num_categories=5,
        seed=0,
    )


def golden_train_config() -> TrainConfig:
    return TrainConfig(epochs=3, eval_every=2, batch_size=64,
                       learning_rate=0.05, patience=10, seed=0)


@lru_cache(maxsize=1)
def golden_dataset():
    return build_dataset("golden-tiny", golden_world())


def golden_fingerprint(model_name: str,
                       train_config: TrainConfig | None = None
                       ) -> dict[str, str]:
    """Train ``model_name`` under the frozen protocol and fingerprint
    the result (params + loss curve + RNG positions + combined).
    ``train_config`` stands in for :func:`golden_train_config`, for a
    check that another source of it trains the same bits."""
    model = create_model(model_name, golden_dataset(),
                         embedding_dim=EMBEDDING_DIM, seed=SEED)
    result = train_model(model, golden_dataset(),
                         train_config or golden_train_config())
    return training_fingerprint(model, result)
