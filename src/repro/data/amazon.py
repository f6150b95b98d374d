"""Synthetic stand-ins for the paper's three Amazon benchmarks.

Each config scales the corresponding Amazon subset down by roughly two
orders of magnitude while preserving the *relative* characteristics the
paper's Table I reports:

* **Beauty** — densest per-item interactions, moderate size;
* **Cell Phones** — slightly larger user base, higher per-item count;
* **Clothing** — largest and sparsest (lowest avg. interactions per item),
  which in the paper makes every method's absolute numbers drop.

Feature dimensionalities mirror the paper's ratio (4096-d image vs 384-d
text, scaled to 64 vs 48 here) and the noise knobs encode the Beauty
observation (Table VIII) that the textual modality is the more informative.
"""

from __future__ import annotations

from .datasets import RecDataset, build_dataset
from .world import WorldConfig

SIZE_PRESETS = {
    # (num_users, num_items) multipliers applied to the base sizes below.
    # large/xlarge exist for spec compatibility with the streamed
    # "scale" dataset; in-RAM worlds at these multipliers are slow but
    # still feasible.
    "tiny": 0.5,
    "small": 1.0,
    "medium": 2.0,
    "large": 4.0,
    "xlarge": 8.0,
}


def beauty_config(seed: int = 0, scale: float = 1.0) -> WorldConfig:
    return WorldConfig(
        num_users=int(360 * scale),
        num_items=int(300 * scale),
        num_clusters=8,
        latent_dim=16,
        interactions_per_user_mean=9.0,
        text_feature_dim=48,
        image_feature_dim=64,
        text_noise=0.30,
        image_noise=0.80,
        num_brands=20,
        num_categories=10,
        seed=seed,
    )


def cell_phones_config(seed: int = 1, scale: float = 1.0) -> WorldConfig:
    return WorldConfig(
        num_users=int(440 * scale),
        num_items=int(260 * scale),
        num_clusters=7,
        latent_dim=16,
        interactions_per_user_mean=7.0,
        text_feature_dim=48,
        image_feature_dim=64,
        text_noise=0.40,
        image_noise=0.75,
        num_brands=16,
        num_categories=8,
        seed=seed,
    )


def clothing_config(seed: int = 2, scale: float = 1.0) -> WorldConfig:
    return WorldConfig(
        num_users=int(520 * scale),
        num_items=int(420 * scale),
        num_clusters=10,
        latent_dim=16,
        interactions_per_user_mean=7.0,
        user_cluster_spread=0.55,
        item_cluster_spread=0.55,
        text_feature_dim=48,
        image_feature_dim=64,
        text_noise=0.40,
        image_noise=0.85,
        num_brands=28,
        num_categories=14,
        seed=seed,
    )


def load_amazon(subset: str, seed: int | None = None,
                size: str = "small") -> RecDataset:
    """Build one of the three Amazon-like benchmarks.

    Parameters
    ----------
    subset:
        ``"beauty"``, ``"cell_phones"`` or ``"clothing"``.
    seed:
        Overrides the subset's default seed when given.
    size:
        One of ``tiny/small/medium`` — scales user/item counts.
    """
    scale = SIZE_PRESETS[size]
    factories = {
        "beauty": beauty_config,
        "cell_phones": cell_phones_config,
        "clothing": clothing_config,
    }
    if subset not in factories:
        raise ValueError(
            f"unknown Amazon subset {subset!r}; expected one of "
            f"{sorted(factories)}")
    config = factories[subset](scale=scale)
    if seed is not None:
        config.seed = seed
    return build_dataset(f"amazon-{subset}", config)
