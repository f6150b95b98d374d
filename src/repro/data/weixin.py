"""Synthetic stand-in for the proprietary Weixin-Sports benchmark.

Weixin-Sports (paper Table I) differs from the Amazon subsets in ways that
drive the qualitative results of Table III:

* much denser per-item interactions (46 vs ~12-18) -> very strong warm-start
  CF performance;
* items link to a domain KG (WikiSports) through noisy title matching, with
  a large relation vocabulary (227 relations);
* pre-extracted 64-d multi-modal embeddings (we generate both modalities at
  64-d);
* cold-start is *extremely* hard — every method's cold metrics are near
  zero — because the user base dwarfs the item catalog and preferences are
  concentrated.

We reproduce that regime with a denser, lower-temperature world and a
KG whose relation labels are shattered into many sub-relations (mimicking
the 227-relation WikiSports vocabulary).
"""

from __future__ import annotations

import numpy as np

from .datasets import RecDataset, build_dataset
from .kg_builder import KnowledgeGraph
from .world import WorldConfig


def weixin_config(seed: int = 3, scale: float = 1.0) -> WorldConfig:
    return WorldConfig(
        num_users=int(800 * scale),
        num_items=int(240 * scale),
        num_clusters=6,
        latent_dim=16,
        interactions_per_user_mean=11.0,
        interaction_temperature=0.22,   # concentrated preferences
        user_cluster_spread=0.35,
        item_cluster_spread=0.35,
        text_feature_dim=64,
        image_feature_dim=64,
        text_noise=0.45,
        image_noise=0.55,
        num_brands=12,
        num_categories=8,
        seed=seed,
    )


def _shatter_relations(kg: KnowledgeGraph, num_relations: int,
                       rng: np.random.Generator) -> KnowledgeGraph:
    """Split each base relation into several sub-relations.

    WikiSports has 227 relation types; attention-based KG models must cope
    with a wide relation vocabulary, so we randomly refine each of our six
    schema relations into ``num_relations`` buckets (deterministically per
    (relation, tail) pair so duplicates stay duplicates). The int64 hash
    of a tail cannot overflow below 3.4e9 entities.
    """
    base = kg.num_relations
    per_relation = max(num_relations // base, 1)
    triplets = kg.triplets.copy()
    salt = int(rng.integers(1, 2 ** 31))
    triplets[:, 1] = (triplets[:, 1] * per_relation
                      + (triplets[:, 2] * 2654435761 + salt) % per_relation)
    return KnowledgeGraph(
        triplets=triplets,
        num_entities=kg.num_entities,
        num_relations=base * per_relation,
        num_items=kg.num_items,
        entity_labels=kg.entity_labels,
        relation_names=tuple(
            f"{name}#{b}" for name in kg.relation_names
            for b in range(per_relation)),
    )


def load_weixin(seed: int | None = None, size: str = "small",
                num_relations: int = 24) -> RecDataset:
    """Build the Weixin-Sports-like benchmark."""
    from .amazon import SIZE_PRESETS

    config = weixin_config(scale=SIZE_PRESETS[size])
    if seed is not None:
        config.seed = seed
    dataset = build_dataset("weixin-sports", config)
    rng = np.random.default_rng(config.seed + 7)
    dataset = dataset.with_kg(
        _shatter_relations(dataset.kg, num_relations, rng))
    dataset.name = "weixin-sports"
    return dataset
