"""Latent-factor generative world model.

The paper evaluates on Amazon review dumps and a proprietary Weixin dataset,
neither of which is available offline. This module is the substitution: a
generative model whose observable outputs (interactions, multi-modal item
features, review text, brand/category assignments) are all driven by shared
latent user/item factors. That shared structure is exactly what cold-start
transfer exploits — content features correlate with the latents that generate
interactions — so content-aware methods can beat ID-only methods on cold
items here for the same reason they do on the real data.

Knobs control how informative each modality is (``text_noise`` vs
``image_noise``), mirroring the paper's observation that on Amazon Beauty the
textual modality contributes more than the visual one (Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class WorldConfig:
    """Parameters of the synthetic world.

    The defaults produce a dataset roughly 100x smaller than Amazon Beauty
    but with similar per-user/per-item interaction counts and sparsity.
    """

    num_users: int = 200
    num_items: int = 120
    num_clusters: int = 8
    latent_dim: int = 16
    # interaction generation
    interactions_per_user_mean: float = 9.0
    interaction_temperature: float = 0.35
    user_cluster_spread: float = 0.45
    item_cluster_spread: float = 0.45
    # multi-modal features
    text_feature_dim: int = 48
    image_feature_dim: int = 64
    text_noise: float = 0.35
    image_noise: float = 0.80
    # review text
    vocab_size: int = 400
    words_per_review: int = 12
    cluster_vocab_size: int = 30
    # KG structure
    num_brands: int = 24
    num_categories: int = 12
    brand_cluster_fidelity: float = 0.85
    category_cluster_fidelity: float = 0.9
    seed: int = 0


@dataclass
class World:
    """A fully instantiated synthetic world (ground truth of the generator)."""

    config: WorldConfig
    user_latents: np.ndarray
    item_latents: np.ndarray
    user_clusters: np.ndarray
    item_clusters: np.ndarray
    interactions: np.ndarray          # (n, 2) int array of (user, item)
    text_features: np.ndarray         # (num_items, text_feature_dim)
    image_features: np.ndarray        # (num_items, image_feature_dim)
    reviews: list = field(repr=False, default_factory=list)
    item_brand: np.ndarray = None     # (num_items,) brand index
    item_category: np.ndarray = None  # (num_items,) category index
    vocabulary: list = field(repr=False, default_factory=list)

    @property
    def num_users(self) -> int:
        return self.config.num_users

    @property
    def num_items(self) -> int:
        return self.config.num_items


def _sample_cluster_latents(rng: np.random.Generator, count: int,
                            centers: np.ndarray, spread: float):
    clusters = rng.integers(0, len(centers), size=count)
    latents = centers[clusters] + spread * rng.normal(
        size=(count, centers.shape[1]))
    return latents, clusters


def _sample_interactions(rng: np.random.Generator, config: WorldConfig,
                         user_latents: np.ndarray,
                         item_latents: np.ndarray) -> np.ndarray:
    """Draw user-item interactions from a softmax preference model.

    Per-user interaction counts follow a shifted geometric distribution to
    mimic the long-tailed activity of real platforms.
    """
    scores = user_latents @ item_latents.T
    pairs: list[tuple[int, int]] = []
    mean_extra = max(config.interactions_per_user_mean - 5.0, 0.5)
    for user in range(config.num_users):
        # 5-core filter is applied downstream, so draw at least 5.
        count = 5 + rng.geometric(1.0 / (1.0 + mean_extra)) - 1
        count = min(count, config.num_items - 1)
        logits = scores[user] / config.interaction_temperature
        logits = logits - logits.max()
        probs = np.exp(logits)
        probs /= probs.sum()
        items = rng.choice(config.num_items, size=count, replace=False, p=probs)
        pairs.extend((user, int(item)) for item in items)
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _project_features(rng: np.random.Generator, latents: np.ndarray,
                      out_dim: int, noise: float) -> np.ndarray:
    """Random linear view of the latents plus Gaussian noise, then
    standardized — the synthetic stand-in for CNN/SBERT feature extractors."""
    projection = rng.normal(size=(latents.shape[1], out_dim))
    projection /= np.sqrt(latents.shape[1])
    features = latents @ projection + noise * rng.normal(
        size=(latents.shape[0], out_dim))
    features -= features.mean(axis=0, keepdims=True)
    scale = features.std(axis=0, keepdims=True)
    scale[scale == 0] = 1.0
    return features / scale


def _build_vocabulary(config: WorldConfig) -> list[str]:
    return [f"word{idx:04d}" for idx in range(config.vocab_size)]


def _sample_reviews(rng: np.random.Generator, config: WorldConfig,
                    interactions: np.ndarray, item_clusters: np.ndarray,
                    vocabulary: list[str]) -> list[tuple[int, int, list[str]]]:
    """Generate one bag-of-words review per interaction.

    Each item cluster owns a block of "topical" words; reviews mix topical
    words (informative for the KG Feature entities) with uniform background
    words (the noise TF-IDF should filter).
    """
    reviews = []
    block = config.cluster_vocab_size
    for user, item in interactions:
        cluster = int(item_clusters[item])
        start = (cluster * block) % max(config.vocab_size - block, 1)
        topical = rng.integers(start, start + block,
                               size=config.words_per_review // 2)
        background = rng.integers(0, config.vocab_size,
                                  size=config.words_per_review
                                  - config.words_per_review // 2)
        words = [vocabulary[w] for w in np.concatenate([topical, background])]
        reviews.append((int(user), int(item), words))
    return reviews


def _assign_categorical(rng: np.random.Generator, clusters: np.ndarray,
                        num_values: int, num_clusters: int,
                        fidelity: float) -> np.ndarray:
    """Assign each item a brand/category mostly determined by its cluster."""
    preferred = rng.integers(0, num_values, size=num_clusters)
    assignment = np.empty(len(clusters), dtype=np.int64)
    for idx, cluster in enumerate(clusters):
        if rng.random() < fidelity:
            assignment[idx] = preferred[cluster]
        else:
            assignment[idx] = rng.integers(0, num_values)
    return assignment


def generate_world(config: WorldConfig) -> World:
    """Instantiate the full synthetic world from a config."""
    rng = np.random.default_rng(config.seed)
    centers = rng.normal(size=(config.num_clusters, config.latent_dim))
    centers /= np.sqrt(config.latent_dim) / 2.0

    user_latents, user_clusters = _sample_cluster_latents(
        rng, config.num_users, centers, config.user_cluster_spread)
    item_latents, item_clusters = _sample_cluster_latents(
        rng, config.num_items, centers, config.item_cluster_spread)

    interactions = _sample_interactions(rng, config, user_latents, item_latents)
    text_features = _project_features(
        rng, item_latents, config.text_feature_dim, config.text_noise)
    image_features = _project_features(
        rng, item_latents, config.image_feature_dim, config.image_noise)

    vocabulary = _build_vocabulary(config)
    reviews = _sample_reviews(rng, config, interactions, item_clusters,
                              vocabulary)
    item_brand = _assign_categorical(
        rng, item_clusters, config.num_brands, config.num_clusters,
        config.brand_cluster_fidelity)
    item_category = _assign_categorical(
        rng, item_clusters, config.num_categories, config.num_clusters,
        config.category_cluster_fidelity)

    return World(
        config=config,
        user_latents=user_latents,
        item_latents=item_latents,
        user_clusters=user_clusters,
        item_clusters=item_clusters,
        interactions=interactions,
        text_features=text_features,
        image_features=image_features,
        reviews=reviews,
        item_brand=item_brand,
        item_category=item_category,
        vocabulary=vocabulary,
    )


def apply_k_core(interactions: np.ndarray, k: int = 5,
                 on: str = "user") -> np.ndarray:
    """Apply the paper's 5-core filter on users (drop users with < k
    interactions, repeating until stable).

    Each pass recounts degrees with a single ``np.bincount`` and keeps
    rows by a vectorized gather — bit-identical to the historical
    per-row set filter (order-preserving), without the Python loop that
    dominated large builds.
    """
    current = np.asarray(interactions)
    while True:
        if len(current) == 0:
            return current
        degrees = np.bincount(current[:, 0])
        mask = degrees[current[:, 0]] >= k
        filtered = current[mask]
        if len(filtered) == len(current):
            return filtered
        current = filtered
