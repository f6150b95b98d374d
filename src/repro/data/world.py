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

Review text stays integer word ids from sampling to the KG: ``World.reviews``
is one ``(interactions, words_per_review)`` id matrix drawn in a single
generator call. ``World.vocabulary`` maps an id to its word, and its strings
are read in two places only: they fix the order of the TF-IDF-selected
feature words, and with it the numbering of the KG's Feature entities (string
order parts from id order past 10,000 words), and they label those entities.
"""

from __future__ import annotations

import math
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

    def __post_init__(self):
        # a cluster's topical block must fit inside the vocabulary, or
        # review word ids would run past it
        if not 1 <= self.cluster_vocab_size <= self.vocab_size:
            raise ValueError(
                f"cluster_vocab_size must be in [1, vocab_size="
                f"{self.vocab_size}], got {self.cluster_vocab_size}")
        if self.words_per_review < 0:
            raise ValueError(f"words_per_review must be >= 0, got "
                             f"{self.words_per_review}")
        # a negative temperature inverts every user's preferences, and a
        # zero one divides the scores by zero
        if not (math.isfinite(self.interaction_temperature)
                and self.interaction_temperature > 0):
            raise ValueError(f"interaction_temperature must be a positive "
                             f"finite number, got "
                             f"{self.interaction_temperature}")


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
    # (len(interactions), words_per_review) int64 word ids: row i is the
    # review of interactions[i]
    reviews: np.ndarray = field(repr=False)
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


def _draw_without_replacement(rng: np.random.Generator, row: np.ndarray,
                              count: int) -> list[int]:
    """``count`` distinct indices of ``row``, drawn with probabilities
    ``row`` (non-negative, summing to 1), in draw order.

    Runs the rounds ``rng.choice(len(row), count, replace=False, p=row)``
    runs, without its per-call validation, copy and ``np.unique``: each
    round draws one ``rng.random`` per missing index, zeroes the indices
    already found, inverts the renormalised cumulative sum and keeps
    each new index's first occurrence.  The same doubles are drawn in
    the same order, so the indices, and the generator state after them,
    are ``choice``'s.  Zeroes the found indices of ``row`` in place.

    Raises ``ValueError`` where ``choice`` does: a NaN in ``row``, or
    fewer non-zero entries than ``count``.  Otherwise every round finds
    at least one new index (a zeroed entry has no width in the
    cumulative sum), so the loop ends.
    """
    if np.isnan(row).any():
        raise ValueError("Probabilities contain NaN")
    if np.count_nonzero(row) < count:
        raise ValueError("Fewer non-zero entries in p than size")
    found: list[int] = []
    while len(found) < count:
        draws = rng.random(count - len(found))
        row[found] = 0.0
        cdf = np.cumsum(row)
        cdf /= cdf[-1]
        found.extend(dict.fromkeys(
            cdf.searchsorted(draws, side="right").tolist()))
    return found


def _sample_interactions(rng: np.random.Generator, config: WorldConfig,
                         user_latents: np.ndarray,
                         item_latents: np.ndarray) -> np.ndarray:
    """Draw user-item interactions from a softmax preference model.

    Per-user interaction counts follow a shifted geometric distribution to
    mimic the long-tailed activity of real platforms.  The softmax of
    every user's row is taken at once, in place on the score matrix;
    each row holds the bits of that user's own softmax.  Each user then
    draws a count and that many distinct items
    (:func:`_draw_without_replacement`).
    """
    probs = user_latents @ item_latents.T
    probs /= config.interaction_temperature
    probs -= probs.max(axis=1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    mean_extra = max(config.interactions_per_user_mean - 5.0, 0.5)
    items: list[int] = []
    counts = np.empty(config.num_users, dtype=np.int64)
    for user in range(config.num_users):
        # 5-core filter is applied downstream, so draw at least 5.
        count = 5 + rng.geometric(1.0 / (1.0 + mean_extra)) - 1
        count = min(count, config.num_items - 1)
        items.extend(_draw_without_replacement(rng, probs[user], count))
        counts[user] = count
    return np.column_stack([
        np.repeat(np.arange(config.num_users, dtype=np.int64), counts),
        np.asarray(items, dtype=np.int64)])


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
                    interactions: np.ndarray,
                    item_clusters: np.ndarray) -> np.ndarray:
    """Generate one bag-of-words review per interaction, as word ids.

    Each item cluster owns a block of "topical" words; reviews mix topical
    words (informative for the KG Feature entities) with uniform background
    words (the noise TF-IDF should filter). Row i of the returned
    ``(len(interactions), words_per_review)`` int64 matrix reviews
    ``interactions[i]``: its first ``words_per_review // 2`` words come
    from the item's cluster block ``[start, start + cluster_vocab_size)``,
    the rest from ``[0, vocab_size)``.

    One broadcast ``rng.integers(low, high)`` draws the whole matrix in
    row-major order. That consumes the generator exactly as drawing each
    review's topical words, then its background words, in turn: the
    words and the generator state after them are the same either way,
    so every later draw of the world is too.
    """
    block = config.cluster_vocab_size
    topical = config.words_per_review // 2
    start = ((item_clusters[interactions[:, 1]] * block)
             % max(config.vocab_size - block, 1))
    shape = (len(interactions), config.words_per_review)
    low = np.zeros(shape, dtype=np.int64)
    high = np.full(shape, config.vocab_size, dtype=np.int64)
    low[:, :topical] = start[:, None]
    high[:, :topical] = start[:, None] + block
    return rng.integers(low, high)


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

    reviews = _sample_reviews(rng, config, interactions, item_clusters)
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
        vocabulary=_build_vocabulary(config),
    )


def apply_k_core(interactions: np.ndarray, k: int = 5) -> np.ndarray:
    """Apply the paper's 5-core filter on users: drop every user with
    fewer than ``k`` interactions, keeping row order.

    Dropping a user removes only that user's rows, so no surviving
    user's degree changes and one pass is already the fixed point a
    repeat-until-stable loop reaches.  Degrees come from one
    ``np.bincount`` and rows are kept by a vectorized gather.
    """
    current = np.asarray(interactions)
    if len(current) == 0:
        return current
    degrees = np.bincount(current[:, 0])
    return current[degrees[current[:, 0]] >= k]
