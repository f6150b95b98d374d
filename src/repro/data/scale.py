"""Streaming million-scale synthetic worlds.

:mod:`repro.data.world` instantiates a whole latent-factor world in RAM
— the right tool at benchmark scale, hopeless at a million users.  This
module is the scale substitute: a *streaming* generator whose every
draw is a pure function of ``(seed, block)``, so interactions, features
and KG triplets are emitted one fixed block at a time and any catalog
size is bit-reproducible.

Determinism contract (what the parity tests pin):

* generation happens in FIXED blocks (:data:`_USER_BLOCK` users,
  :data:`_ITEM_BLOCK` items), each seeded independently via
  ``np.random.default_rng((seed, salt, block))``;
* an interaction block holds whole users in ascending order, so every
  ``user * num_items + item`` key of a block sorts below every key of
  the next one, and each user's degree is known within its block;
* dataset membership (cold items, train/val/test assignment,
  known/unknown halves) is a per-row :func:`hash_u01` of stable ids —
  no draw depends on array order or block boundaries;
* :func:`build_scale_dataset_in_ram` is the reference;
  :func:`build_scale_dataset` dedups, k-cores and splits one block at a
  time and must produce a byte-identical dataset.

The statistical shape mirrors the paper's benchmarks: bounded-Pareto
per-user activity (long-tailed, mean ≈ 34), Zipfian item popularity
with cluster-affine preferences, per-item multi-modal features emitted
as noisy cluster centroids, and the six-relation Amazon KG schema.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chunked import NpyStreamWriter, encode_pairs, unique_pairs
from .datasets import RecDataset
from .kg_builder import RELATION_INDEX, RELATIONS, KnowledgeGraph
from .splits import ColdStartSplit
from .world import apply_k_core

#: fixed generation granularities — NOT tunable, by design: every
#: draw is seeded per block, so moving them would change the data
_USER_BLOCK = 4096
_ITEM_BLOCK = 8192

# rng stream salts (one independent stream per concern)
_SALT_INTER = 11          # per-user-block interaction draws
_SALT_CENTERS = 19        # per-modality cluster centroids
_SALT_FEATURES = 20       # + modality salt: per-item-block feature noise
# hash salts (order-free per-row assignment)
_SALT_POP = 3             # item -> popularity-rank permutation
_SALT_KG_WORD = 30
_SALT_KG_BRAND = 31
_SALT_KG_CATEGORY = 32
_SALT_COVER = 40          # + modality salt: modality coverage mask
_SALT_COLD = 101          # item -> strict-cold membership
_SALT_SPLIT = 102         # interaction -> train/val/test bucket
_SALT_HALF = 103          # cold interaction -> known/unknown half

_MODALITY_SALTS = {"text": 1, "image": 2}


def hash_u01(values, seed: int, salt: int) -> np.ndarray:
    """Deterministic per-value uniform in [0, 1) (splitmix64 finalizer).

    Pure and order-free: the value for an id never depends on which
    block it arrives in, which is what makes every membership decision
    (cold item, split bucket, coverage) the same block by block as on
    the whole array.
    """
    mix = (int(seed) * 0x9E3779B97F4A7C15
           + int(salt) * 0xBF58476D1CE4E5B9
           + 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = np.asarray(values).astype(np.uint64)
    with np.errstate(over="ignore"):
        z = z + np.uint64(mix)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


@dataclass(frozen=True)
class ScaleConfig:
    """Parameters of a streaming synthetic world.

    Unlike :class:`repro.data.world.WorldConfig` there are no latent
    matrices to materialize — every knob parameterizes a closed-form
    per-block sampler, so memory never depends on
    ``num_users``/``num_items`` beyond O(num_items) popularity tables.
    """

    num_users: int = 10000
    num_items: int = 8000
    num_clusters: int = 32
    # per-user activity: bounded Pareto on [min, max] with tail index
    # (user_activity_exponent - 1); defaults give a mean of ~34
    interactions_per_user_min: int = 8
    interactions_per_user_max: int = 256
    user_activity_exponent: float = 1.8
    # item popularity: Zipf over a hashed rank permutation
    item_popularity_exponent: float = 0.9
    #: probability an interaction is drawn from the user's own cluster
    #: (vs the global popularity distribution)
    cluster_affinity: float = 0.7
    # multi-modal features
    text_feature_dim: int = 48
    image_feature_dim: int = 64
    feature_noise: float = 0.5
    #: fraction of items with observed features per modality (rows of
    #: uncovered items are zeroed, mimicking missing-modality items)
    modality_coverage: float = 1.0
    # knowledge graph
    num_feature_words: int = 512
    kg_words_per_item: int = 2
    num_brands: int = 64
    num_categories: int = 32
    # benchmark protocol
    cold_fraction: float = 0.2
    k_core: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.user_activity_exponent <= 1.0:
            raise ValueError("user_activity_exponent must be > 1 "
                             "(the Pareto tail index is exponent - 1)")
        if not 0 < self.interactions_per_user_min \
                <= self.interactions_per_user_max:
            raise ValueError("need 0 < interactions_per_user_min <= "
                             "interactions_per_user_max")


#: size name -> (num_users, num_items); tiny/small/medium line up with
#: the in-RAM presets' spirit, large/xlarge only exist on this path
SCALE_SIZE_PRESETS = {
    "tiny": (2000, 1500),
    "small": (10000, 8000),
    "medium": (50000, 40000),
    "large": (250000, 125000),
    "xlarge": (1000000, 500000),
}


def scale_config(size: str = "small", seed: int = 0,
                 **overrides) -> ScaleConfig:
    """Preset :class:`ScaleConfig` for a named size."""
    if size not in SCALE_SIZE_PRESETS:
        raise ValueError(f"unknown scale size {size!r}; choose from "
                         f"{sorted(SCALE_SIZE_PRESETS)}")
    users, items = SCALE_SIZE_PRESETS[size]
    return replace(ScaleConfig(num_users=users, num_items=items,
                               seed=seed), **overrides)


# ----------------------------------------------------------------------
# popularity model (O(num_items) tables, computed once per build)
# ----------------------------------------------------------------------
def _popularity_tables(config: ScaleConfig):
    n = config.num_items
    # popularity rank permutation: a hash argsort, so an item's rank is
    # a stable function of (seed, item), not of generation order
    pop_order = np.argsort(hash_u01(np.arange(n), config.seed, _SALT_POP),
                           kind="stable").astype(np.int64)
    weights = (np.arange(n, dtype=np.float64) + 1.0) \
        ** -config.item_popularity_exponent
    global_cdf = np.cumsum(weights)
    global_cdf /= global_cdf[-1]
    cluster_items: list[np.ndarray] = []
    cluster_cdfs: list[np.ndarray] = []
    clusters_of_rank = pop_order % config.num_clusters
    for c in range(config.num_clusters):
        ranks = np.flatnonzero(clusters_of_rank == c)
        items = pop_order[ranks]
        if not len(items):
            # degenerate tiny catalog: fall back to the global tables
            cluster_items.append(pop_order)
            cluster_cdfs.append(global_cdf)
            continue
        cdf = np.cumsum(weights[ranks])
        cdf /= cdf[-1]
        cluster_items.append(items)
        cluster_cdfs.append(cdf)
    return pop_order, global_cdf, cluster_items, cluster_cdfs


def _sample_cdf(cdf: np.ndarray, items: np.ndarray,
                q: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cdf, q, side="right")
    return items[np.minimum(idx, len(items) - 1)]


# ----------------------------------------------------------------------
# interaction stream
# ----------------------------------------------------------------------
def iter_interaction_chunks(config: ScaleConfig):
    """Yield raw ``(n, 2)`` interaction blocks, one per
    :data:`_USER_BLOCK` users in ascending user order (duplicates
    included — dedup and k-core are build steps, like real log
    ingestion)."""
    tables = _popularity_tables(config)
    pop_order, global_cdf, cluster_items, cluster_cdfs = tables
    dmin = float(config.interactions_per_user_min)
    dmax = float(config.interactions_per_user_max)
    alpha = config.user_activity_exponent - 1.0
    ratio = (dmin / dmax) ** alpha
    num_blocks = -(-config.num_users // _USER_BLOCK)
    for block in range(num_blocks):
        rng = np.random.default_rng((config.seed, _SALT_INTER, block))
        start = block * _USER_BLOCK
        users = np.arange(start, min(start + _USER_BLOCK,
                                     config.num_users), dtype=np.int64)
        # bounded-Pareto per-user degree via inverse CDF
        u = rng.random(len(users))
        degrees = dmin * (1.0 - u * (1.0 - ratio)) ** (-1.0 / alpha)
        counts = np.minimum(np.floor(degrees).astype(np.int64),
                            int(dmax))
        users_rep = np.repeat(users, counts)
        total = len(users_rep)
        pick_cluster = rng.random(total) < config.cluster_affinity
        q = rng.random(total)
        items = np.empty(total, dtype=np.int64)
        glob = ~pick_cluster
        items[glob] = _sample_cdf(global_cdf, pop_order, q[glob])
        user_cluster = users_rep % config.num_clusters
        for c in np.unique(user_cluster[pick_cluster]):
            rows = pick_cluster & (user_cluster == c)
            items[rows] = _sample_cdf(cluster_cdfs[c], cluster_items[c],
                                      q[rows])
        yield np.column_stack([users_rep, items])


# ----------------------------------------------------------------------
# feature stream
# ----------------------------------------------------------------------
def feature_dims(config: ScaleConfig) -> dict[str, int]:
    dims = {"text": config.text_feature_dim,
            "image": config.image_feature_dim}
    return {m: d for m, d in dims.items() if d > 0}


def iter_feature_chunks(config: ScaleConfig, modality: str):
    """Yield ``(n, dim)`` float32 feature blocks for one modality, one
    per :data:`_ITEM_BLOCK` items."""
    salt = _MODALITY_SALTS[modality]
    dim = feature_dims(config)[modality]
    centers_rng = np.random.default_rng((config.seed, _SALT_CENTERS,
                                         salt))
    centers = centers_rng.normal(size=(config.num_clusters, dim))
    num_blocks = -(-config.num_items // _ITEM_BLOCK)
    for block in range(num_blocks):
        rng = np.random.default_rng((config.seed,
                                     _SALT_FEATURES + salt, block))
        start = block * _ITEM_BLOCK
        ids = np.arange(start, min(start + _ITEM_BLOCK,
                                   config.num_items), dtype=np.int64)
        noise = rng.normal(size=(len(ids), dim))
        block_features = (centers[ids % config.num_clusters]
                          + config.feature_noise * noise)
        if config.modality_coverage < 1.0:
            covered = hash_u01(ids, config.seed, _SALT_COVER + salt) \
                < config.modality_coverage
            block_features[~covered] = 0.0
        yield block_features.astype(np.float32)


# ----------------------------------------------------------------------
# knowledge-graph stream
# ----------------------------------------------------------------------
def scale_kg_layout(config: ScaleConfig) -> dict[str, int]:
    """Entity-id layout (items first — the paper's item/entity
    alignment), mirroring :mod:`repro.data.kg_builder`."""
    feature_base = config.num_items
    brand_base = feature_base + config.num_feature_words
    category_base = brand_base + config.num_brands
    return {
        "feature_base": feature_base,
        "brand_base": brand_base,
        "category_base": category_base,
        "num_entities": category_base + config.num_categories,
    }


def iter_kg_chunks(config: ScaleConfig):
    """Yield ``(n, 3)`` (head, relation, tail) triplet blocks, one per
    :data:`_ITEM_BLOCK` items."""
    layout = scale_kg_layout(config)
    n = config.num_items
    K = config.num_clusters
    num_blocks = -(-n // _ITEM_BLOCK)
    for block in range(num_blocks):
        start = block * _ITEM_BLOCK
        ids = np.arange(start, min(start + _ITEM_BLOCK, n),
                        dtype=np.int64)
        parts = []
        # described_by: deterministic hashed feature words per item
        for j in range(config.kg_words_per_item):
            words = (hash_u01(ids * config.kg_words_per_item + j,
                              config.seed, _SALT_KG_WORD)
                     * config.num_feature_words).astype(np.int64)
            parts.append((ids, RELATION_INDEX["described_by"],
                          layout["feature_base"] + words))
        brands = (hash_u01(ids, config.seed, _SALT_KG_BRAND)
                  * config.num_brands).astype(np.int64)
        parts.append((ids, RELATION_INDEX["produced_by"],
                      layout["brand_base"] + brands))
        categories = (hash_u01(ids, config.seed, _SALT_KG_CATEGORY)
                      * config.num_categories).astype(np.int64)
        parts.append((ids, RELATION_INDEX["belong_to"],
                      layout["category_base"] + categories))
        # co-occurrence-style ring links: cheap, deterministic, and —
        # because cluster membership is id % K — cluster-consistent
        for relation, hop in (("also_bought", K), ("also_viewed", 2 * K),
                              ("bought_together", 3 * K)):
            parts.append((ids, RELATION_INDEX[relation],
                          (ids + hop) % n))
        yield np.concatenate([
            np.column_stack([heads,
                             np.full(len(heads), rel, dtype=np.int64),
                             tails])
            for heads, rel, tails in parts])


# ----------------------------------------------------------------------
# split assignment (pure per-row hashing — order- and block-free)
# ----------------------------------------------------------------------
_STREAMED_SPLIT_FIELDS = (
    "train", "warm_val", "warm_test", "cold_val", "cold_test",
    "cold_val_known", "cold_val_unknown", "cold_test_known",
    "cold_test_unknown",
)


def split_rows(pairs: np.ndarray, config: ScaleConfig
               ) -> dict[str, np.ndarray]:
    """Partition interaction rows into the paper's benchmark splits.

    Every decision is a per-row hash of stable ids, so applying this to
    a whole array or block by block yields identical concatenations:
    cold items by item hash (``cold_fraction``); warm rows 8:1:1 into
    train/warm_val/warm_test; cold rows 1:1 into cold_val/cold_test,
    each halved into known/unknown for the normal-cold protocol.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    seed = config.seed
    items = pairs[:, 1]
    keys = encode_pairs(pairs, config.num_items)
    cold = hash_u01(items, seed, _SALT_COLD) < config.cold_fraction
    r = hash_u01(keys, seed, _SALT_SPLIT)
    known = hash_u01(keys, seed, _SALT_HALF) < 0.5
    warm = ~cold
    cold_val = cold & (r < 0.5)
    cold_test = cold & (r >= 0.5)
    return {
        "train": pairs[warm & (r < 0.8)],
        "warm_val": pairs[warm & (r >= 0.8) & (r < 0.9)],
        "warm_test": pairs[warm & (r >= 0.9)],
        "cold_val": pairs[cold_val],
        "cold_test": pairs[cold_test],
        "cold_val_known": pairs[cold_val & known],
        "cold_val_unknown": pairs[cold_val & ~known],
        "cold_test_known": pairs[cold_test & known],
        "cold_test_unknown": pairs[cold_test & ~known],
    }


def item_partition(config: ScaleConfig) -> tuple[np.ndarray, np.ndarray]:
    """(warm_items, cold_items), both sorted ascending; streamed over
    item blocks so scratch stays O(block) + O(output)."""
    warm_parts, cold_parts = [], []
    for start in range(0, config.num_items, _ITEM_BLOCK):
        ids = np.arange(start, min(start + _ITEM_BLOCK,
                                   config.num_items), dtype=np.int64)
        cold = hash_u01(ids, config.seed, _SALT_COLD) \
            < config.cold_fraction
        cold_parts.append(ids[cold])
        warm_parts.append(ids[~cold])
    return np.concatenate(warm_parts), np.concatenate(cold_parts)


def scale_dataset_header(config: ScaleConfig, name: str) -> dict:
    """The manifest header of a scale-built dataset (the schema
    :func:`repro.data.io.save_dataset` writes)."""
    layout = scale_kg_layout(config)
    return {
        "name": name,
        "num_users": config.num_users,
        "num_items": config.num_items,
        "modalities": list(feature_dims(config)),
        "kg": {
            "num_entities": layout["num_entities"],
            "num_relations": len(RELATIONS),
            "num_items": config.num_items,
            "relation_names": list(RELATIONS),
        },
    }


def default_scale_name(config: ScaleConfig) -> str:
    return f"scale-{config.num_users}x{config.num_items}"


# ----------------------------------------------------------------------
# builds
# ----------------------------------------------------------------------
def _dedup_k_core(raw: np.ndarray, config: ScaleConfig) -> np.ndarray:
    """Key-sorted unique ``(user, item)`` pairs of ``raw`` that survive
    the user k-core.  On whole users in ascending blocks this is
    block-additive: the concatenation over blocks equals one call on
    the concatenated stream."""
    return apply_k_core(unique_pairs(raw, config.num_items),
                        k=config.k_core)


def build_scale_dataset_in_ram(config: ScaleConfig,
                               name: str | None = None) -> RecDataset:
    """The in-RAM reference build: concatenates every stream and returns
    a fully resident :class:`RecDataset`.  Peak memory grows with the
    catalog; :func:`build_scale_dataset` must match it byte for byte."""
    pairs = _dedup_k_core(
        np.concatenate(list(iter_interaction_chunks(config))), config)
    warm_items, cold_items = item_partition(config)
    split = ColdStartSplit(
        num_users=config.num_users, num_items=config.num_items,
        warm_items=warm_items, cold_items=cold_items,
        **split_rows(pairs, config))
    features = {m: np.concatenate(list(iter_feature_chunks(config, m)))
                for m in feature_dims(config)}
    layout = scale_kg_layout(config)
    kg = KnowledgeGraph(
        triplets=np.concatenate(list(iter_kg_chunks(config))),
        num_entities=layout["num_entities"],
        num_relations=len(RELATIONS),
        num_items=config.num_items,
    )
    return RecDataset(name=name or default_scale_name(config),
                      num_users=config.num_users,
                      num_items=config.num_items, split=split,
                      features=features, kg=kg, world=None)


def build_scale_dataset(config: ScaleConfig,
                        out: str | Path | None = None,
                        name: str | None = None) -> RecDataset:
    """Materialize a benchmark dataset one generator block at a time.

    Each interaction block is deduped, k-cored and hash-split in RAM
    and appended to the split arrays of a staged dataset directory;
    each feature and KG block is appended as it is generated.  Peak
    memory is one block plus the ``O(num_items)`` popularity tables.
    The directory is published at ``out`` (or a private temp dir) and
    returned mmap'd; it is byte-identical to
    :func:`build_scale_dataset_in_ram`.
    """
    from .io import DatasetDirWriter, load_dataset

    if out is None:
        keep = Path(tempfile.mkdtemp(prefix="repro-scale-"))
        atexit.register(shutil.rmtree, keep, ignore_errors=True)
        out = keep / "dataset"
    out = Path(out)

    # Leaving the block on an error removes the staged directory; an
    # injected crash (the dataset.build.write chaos seam) leaves it on
    # disk, exactly as a real kill would.
    with DatasetDirWriter(out) as writer:
        split_writers = {
            field: NpyStreamWriter(
                writer.array_path(f"split.{field}"), np.int64,
                row_shape=(2,))
            for field in _STREAMED_SPLIT_FIELDS}
        try:
            for block in iter_interaction_chunks(config):
                pairs = _dedup_k_core(block, config)
                for field, rows in split_rows(pairs, config).items():
                    if len(rows):
                        split_writers[field].write(rows)
        finally:
            for stream in split_writers.values():
                stream.close()
        warm_items, cold_items = item_partition(config)
        writer.add_array("split.warm_items", warm_items)
        writer.add_array("split.cold_items", cold_items)
        for modality, dim in feature_dims(config).items():
            with NpyStreamWriter(
                    writer.array_path(f"features.{modality}"),
                    np.float32, row_shape=(dim,)) as stream:
                for block in iter_feature_chunks(config, modality):
                    stream.write(block)
        with NpyStreamWriter(writer.array_path("kg.triplets"),
                             np.int64, row_shape=(3,)) as stream:
            for block in iter_kg_chunks(config):
                stream.write(block)
        writer.commit(scale_dataset_header(
            config, name or default_scale_name(config)))
    return load_dataset(out, mmap=True)
