"""Knowledge-graph construction matching the paper's Amazon KG schema.

Entities (Fig. 5): Item, Feature (TF-IDF review word), Brand, Category.
Relations: Described-by, Produced-by, Belong-to, Also-bought, Also-viewed,
Bought-together — six external relations; the ``Interact`` relation is added
later when the collaborative KG is assembled.

Entity ids are laid out as::

    [0, num_items)                                   items
    [num_items, num_items + num_features)            feature words
    [... + num_brands)                               brands
    [... + num_categories)                           categories

so that item i *is* entity i (the item-entity alignment the paper relies on).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..utils.arrays import sorted_unique
from .text import TfidfResult, select_feature_words
from .world import World

# Relation vocabulary, in the paper's order (Fig. 5).
RELATIONS = (
    "described_by",
    "produced_by",
    "belong_to",
    "also_bought",
    "also_viewed",
    "bought_together",
)
RELATION_INDEX = {name: idx for idx, name in enumerate(RELATIONS)}

#: entries of one row panel of the item-item similarity matrix (8 MiB of
#: float64); the matrix is scored a panel at a time, never whole
PANEL_ELEMENTS = 2 ** 20


def triplet_keys(heads: np.ndarray, relations, tails: np.ndarray,
                 num_relations: int, num_entities: int) -> np.ndarray:
    """One int64 key ``(h·R + r)·E + t`` per (head, relation, tail).

    With every id non-negative and in range, keys sort exactly like the
    triplets do lexicographically.
    """
    return ((heads * np.int64(num_relations) + relations)
            * np.int64(num_entities) + tails)


@dataclass
class KnowledgeGraph:
    """Triplet store for the item-side knowledge graph."""

    triplets: np.ndarray              # (n, 3) of (head, relation, tail)
    num_entities: int
    num_relations: int
    num_items: int
    entity_labels: dict = field(default_factory=dict, repr=False)
    relation_names: tuple = RELATIONS

    def __post_init__(self):
        self.triplets = np.asarray(self.triplets, dtype=np.int64)
        if self.triplets.size == 0:
            self.triplets = self.triplets.reshape(0, 3)
        self._triplet_keys: np.ndarray | None = None

    @property
    def num_triplets(self) -> int:
        return len(self.triplets)

    def with_triplets(self, triplets: np.ndarray) -> "KnowledgeGraph":
        """Copy of this KG with a different triplet set (used by the noise
        injection experiments)."""
        return KnowledgeGraph(
            triplets=np.asarray(triplets, dtype=np.int64),
            num_entities=self.num_entities,
            num_relations=self.num_relations,
            num_items=self.num_items,
            entity_labels=self.entity_labels,
            relation_names=self.relation_names,
        )

    def triplet_set(self) -> set[tuple[int, int, int]]:
        return {tuple(int(v) for v in row) for row in self.triplets}

    def sorted_triplet_keys(self) -> np.ndarray:
        """The sorted unique :func:`triplet_keys` of the triplets.

        Built lazily once per KG; the triplet store is frozen, and every
        mutation path (``with_triplets``) returns a fresh instance.
        """
        if self._triplet_keys is None:
            self._triplet_keys = sorted_unique(triplet_keys(
                self.triplets[:, 0], self.triplets[:, 1],
                self.triplets[:, 2], self.num_relations, self.num_entities))
        return self._triplet_keys

    def contains_triplets(self, heads: np.ndarray, relations: np.ndarray,
                          tails: np.ndarray) -> np.ndarray:
        """Vectorized membership test (the negative-sampling hot path)."""
        index = self.sorted_triplet_keys()
        keys = triplet_keys(np.asarray(heads, dtype=np.int64),
                            np.asarray(relations, dtype=np.int64),
                            np.asarray(tails, dtype=np.int64),
                            self.num_relations, self.num_entities)
        if not len(index):
            return np.zeros(len(keys), dtype=bool)
        slot = np.minimum(np.searchsorted(index, keys), len(index) - 1)
        return index[slot] == keys


def _cooccurrence_pairs(interactions: np.ndarray, num_items: int,
                        top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top_k`` most frequently co-interacted item pairs (for
    also_bought et al.) as (heads, tails) int64 arrays; never i == j.

    Order: co-interaction count descending. Equal counts keep the entry
    order of the COO form of the CSR product ``matrix.T @ matrix`` (rows
    ascending, each row's columns as scipy's product leaves them), so
    where ``top_k`` cuts a tie group is fixed.

    That is the prefix of a stable argsort of every entry, found without
    sorting them all: a partition finds the ``top_k``-th largest count,
    and only the entries at or above it, kept in entry order, are
    stably sorted.
    """
    import scipy.sparse as sp

    users = interactions[:, 0]
    items = interactions[:, 1]
    matrix = sp.csr_matrix(
        (np.ones(len(items)), (users, items)),
        shape=(int(users.max()) + 1 if len(users) else 1, num_items),
    )
    co = (matrix.T @ matrix).tocoo()
    kept = co.row != co.col
    if 0 < top_k < np.count_nonzero(kept):
        counts = co.data[kept]
        cut = len(counts) - top_k
        kept &= co.data >= np.partition(counts, cut)[cut]
    entries = np.flatnonzero(kept)
    entries = entries[np.argsort(-co.data[entries], kind="stable")[:top_k]]
    return co.row[entries].astype(np.int64), co.col[entries].astype(np.int64)


def similarity_panels(features: np.ndarray):
    """Row panels of the cosine similarity matrix of ``features`` (eq. 1)
    as ``(start, unit[start:start + rows] @ unit.T)`` pairs.

    ``unit`` holds the feature rows cast to float64 and L2-normalized;
    zero rows stay zero. A panel has at most ``PANEL_ELEMENTS`` entries
    (at least one row), and each item's self-similarity is −inf. The
    panel is a basic slice of ``unit`` (a view, not a copy), so a
    catalog that fits one panel makes the same BLAS call as the full
    product. Never score a fancy-indexed subset of the rows: its bits
    can differ from the full product.
    """
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = features / norms
    num_items = len(unit)
    rows = max(1, PANEL_ELEMENTS // max(num_items, 1))
    for start in range(0, num_items, rows):
        panel = unit[start:start + rows] @ unit.T
        diagonal = np.arange(len(panel))
        panel[diagonal, start + diagonal] = -np.inf
        yield start, panel


def _similarity_pairs(features: np.ndarray,
                      top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``top_k`` most content-similar item pairs (for also_viewed) as
    (heads, tails) int64 arrays; never i == j, so at most n·(n-1).

    Order: cosine similarity descending, equal similarities by flat index
    ``i·n + j`` descending — the reversed stable argsort of the stacked
    :func:`similarity_panels` (``axis=None, kind="stable"``, then
    ``[::-1]``; ``tests/data/test_kg_builder.py`` pins it). For a catalog
    that fits one panel that is the full n×n product; larger catalogs'
    panels may differ from it in the last bits.

    The n×n similarity matrix is never held: every similarity at or
    above the ``top_k``-th largest seen so far is kept, panel by panel,
    which keeps all ties at the cut for the final order.
    """
    num_items = len(features)
    top_k = min(top_k, num_items * (num_items - 1))
    if top_k <= 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    floor = -np.inf                   # top_k-th largest similarity so far
    values = np.empty(0)
    flat = np.empty(0, dtype=np.int64)
    for start, panel in similarity_panels(features):
        panel = panel.ravel()
        candidates = np.concatenate([values, panel[panel >= floor]])
        if len(candidates) > top_k:
            candidates.partition(len(candidates) - top_k)
            floor = candidates[len(candidates) - top_k]
        keep = np.flatnonzero(panel >= floor)
        survive = values >= floor
        values = np.concatenate([values[survive], panel[keep]])
        flat = np.concatenate([flat[survive], start * num_items + keep])
    order = np.lexsort((flat, values))[::-1][:top_k]
    return np.divmod(flat[order], num_items)


def build_knowledge_graph(world: World,
                          tfidf: TfidfResult | None = None,
                          min_frequency: int = 10,
                          max_frequency: int = 1000,
                          min_score: float = 0.02,
                          cooccurrence_top_k: int | None = None,
                          similarity_top_k: int | None = None) -> KnowledgeGraph:
    """Assemble the item KG from the synthetic world.

    ``min_score`` defaults lower than the paper's 0.1 because our synthetic
    corpora are far smaller; the pipeline (frequency window + TF-IDF
    threshold) is identical.
    """
    config = world.config
    num_items = config.num_items
    if tfidf is None:
        reviews = world.reviews
        tfidf = select_feature_words(
            np.repeat(np.arange(len(reviews)), reviews.shape[1]),
            reviews.ravel(),
            world.interactions[:, 1],
            world.vocabulary,
            min_frequency=min_frequency,
            max_frequency=max_frequency,
            min_score=min_score,
        )

    feature_words = tfidf.selected_words
    num_features = len(feature_words)
    feature_base = num_items
    brand_base = feature_base + num_features
    category_base = brand_base + config.num_brands
    num_entities = category_base + config.num_categories

    if cooccurrence_top_k is None:
        cooccurrence_top_k = num_items
    if similarity_top_k is None:
        similarity_top_k = num_items
    co_heads, co_tails = _cooccurrence_pairs(world.interactions, num_items,
                                             cooccurrence_top_k)
    sim_heads, sim_tails = _similarity_pairs(world.text_features,
                                             similarity_top_k)
    items = np.arange(num_items, dtype=np.int64)
    word_heads, word_ids = tfidf.item_words.T
    # (heads, relation ids, tails) per relation
    blocks = [
        (word_heads, RELATION_INDEX["described_by"], feature_base + word_ids),
        (items, RELATION_INDEX["produced_by"],
         brand_base + world.item_brand.astype(np.int64)),
        (items, RELATION_INDEX["belong_to"],
         category_base + world.item_category.astype(np.int64)),
        # co-occurrence pairs alternate also_bought / bought_together
        (co_heads, np.where(np.arange(len(co_heads)) % 2 == 0,
                            RELATION_INDEX["also_bought"],
                            RELATION_INDEX["bought_together"]), co_tails),
        (sim_heads, RELATION_INDEX["also_viewed"], sim_tails),
    ]
    keys = sorted_unique(np.concatenate([
        triplet_keys(heads, relations, tails, len(RELATIONS), num_entities)
        for heads, relations, tails in blocks]))
    head_relations, tails = np.divmod(keys, num_entities)
    heads, relations = np.divmod(head_relations, len(RELATIONS))

    labels: dict[int, str] = {}
    for item in range(num_items):
        labels[item] = f"item:{item}"
    for idx, word in enumerate(feature_words):
        labels[feature_base + idx] = f"feature:{word}"
    for b in range(config.num_brands):
        labels[brand_base + b] = f"brand:{b}"
    for c in range(config.num_categories):
        labels[category_base + c] = f"category:{c}"

    return KnowledgeGraph(
        triplets=np.column_stack([heads, relations, tails]),
        num_entities=num_entities,
        num_relations=len(RELATIONS),
        num_items=num_items,
        entity_labels=labels,
    )
