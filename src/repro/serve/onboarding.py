"""Online cold-start onboarding: make brand-new items rankable, live.

The paper's inference rule for strict cold-start items (eq. 34-35)
expands the frozen modality-specific item-item kNN graphs over all items
with a mask so information flows *from* warm items *to* cold items and
never back. The same rule extends to items that did not exist at
training time at all: given only their modality features, we

1. extend each frozen kNN graph incrementally — the new item's top-k
   most cosine-similar *warm* neighbors become its incoming edges
   (warm-only sources is exactly the eq. 34 mask: an unseen item may
   receive signal but never send it);
2. aggregate the neighbors' final representations per modality (one
   propagation hop — a new item has no trained layer-0 embedding, so its
   representation is purely propagated warm signal, mirroring the
   paper's observation about strict cold items);
3. mean-pool across modalities (the fusion stage's pooling, sans
   attention) and append the result to the store.

Existing vectors are never touched, so warm rankings are unchanged; the
new items simply join the candidate pool — no retraining, no graph
rebuild, O(new x warm) work per ingest call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..backend import active as _active_backend
from ..engine import apply_dense, mean_aggregation_operator


def _unit_rows(matrix: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, 1e-12)


@dataclass
class GraphExpansion:
    """Incremental kNN edges for a batch of new items in one modality."""

    modality: str
    neighbors: np.ndarray     # (num_new, top_k) warm item ids
    similarities: np.ndarray  # (num_new, top_k) cosine similarities


def expand_item_graph(features: np.ndarray, new_features: np.ndarray,
                      warm_items: np.ndarray, top_k: int,
                      modality: str = "") -> GraphExpansion:
    """kNN edges from warm items to each new item (eq. 1-2, restricted
    to warm sources per the eq. 34 mask)."""
    warm_items = np.asarray(warm_items, dtype=np.int64)
    if len(warm_items) == 0:
        raise ValueError("cannot onboard items into a store with no "
                         "warm items")
    if int(top_k) <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    top_k = min(int(top_k), len(warm_items))
    similarity = _active_backend().matmul(
        _unit_rows(new_features), _unit_rows(features[warm_items]).T)
    top = np.argpartition(-similarity, top_k - 1, axis=1)[:, :top_k]
    top_sims = np.take_along_axis(similarity, top, axis=1)
    order = np.argsort(-top_sims, axis=1, kind="stable")
    top = np.take_along_axis(top, order, axis=1)
    return GraphExpansion(
        modality=modality,
        neighbors=warm_items[top],
        similarities=np.take_along_axis(top_sims, order, axis=1))


def ingest_items(store, features: dict, top_k: int | None = None
                 ) -> np.ndarray:
    """Onboard brand-new items into an ``EmbeddingStore``; returns the
    item ids assigned to them.

    Parameters
    ----------
    store:
        The :class:`repro.serve.store.EmbeddingStore` to extend.
    features:
        modality -> ``(num_new, feature_dim)`` raw feature rows; must
        provide exactly the store's modalities at matching dimensions,
        with finite values in ``float32``.
    top_k:
        kNN budget per modality graph; defaults to the store's frozen
        ``item_topk``.
    """
    if not store.modalities:
        raise ValueError("store has no modality features; online "
                         "onboarding needs at least one modality")
    if set(features) != set(store.modalities):
        raise ValueError(
            f"feature modalities {sorted(features)} do not match the "
            f"store's {sorted(store.modalities)}")
    features = {modality: np.asarray(feats, dtype=np.float32)
                for modality, feats in features.items()}
    for modality, feats in features.items():
        expected = store.features[modality].shape[1]
        if feats.ndim != 2 or feats.shape[1] != expected:
            raise ValueError(
                f"{modality!r} features must be (num_new, {expected}), "
                f"got {feats.shape}")
        if not np.isfinite(feats).all():
            raise ValueError(f"{modality!r} features must be finite")
    sizes = {modality: feats.shape for modality, feats in features.items()}
    num_new = next(iter(sizes.values()))[0]
    if any(shape[0] != num_new for shape in sizes.values()):
        raise ValueError("modalities disagree on the number of new "
                         f"items: {sizes}")
    if num_new == 0:
        return np.empty(0, dtype=np.int64)

    top_k = store.item_topk if top_k is None else int(top_k)
    if top_k <= 0:
        raise ValueError(f"top_k must be positive, got {top_k}")
    warm = store.warm_items()
    new_vectors = np.zeros((num_new, store.dim), dtype=np.float32)
    for modality in store.modalities:
        expansion = expand_item_graph(store.features[modality],
                                      features[modality], warm, top_k,
                                      modality=modality)
        # One unweighted propagation hop over the expanded edges, as in
        # the frozen graphs' kNN convolution (eq. 2-3 reduce to a plain
        # neighbor mean for a single appended row): expressed through the
        # same engine operator form every model's propagation uses.
        operator = mean_aggregation_operator(expansion.neighbors,
                                             store.num_items)
        new_vectors += apply_dense(operator, store.item_vectors)
    new_vectors /= len(store.modalities)

    first_id = store.num_items
    store.item_vectors = np.ascontiguousarray(
        np.vstack([store.item_vectors, new_vectors]), dtype=np.float32)
    store.is_cold = np.concatenate(
        [store.is_cold, np.ones(num_new, dtype=bool)])
    store.is_ingested = np.concatenate(
        [store.is_ingested, np.ones(num_new, dtype=bool)])
    for modality in store.modalities:
        store.features[modality] = np.ascontiguousarray(
            np.vstack([store.features[modality], features[modality]]),
            dtype=np.float32)
    # New items have no interactions: widening the CSR with empty columns
    # is a metadata-only change.
    seen = store.seen
    store.seen = type(seen)((seen.data, seen.indices, seen.indptr),
                            shape=(store.num_users, store.num_items))
    return np.arange(first_id, first_id + num_new, dtype=np.int64)
