"""Embedding snapshots: the serving layer's persistent model artifact.

An :class:`EmbeddingStore` captures everything inference needs from a
trained model — final user/item representation matrices (including the
frozen-graph expansions for strict cold-start items), the training
interactions used for seen-item masking, the raw per-item modality
features, and the kNN budget of the frozen item-item graphs — as
contiguous ``float32`` arrays.  On disk it is an array directory
(:mod:`repro.utils.arraydir`): one raw ``.npy`` per array plus a JSON
manifest, which ``load(mmap=True)`` maps zero-copy straight off the
page cache.

Unlike a training checkpoint (:func:`repro.train.snapshot.save_checkpoint`,
the same array-directory format), which stores *parameters* and
rebuilds graphs from the dataset, a store holds
the *outputs* of the forward pass: it can answer queries without the
model, the dataset generator, or the autograd stack, and it is what the
online onboarding API (:func:`repro.serve.ingest_items`) extends when
brand-new items arrive after training.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..reliability import fire
from ..utils.arraydir import (ArrayDirWriter, check_fields, read_array,
                              read_manifest)
from .ranker import interactions_to_csr

FORMAT_VERSION = 2
DEFAULT_ITEM_TOPK = 10

#: manifest key -> the kind of value :meth:`EmbeddingStore.load` reads
_HEADER_KINDS = {"version": int, "item_topk": int, "modalities": list,
                 "metadata": dict}


class CorruptStoreError(ValueError):
    """A store directory is torn, damaged, or not a store at all.

    Raised by :meth:`EmbeddingStore.load` with the offending path in
    the message — callers (the serving CLI, ``POST /swap``, the chaos
    harness) get one exception type that means "this snapshot is
    damaged; do not serve it".
    """


class EmbeddingStore:
    """Frozen user/item representations plus the serving side-information.

    Attributes
    ----------
    user_vectors, item_vectors:
        ``(num_users, dim)`` / ``(num_items, dim)`` ``float32`` matrices.
    seen:
        Boolean CSR of training interactions (for seen-item masking).
    features:
        modality -> ``(num_items, feature_dim)`` ``float32`` raw features.
    is_cold:
        Per-item flag: strict cold-start at snapshot time, or ingested.
    is_ingested:
        Per-item flag: onboarded via :func:`~repro.serve.ingest_items`
        after the snapshot (always a subset of ``is_cold``).
    item_topk:
        kNN budget of the frozen item-item graphs; reused when the
        onboarding API extends them.
    """

    def __init__(self, user_vectors: np.ndarray, item_vectors: np.ndarray,
                 seen: sp.spmatrix | None = None,
                 features: dict | None = None,
                 is_cold: np.ndarray | None = None,
                 is_ingested: np.ndarray | None = None,
                 item_topk: int = DEFAULT_ITEM_TOPK,
                 metadata: dict | None = None):
        self.user_vectors = np.ascontiguousarray(user_vectors,
                                                 dtype=np.float32)
        self.item_vectors = np.ascontiguousarray(item_vectors,
                                                 dtype=np.float32)
        if self.user_vectors.ndim != 2 or self.item_vectors.ndim != 2:
            raise ValueError("user and item vectors must be 2-D matrices")
        if self.user_vectors.shape[1] != self.item_vectors.shape[1]:
            raise ValueError("user/item embedding dimensions differ")
        num_items = self.item_vectors.shape[0]
        if seen is None:
            seen = sp.csr_matrix((self.num_users, num_items), dtype=bool)
        if seen.shape != (self.num_users, num_items):
            raise ValueError(f"seen matrix shape {seen.shape} does not "
                             f"match {(self.num_users, num_items)}")
        self.seen = seen.tocsr()
        self.features = {
            modality: np.ascontiguousarray(feats, dtype=np.float32)
            for modality, feats in (features or {}).items()
        }
        for modality, feats in self.features.items():
            if feats.shape[0] != num_items:
                raise ValueError(
                    f"{modality!r} features cover {feats.shape[0]} items, "
                    f"store has {num_items}")
        self.is_cold = (np.zeros(num_items, dtype=bool) if is_cold is None
                        else np.asarray(is_cold, dtype=bool).copy())
        self.is_ingested = (np.zeros(num_items, dtype=bool)
                            if is_ingested is None
                            else np.asarray(is_ingested, dtype=bool).copy())
        for name, flags in (("is_cold", self.is_cold),
                            ("is_ingested", self.is_ingested)):
            if flags.shape != (num_items,):
                raise ValueError(f"{name} has shape {flags.shape}, store "
                                 f"has {num_items} items")
        self.item_topk = int(item_topk)
        self.metadata = dict(metadata or {})

    # ------------------------------------------------------------------
    @property
    def num_users(self) -> int:
        return self.user_vectors.shape[0]

    @property
    def num_items(self) -> int:
        return self.item_vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.item_vectors.shape[1]

    @property
    def modalities(self) -> tuple:
        return tuple(self.features.keys())

    def warm_items(self) -> np.ndarray:
        return np.flatnonzero(~self.is_cold)

    def cold_items(self) -> np.ndarray:
        return np.flatnonzero(self.is_cold)

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, model, dataset, metadata: dict | None = None
                   ) -> "EmbeddingStore":
        """Snapshot a trained recommender on its dataset.

        Works for any :class:`repro.baselines.base.Recommender`; the item
        matrix already contains the model's strict cold-start expansions
        (that is the base-class contract).
        """
        config = getattr(model, "config", None)
        item_topk = getattr(config, "item_item_topk", DEFAULT_ITEM_TOPK)
        header = {
            "model": getattr(model, "name", type(model).__name__),
            "dataset": dataset.name,
        }
        header.update(metadata or {})
        return cls(
            user_vectors=model.user_matrix(),
            item_vectors=model.item_matrix(),
            seen=interactions_to_csr(dataset.split.train, model.num_users,
                                     model.num_items),
            features=dataset.features,
            is_cold=dataset.split.is_cold,
            item_topk=item_topk,
            metadata=header,
        )

    # ------------------------------------------------------------------
    def ingest_items(self, features: dict,
                     top_k: int | None = None) -> np.ndarray:
        """Onboard brand-new items online; see
        :func:`repro.serve.onboarding.ingest_items`."""
        from .onboarding import ingest_items
        return ingest_items(self, features, top_k=top_k)

    # ------------------------------------------------------------------
    def save(self, path: str | Path, format: str = "v2") -> Path:
        """Write the snapshot as an array directory (one raw ``.npy``
        per array, manifest last, published atomically); returns the
        path.  ``format`` accepts only ``"v2"``, the one format."""
        if format != "v2":
            raise ValueError(f"unknown store format {format!r}; "
                             "only 'v2' is written")
        arrays = {
            "user_vectors": self.user_vectors,
            "item_vectors": self.item_vectors,
            "is_cold": self.is_cold,
            "is_ingested": self.is_ingested,
            "seen.indptr": self.seen.indptr,
            "seen.indices": self.seen.indices,
            **{f"features.{m}": feats for m, feats in self.features.items()},
        }
        with ArrayDirWriter(path, seam="store.v2.write") as writer:
            for name, array in arrays.items():
                writer.add_array(name, array)
            return writer.commit({
                "version": FORMAT_VERSION,
                "item_topk": self.item_topk,
                "modalities": list(self.modalities),
                "metadata": self.metadata,
            })

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "EmbeddingStore":
        """Reconstruct a snapshot written by :meth:`save`.

        ``mmap=True`` memory-maps the user/item/feature matrices
        read-only instead of copying them into RAM —
        :class:`EmbeddingStore`'s contiguous-``float32`` coercion is a
        no-op on the already-contiguous raw arrays, so the store serves
        straight off the page cache.  A missing path raises
        :class:`FileNotFoundError`; anything else that is not a whole
        store raises :class:`CorruptStoreError` naming it.
        """
        path = Path(path)
        fire("store.read", path=path)
        if not path.exists():
            raise FileNotFoundError(f"no store at {path}")
        header = read_manifest(path, CorruptStoreError)
        check_fields(header, _HEADER_KINDS, path, CorruptStoreError)
        if header["version"] != FORMAT_VERSION:
            raise ValueError(f"unsupported store version "
                             f"{header['version']}")

        def read(name: str, mapped: bool = False) -> np.ndarray:
            # Only the big matrices are mapped; flags and CSR index
            # arrays are small and scipy would copy them anyway.
            return read_array(path, name, CorruptStoreError,
                              mmap=mmap and mapped)

        user_vectors = read("user_vectors", True)
        item_vectors = read("item_vectors", True)
        indices, indptr = read("seen.indices"), read("seen.indptr")
        features = {m: read(f"features.{m}", True)
                    for m in header["modalities"]}
        is_cold, is_ingested = read("is_cold"), read("is_ingested")
        try:
            seen = sp.csr_matrix(
                (np.ones(indices.size, dtype=bool), indices, indptr),
                shape=(user_vectors.shape[0], item_vectors.shape[0]))
            return cls(user_vectors=user_vectors,
                       item_vectors=item_vectors, seen=seen,
                       features=features, is_cold=is_cold,
                       is_ingested=is_ingested,
                       item_topk=header["item_topk"],
                       metadata=header["metadata"])
        except (ValueError, IndexError) as exc:
            # IndexError: a 0-d vector array has no shape[0]
            raise CorruptStoreError(
                f"store {path} has inconsistent arrays ({exc})") from exc

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Summary row used by ``python -m repro serve``'s ``stats``."""
        return {
            "users": self.num_users,
            "items": self.num_items,
            "dim": self.dim,
            "warm items": int((~self.is_cold).sum()),
            "cold items": int(self.is_cold.sum()),
            "ingested items": int(self.is_ingested.sum()),
            "modalities": ",".join(self.modalities) or "-",
            "item kNN top-k": self.item_topk,
            "model": self.metadata.get("model", "?"),
            "dataset": self.metadata.get("dataset", "?"),
        }
