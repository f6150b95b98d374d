"""Embedding snapshots: the serving layer's persistent model artifact.

An :class:`EmbeddingStore` captures everything inference needs from a
trained model — final user/item representation matrices (including the
frozen-graph expansions for strict cold-start items), the training
interactions used for seen-item masking, the raw per-item modality
features, and the kNN budget of the frozen item-item graphs — as
contiguous ``float32`` arrays.  Two on-disk formats: v1, a compressed
single-file ``.npz``; and v2, an uncompressed directory of raw ``.npy``
arrays plus a JSON manifest that ``load(mmap=True)`` maps zero-copy
straight off the page cache.

Unlike a training checkpoint (:mod:`repro.train.checkpoint`), which
stores *parameters* and rebuilds graphs from the dataset, a store holds
the *outputs* of the forward pass: it can answer queries without the
model, the dataset generator, or the autograd stack, and it is what the
online onboarding API (:func:`repro.serve.ingest_items`) extends when
brand-new items arrive after training.
"""

from __future__ import annotations

import json
import os
import shutil
import zipfile
import zlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from ..reliability import fire, is_injected_crash
from .ranker import interactions_to_csr

HEADER_KEY = "__store_header__"
FORMAT_VERSION = 1
V2_FORMAT_VERSION = 2
MANIFEST_NAME = "manifest.json"
DEFAULT_ITEM_TOPK = 10


class CorruptStoreError(ValueError):
    """A store archive is truncated, torn, or otherwise unreadable.

    Raised by :meth:`EmbeddingStore.load` with the offending path in
    the message instead of letting a raw ``zipfile.BadZipFile`` (v1) or
    a missing-file ``OSError`` (v2) propagate — callers (the serving
    CLI, ``POST /swap``, the chaos harness) get one exception type that
    means "this snapshot is damaged; do not serve it".
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
    # persistence
    # ------------------------------------------------------------------
    def _header(self, version: int) -> dict:
        return {
            "version": version,
            "item_topk": self.item_topk,
            "modalities": list(self.modalities),
            "metadata": self.metadata,
        }

    def _arrays(self) -> dict:
        arrays = {
            "user_vectors": self.user_vectors,
            "item_vectors": self.item_vectors,
            "is_cold": self.is_cold,
            "is_ingested": self.is_ingested,
            "seen.indptr": self.seen.indptr,
            "seen.indices": self.seen.indices,
        }
        for modality, feats in self.features.items():
            arrays[f"features.{modality}"] = feats
        return arrays

    def save(self, path: str | Path, format: str = "v1") -> Path:
        """Write the snapshot; returns the path actually written.

        ``format="v1"`` writes the compressed single-file ``.npz``
        archive (``np.savez`` appends ``.npz`` to extensionless paths,
        so normalize up front).  ``format="v2"`` writes the mmap-able
        directory layout: one raw ``.npy`` per array plus a JSON
        manifest, staged into a sibling temp directory and published
        with ``os.replace`` so readers never observe a half-written
        snapshot.
        """
        if format == "v2":
            return self._save_v2(Path(path))
        if format != "v1":
            raise ValueError(f"unknown store format {format!r}; "
                             "expected 'v1' or 'v2'")
        path = Path(path)
        if path.suffix != ".npz":
            path = Path(f"{path}.npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = self._arrays()
        arrays[HEADER_KEY] = np.frombuffer(
            json.dumps(self._header(FORMAT_VERSION)).encode("utf-8"),
            dtype=np.uint8)
        np.savez_compressed(path, **arrays)
        # Injection seam: a "torn" fault here truncates the archive and
        # simulates the kill that real v1 writes (plain np.savez, no
        # atomic rename) are exposed to.
        fire("store.v1.write", path=path)
        return path

    def _save_v2(self, path: Path) -> Path:
        if path.suffix == ".npz":
            raise ValueError("format v2 writes a directory, not a .npz; "
                             "drop the suffix")
        path.parent.mkdir(parents=True, exist_ok=True)
        staged = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        if staged.exists():
            shutil.rmtree(staged)
        staged.mkdir()
        try:
            for name, array in self._arrays().items():
                np.save(staged / f"{name}.npy", array)
            # Injection seam: a "crash" fault here is a kill after the
            # arrays but before the manifest — the staged directory must
            # survive (as a real kill would leave it) and be rejected by
            # load() as a torn write.
            fire("store.v2.write", path=staged)
            # Manifest last: a directory without one is recognizably
            # incomplete, never silently loaded.
            (staged / MANIFEST_NAME).write_text(
                json.dumps(self._header(V2_FORMAT_VERSION), indent=2))
            if path.exists():
                shutil.rmtree(path)
            os.replace(staged, path)
        except BaseException as exc:
            # A simulated kill leaves the torn staged dir on disk, the
            # way a real SIGKILL would; ordinary errors clean up.
            if not is_injected_crash(exc):
                shutil.rmtree(staged, ignore_errors=True)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "EmbeddingStore":
        """Reconstruct a snapshot written by :meth:`save`.

        Detects the format from the path: a directory is format v2, a
        file is the v1 ``.npz``.  ``mmap=True`` (v2 only) memory-maps
        the user/item/feature matrices read-only instead of copying them
        into RAM — :class:`EmbeddingStore`'s contiguous-``float32``
        coercion is a no-op on the already-contiguous raw arrays, so the
        store serves straight off the page cache.
        """
        path = Path(path)
        fire("store.read", path=path)
        if path.is_dir():
            return cls._load_v2(path, mmap=mmap)
        if mmap:
            raise ValueError(
                "format v1 archives are compressed and cannot be "
                "memory-mapped; re-export with save(format='v2')")
        # A truncated/torn v1 archive surfaces as BadZipFile (damaged
        # central directory), EOFError/zlib.error (truncated member),
        # or KeyError (member missing entirely) depending on where the
        # write died, and a file that is no archive at all as numpy's
        # pickle refusal (ValueError, naming no path) or a lone array —
        # all of them mean the same thing to a caller.
        try:
            archive_cm = np.load(path, allow_pickle=False)
        except (zipfile.BadZipFile, EOFError, OSError, ValueError) as exc:
            if isinstance(exc, FileNotFoundError):
                raise
            raise CorruptStoreError(
                f"store archive {path} is corrupt or truncated "
                f"({exc})") from exc
        if not isinstance(archive_cm, np.lib.npyio.NpzFile):
            raise CorruptStoreError(f"{path} is a single array, not a "
                                    "store archive")
        with archive_cm as archive:
            try:
                header = json.loads(
                    archive[HEADER_KEY].tobytes().decode("utf-8"))
                if header["version"] != FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported store version {header['version']}")
                user_vectors = archive["user_vectors"]
                item_vectors = archive["item_vectors"]
                indices = archive["seen.indices"]
                seen = sp.csr_matrix(
                    (np.ones(len(indices), dtype=bool), indices,
                     archive["seen.indptr"]),
                    shape=(user_vectors.shape[0], item_vectors.shape[0]))
                return cls(
                    user_vectors=user_vectors,
                    item_vectors=item_vectors,
                    seen=seen,
                    features={m: archive[f"features.{m}"]
                              for m in header["modalities"]},
                    is_cold=archive["is_cold"],
                    is_ingested=archive["is_ingested"],
                    item_topk=header["item_topk"],
                    metadata=header["metadata"],
                )
            except (zipfile.BadZipFile, EOFError, KeyError,
                    zlib.error, json.JSONDecodeError) as exc:
                raise CorruptStoreError(
                    f"store archive {path} is corrupt or truncated "
                    f"({exc})") from exc

    @classmethod
    def _load_v2(cls, path: Path, mmap: bool = False) -> "EmbeddingStore":
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.is_file():
            raise CorruptStoreError(
                f"{path} has no {MANIFEST_NAME}: not a format v2 store "
                "(or a torn write)")
        try:
            header = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise CorruptStoreError(
                f"store {path} has an unreadable {MANIFEST_NAME} "
                f"({exc})") from exc
        if header["version"] != V2_FORMAT_VERSION:
            raise ValueError(f"unsupported store version "
                             f"{header['version']}")

        def read(name: str, mapped: bool) -> np.ndarray:
            # Only the big matrices are mapped; flags and CSR index
            # arrays are small and scipy would copy them anyway.
            mode = "r" if (mmap and mapped) else None
            try:
                return np.load(path / f"{name}.npy", mmap_mode=mode,
                               allow_pickle=False)
            except (FileNotFoundError, EOFError, ValueError) as exc:
                raise CorruptStoreError(
                    f"store {path} is missing or has a damaged "
                    f"{name}.npy ({exc})") from exc

        user_vectors = read("user_vectors", True)
        item_vectors = read("item_vectors", True)
        indices = read("seen.indices", False)
        seen = sp.csr_matrix(
            (np.ones(len(indices), dtype=bool), indices,
             read("seen.indptr", False)),
            shape=(user_vectors.shape[0], item_vectors.shape[0]))
        return cls(
            user_vectors=user_vectors,
            item_vectors=item_vectors,
            seen=seen,
            features={m: read(f"features.{m}", True)
                      for m in header["modalities"]},
            is_cold=read("is_cold", False),
            is_ingested=read("is_ingested", False),
            item_topk=header["item_topk"],
            metadata=header["metadata"],
        )

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
