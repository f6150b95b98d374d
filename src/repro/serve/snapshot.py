"""Atomic snapshot publication: hot-swap stores under live queries.

A :class:`Snapshot` is an immutable (version, store, ranker) triple; the
:class:`SnapshotManager` publishes one at a time.  Readers grab the
whole triple with a single :attr:`SnapshotManager.current` read and keep
using it for the duration of their query, so a concurrent
:meth:`~SnapshotManager.swap` can never hand them a torn mix of old
vectors and new ranker — in-flight queries finish on the snapshot they
started with (the reference pins it alive), new queries see the new one.
Writers (:meth:`~SnapshotManager.swap`, :meth:`~SnapshotManager.ingest`)
serialize on one writer lock; readers never take it, so readers never
block on a swap and swaps never block on readers.  An ingest grows a
*new* store and publishes it, so no published store changes under its
readers and concurrent ingests get unique, contiguous item ids.
"""

from __future__ import annotations

import copy
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ranker import BatchRanker
from .store import EmbeddingStore


@dataclass(frozen=True)
class Snapshot:
    """One published store version and the ranker serving it.

    Immutable by contract: a swap builds a whole new snapshot rather
    than mutating this one, which is what lets readers hold it without
    locking.
    """

    version: int
    store: EmbeddingStore
    ranker: BatchRanker
    source: str = ""


class SnapshotManager:
    """Publishes :class:`Snapshot` versions with atomic hot-swap.

    Parameters
    ----------
    store:
        Optional initial store; published as version 1.
    block_size:
        User-block size passed through to the rankers.
    """

    def __init__(self, store: EmbeddingStore | None = None, *,
                 block_size: int = 256):
        self.block_size = int(block_size)
        # reentrant: ingest publishes through swap while holding it
        self._writer = threading.RLock()
        self._current: Snapshot | None = None
        if store is not None:
            self.swap(store, source="<initial>")

    # ------------------------------------------------------------------
    @property
    def current(self) -> Snapshot:
        """The published snapshot (one atomic reference read)."""
        snapshot = self._current
        if snapshot is None:
            raise RuntimeError("no snapshot published yet")
        return snapshot

    @property
    def version(self) -> int:
        return self.current.version

    # ------------------------------------------------------------------
    def swap(self, store: EmbeddingStore, source: str = "") -> Snapshot:
        """Build and publish a new snapshot; returns it.

        The snapshot is complete before the one reference assignment
        that publishes it, so concurrent readers never observe a
        partially-initialized snapshot.
        """
        with self._writer:
            ranker = BatchRanker.from_store(store,
                                            block_size=self.block_size)
            version = 1 if self._current is None \
                else self._current.version + 1
            snapshot = Snapshot(version=version, store=store, ranker=ranker,
                                source=source)
            self._current = snapshot
        return snapshot

    def ingest(self, features: dict) -> tuple[np.ndarray, Snapshot]:
        """Onboard brand-new items and publish them; returns the ids
        assigned to them and the snapshot that serves them.

        The current store is never grown: a new store over its arrays
        (its own ``features`` dict, no array copies) takes the new items
        via :meth:`EmbeddingStore.ingest_items`, which replaces arrays
        rather than writing into them, and is published through
        :meth:`swap` — all under the writer lock.
        """
        with self._writer:
            store = copy.copy(self.current.store)
            store.features = dict(store.features)
            new_ids = store.ingest_items(features)
            return new_ids, self.swap(store, source="<ingest>")

    def swap_from_path(self, path: str | Path,
                       mmap: bool = False) -> Snapshot:
        """Load a saved store (optionally mmap'd) and publish it."""
        path = Path(path)
        store = EmbeddingStore.load(path, mmap=mmap)
        return self.swap(store, source=str(path))

    # ------------------------------------------------------------------
    def describe(self) -> dict:
        snapshot = self.current
        info = {"snapshot version": snapshot.version}
        if snapshot.source:
            info["source"] = snapshot.source
        info.update(snapshot.store.describe())
        return info
