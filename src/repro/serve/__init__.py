"""Batched inference serving: snapshot, rank, swap, and onboard online.

The layers (see ``docs/ARCHITECTURE.md``):

* :class:`EmbeddingStore` — a trained model's final user/item
  representations (cold-item expansions included) as contiguous
  ``float32`` arrays; persisted as an mmap-able raw-array directory
  (``load(mmap=True)`` is zero-copy);
* :class:`BatchRanker` — blocked-matmul top-k for batches of users with
  vectorized seen-item masking; the evaluation protocol reuses its
  ranking kernels, so the table harnesses share this hot path;
* :class:`SnapshotManager` — atomic hot-swap of published
  (store, ranker) snapshot versions under live queries;
* :class:`MicroBatcher` / :class:`ServingDaemon` — request coalescing
  and the stdlib-HTTP JSON front end behind ``repro serve --daemon``;
* :func:`ingest_items` — online cold-start onboarding: brand-new items
  with modality features extend the frozen item-item kNN graphs
  incrementally (eq. 34-35 direction: warm -> new only) and become
  rankable without retraining.

``python -m repro serve`` and ``python -m repro export-embeddings``
expose the stack on the command line via :class:`ServingSession`.
"""

from .daemon import (DeadlineExceededError, LoadShedError, MicroBatcher,
                     ServingDaemon)
from .onboarding import GraphExpansion, expand_item_graph, ingest_items
from .ranker import (BatchRanker, TopKResult, apply_seen_mask,
                     interactions_to_csr, topk_from_scores)
from .session import ServingSession
from .snapshot import Snapshot, SnapshotManager
from .store import CorruptStoreError, EmbeddingStore

__all__ = [
    "BatchRanker",
    "CorruptStoreError",
    "DeadlineExceededError",
    "EmbeddingStore",
    "GraphExpansion",
    "LoadShedError",
    "MicroBatcher",
    "ServingDaemon",
    "ServingSession",
    "Snapshot",
    "SnapshotManager",
    "TopKResult",
    "apply_seen_mask",
    "expand_item_graph",
    "ingest_items",
    "interactions_to_csr",
    "topk_from_scores",
]
