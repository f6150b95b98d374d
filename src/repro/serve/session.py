"""Query-session logic behind ``python -m repro serve``.

A :class:`ServingSession` owns a
:class:`~repro.serve.snapshot.SnapshotManager` (seeded with one
:class:`~repro.serve.store.EmbeddingStore`) and executes one textual
query at a time — the same engine backs the interactive REPL and the
file-driven batch mode, which keeps it testable without a TTY.  The
daemon mode (``repro serve --daemon``) shares the snapshot manager but
speaks HTTP via :class:`repro.serve.daemon.ServingDaemon` instead.

Query language (one query per line)::

    topk <user> [k]          top-k over all items (seen items masked)
    batch <u1,u2,...> [k]    one result line per user
    cold <user> [k]          restrict candidates to cold/ingested items
    ingest <features.npz>    onboard new items (one array per modality)
    swap <store> [mmap]      hot-swap to a saved store directory
    stats                    store summary
    help                     this text
    quit                     end the session
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from .ranker import BatchRanker
from .snapshot import SnapshotManager
from .store import EmbeddingStore

HELP_TEXT = """commands:
  topk <user> [k]          top-k items for one user (seen items masked)
  batch <u1,u2,...> [k]    top-k for several users, one line each
  cold <user> [k]          top-k among cold/ingested items only
  ingest <features.npz>    onboard new items; archive holds one array
                           per modality, shaped (num_new, feature_dim)
  swap <store> [mmap]      hot-swap to a saved store snapshot
  stats                    store summary
  help                     show this text
  quit                     end the session"""


class ServingSession:
    """Stateful batch-query session over published store snapshots."""

    def __init__(self, store: EmbeddingStore, default_k: int = 20,
                 block_size: int = 1024):
        self.manager = SnapshotManager(store, block_size=block_size)
        self.default_k = int(default_k)
        self.block_size = int(block_size)

    @property
    def store(self) -> EmbeddingStore:
        return self.manager.current.store

    @property
    def ranker(self) -> BatchRanker:
        return self.manager.current.ranker

    # ------------------------------------------------------------------
    def execute(self, line: str) -> str | None:
        """Run one query; returns the output text, or ``None`` on quit.

        Errors (bad syntax, unknown users, missing files) are reported as
        ``error: ...`` strings rather than raised, so a bad line in a
        query file doesn't kill the session.
        """
        parts = line.strip().split()
        if not parts or parts[0].startswith("#"):
            return ""
        command, args = parts[0].lower(), parts[1:]
        if command in ("quit", "exit"):
            return None
        try:
            if command == "help":
                return HELP_TEXT
            if command == "stats":
                return "\n".join(f"{key}: {value}" for key, value
                                 in self.manager.describe().items())
            if command in ("topk", "batch"):
                return self._topk(args, candidates=None)
            if command == "cold":
                return self._topk(args, candidates=self.store.cold_items())
            if command == "ingest":
                return self._ingest(args)
            if command == "swap":
                return self._swap(args)
            return f"error: unknown command {command!r} (try 'help')"
        except (ValueError, IndexError, OSError,
                zipfile.BadZipFile) as exc:
            return f"error: {exc}"

    # ------------------------------------------------------------------
    def _parse_users(self, spec: str) -> np.ndarray:
        users = np.asarray([int(u) for u in spec.split(",") if u],
                           dtype=np.int64)
        if len(users) == 0:
            raise ValueError("no user ids given")
        bad = users[(users < 0) | (users >= self.store.num_users)]
        if len(bad):
            raise ValueError(
                f"unknown user id(s) {bad.tolist()}; store has "
                f"{self.store.num_users} users")
        return users

    def _format_row(self, user: int, items: np.ndarray,
                    scores: np.ndarray) -> str:
        cells = " ".join(f"{int(item)}:{score:.4f}"
                         for item, score in zip(items, scores))
        return f"user {user} -> {cells}" if cells else \
            f"user {user} -> (no candidates)"

    def _topk(self, args: list, candidates: np.ndarray | None) -> str:
        if not args:
            raise ValueError("usage: topk|batch|cold <u1,u2,...> [k]")
        users = self._parse_users(args[0])
        k = int(args[1]) if len(args) > 1 else self.default_k
        result = self.ranker.topk(users, k, candidates=candidates)
        return "\n".join(
            self._format_row(int(user), result.items[row],
                             result.scores[row])
            for row, user in enumerate(users))

    def _ingest(self, args: list) -> str:
        if len(args) != 1:
            raise ValueError("usage: ingest <features.npz>")
        path = Path(args[0])
        with np.load(path, allow_pickle=False) as archive:
            features = {name: archive[name] for name in archive.files}
        new_ids, _ = self.manager.ingest(features)
        return (f"ingested {len(new_ids)} item(s): "
                f"{new_ids.tolist()} (cold; rankable immediately)")

    def _swap(self, args: list) -> str:
        if not args or len(args) > 2 or \
                (len(args) == 2 and args[1] != "mmap"):
            raise ValueError("usage: swap <store path> [mmap]")
        snapshot = self.manager.swap_from_path(
            args[0], mmap=len(args) == 2)
        store = snapshot.store
        return (f"swapped to snapshot v{snapshot.version} "
                f"({store.num_users} users, {store.num_items} items, "
                f"model {store.metadata.get('model', '?')})")
