"""Content-addressed on-disk artifact store.

Layout: ``<root>/<stage>/<key>/`` holds the files of one committed
artifact plus its ``meta.json``. Commits are atomic — files are staged
into a sibling temp directory and ``os.replace``-d into place — so a
killed run never leaves a half-written artifact behind; at worst it
leaves an uncommitted temp directory that the next commit sweeps.

Every commit also records a SHA-256 per artifact file in
``.hashes.json``, and every read re-verifies them: an artifact whose bytes
no longer match (bit rot, a torn write that slipped past the rename, a
truncated copy) is **quarantined** — moved aside to
``<key>.quarantine-N`` — and the read reports a miss, so the runner
recomputes the stage instead of crashing on (or silently trusting) a
poisoned cache entry. Fault-injection seams (``artifact.read``,
``artifact.commit`` — see :mod:`repro.reliability`) let the chaos suite
script exactly these failures.

Stage names used by the runner: ``dataset`` (built benchmark archive),
``train`` (trained checkpoint + training record; an adjacent
``<key>.partial/`` directory holds the in-progress epoch snapshot a
killed training run resumes from), ``eval`` (metric artifacts).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from pathlib import Path

from ..reliability import fire, is_injected_crash

#: environment variable selecting the store root (CI caches this dir)
ROOT_ENV = "REPRO_ARTIFACTS"
DEFAULT_ROOT = ".artifacts"
META = "meta.json"
#: sibling file holding the per-file SHA-256 map (relative path -> hex);
#: written at commit time, checked on every verified read
HASHES = ".hashes.json"


def default_store() -> "ArtifactStore":
    return ArtifactStore(os.environ.get(ROOT_ENV, DEFAULT_ROOT))


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_tree(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 for every file except the metadata and
    the digest file itself."""
    return {
        str(path.relative_to(root)): _file_sha256(path)
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name not in (META, HASHES)
    }


class ArtifactStore:
    """Filesystem-backed content-addressed artifact directory."""

    def __init__(self, root: str | Path, verify_reads: bool = True):
        self.root = Path(root)
        #: re-hash artifact files against .hashes.json on every read;
        #: mismatches are quarantined (set False to trust the disk)
        self.verify_reads = verify_reads
        #: (stage, key, quarantine_path) of every entry this instance
        #: moved aside — surfaced by the runner's stats and the chaos
        #: smoke
        self.quarantined: list[tuple[str, str, Path]] = []

    # -- lookup ----------------------------------------------------------
    def dir_of(self, stage: str, key: str) -> Path:
        return self.root / stage / key

    def get(self, stage: str, key: str, verify: bool | None = None
            ) -> Path | None:
        """Committed artifact directory, or None.

        With verification on (the default), the artifact's files are
        re-hashed against the digests recorded at commit time; on any
        mismatch — or an unreadable ``meta.json`` — the entry is
        quarantined and the lookup reports a miss, so callers recompute
        rather than consume a corrupt artifact.
        """
        path = self.dir_of(stage, key)
        meta_path = path / META
        if not meta_path.exists():
            return None
        fire("artifact.read", path=path)
        verify = self.verify_reads if verify is None else verify
        if not verify:
            return path
        hashes_path = path / HASHES
        if not hashes_path.exists():
            # Pre-hash artifacts (or hand-built fixtures) carry no
            # digests; they are served as-is.
            return path
        try:
            expected = json.loads(hashes_path.read_text())
            if _hash_tree(path) != expected:
                raise ValueError("content hash mismatch")
        except (ValueError, OSError):
            self.quarantine(stage, key)
            return None
        return path

    # -- commit ----------------------------------------------------------
    def stage_dir(self, stage: str, key: str) -> Path:
        """A private temp directory to assemble an artifact in; pass it
        to :meth:`commit` when complete."""
        parent = self.root / stage
        parent.mkdir(parents=True, exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{key}.tmp-", dir=parent))

    def commit(self, stage: str, key: str, staged: Path,
               meta: dict, overwrite: bool = False) -> Path:
        """Atomically publish a staged directory as ``<stage>/<key>``.

        A SHA-256 per staged file is recorded in ``.hashes.json`` (what
        read-time verification checks), then ``meta.json`` is written
        last and the whole directory is renamed into place. If a
        concurrent process committed the same key first, the staged copy
        is discarded and the existing artifact wins (content-addressed
        keys make the two interchangeable) — unless ``overwrite`` forces
        replacement.
        """
        staged = Path(staged)
        (staged / HASHES).write_text(json.dumps(
            _hash_tree(staged), indent=2, sort_keys=True) + "\n")
        (staged / META).write_text(json.dumps(meta, indent=2,
                                              sort_keys=True) + "\n")
        # Injection seam: a "crash" here is a kill between assembling
        # the artifact and publishing it — the staged dir survives (as
        # with a real kill) and no half-commit is ever visible.
        try:
            fire("artifact.commit", path=staged)
        except BaseException as exc:
            if not is_injected_crash(exc):
                shutil.rmtree(staged, ignore_errors=True)
            raise
        final = self.dir_of(stage, key)
        if overwrite:
            shutil.rmtree(final, ignore_errors=True)
        try:
            os.replace(staged, final)
        except OSError:
            if (final / META).exists():
                shutil.rmtree(staged, ignore_errors=True)
            else:
                raise
        return final

    def put_json(self, stage: str, key: str, payload: dict,
                 meta: dict | None = None,
                 overwrite: bool = False) -> Path:
        """Commit a small JSON artifact (the eval stage)."""
        staged = self.stage_dir(stage, key)
        (staged / "artifact.json").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return self.commit(stage, key, staged, meta or {}, overwrite)

    def get_json(self, stage: str, key: str) -> dict | None:
        path = self.get(stage, key)
        if path is None:
            return None
        try:
            return json.loads((path / "artifact.json").read_text())
        except (json.JSONDecodeError, OSError):
            # Hash-verified reads only land here for pre-hash
            # artifacts; quarantine keeps the degraded path uniform.
            self.quarantine(stage, key)
            return None

    # -- quarantine -------------------------------------------------------
    def quarantine(self, stage: str, key: str) -> Path | None:
        """Move a damaged artifact aside (never delete evidence) and
        record it; returns the quarantine path."""
        source = self.dir_of(stage, key)
        if not source.exists():
            return None
        n = 0
        while True:
            target = self.root / stage / f"{key}.quarantine-{n}"
            if not target.exists():
                break
            n += 1
        os.replace(source, target)
        self.quarantined.append((stage, key, target))
        return target

    # -- in-progress training state --------------------------------------
    def partial_dir(self, stage: str, key: str) -> Path:
        """Directory for resumable in-progress state (not a committed
        artifact; removed when the real artifact commits)."""
        path = self.root / stage / f"{key}.partial"
        path.mkdir(parents=True, exist_ok=True)
        return path

    def clear_partial(self, stage: str, key: str) -> None:
        shutil.rmtree(self.root / stage / f"{key}.partial",
                      ignore_errors=True)

    # -- maintenance ------------------------------------------------------
    def entries(self, stage: str) -> list[str]:
        parent = self.root / stage
        if not parent.is_dir():
            return []
        return sorted(p.name for p in parent.iterdir()
                      if (p / META).exists()
                      and ".quarantine-" not in p.name
                      and ".tmp-" not in p.name)

    def remove(self, stage: str, key: str) -> None:
        shutil.rmtree(self.dir_of(stage, key), ignore_errors=True)
        self.clear_partial(stage, key)
