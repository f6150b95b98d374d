"""Array directories: the one on-disk format of datasets and serving stores.

An array directory holds one raw ``.npy`` file per array plus a
``manifest.json`` (a JSON object) written last.  :class:`ArrayDirWriter`
stages the directory in a ``<name>.tmp-<pid>`` sibling and publishes it
with one ``os.replace``, so a reader sees no directory or a complete
one, and a directory without a manifest is recognizably a torn write.
Arrays load whole or memory-mapped read-only, which is what lets
million-item stores and datasets open without resident copies.

Each artifact keeps its own fault seam and error type: the writer fires
the seam it is given between the arrays and the manifest, and the
readers raise the error class they are given, naming the path.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

import numpy as np

from ..reliability import fire, is_injected_crash

#: the directory's commit marker, written last
MANIFEST_NAME = "manifest.json"

_KIND_NAMES = {int: "an integer", str: "a string", dict: "a JSON object",
               list: "a list of strings"}


class ArrayDirWriter:
    """Stage an array directory and publish it atomically.

    Use as a context manager: add arrays whole (:meth:`add_array`) or
    stream them into :meth:`array_path`, then :meth:`commit`.  Leaving
    the block on an error removes the staged directory; an injected
    crash leaves it on disk, the way a real kill would.
    """

    def __init__(self, path: str | Path, seam: str):
        self.path = Path(path)
        if self.path.suffix == ".npz":
            raise ValueError(f"{self.path}: an array directory is not a "
                             ".npz archive; drop the suffix")
        self.seam = seam
        self.names: list[str] = []
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.staged = self.path.with_name(
            f"{self.path.name}.tmp-{os.getpid()}")
        shutil.rmtree(self.staged, ignore_errors=True)
        self.staged.mkdir()

    def __enter__(self) -> "ArrayDirWriter":
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if exc is not None and not is_injected_crash(exc):
            shutil.rmtree(self.staged, ignore_errors=True)

    def array_path(self, name: str) -> Path:
        """Staged file of array ``name``, for stream writers."""
        self.names.append(name)
        return self.staged / f"{name}.npy"

    def add_array(self, name: str, array: np.ndarray) -> None:
        np.save(self.array_path(name), np.asarray(array),
                allow_pickle=False)

    def commit(self, manifest: dict) -> Path:
        """Write ``manifest`` and publish, replacing any directory
        already at the path; returns the path."""
        # Injection seam: a "crash" here is a kill after the arrays but
        # before the manifest.
        fire(self.seam, path=self.staged)
        (self.staged / MANIFEST_NAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        if self.path.exists():
            shutil.rmtree(self.path)
        os.replace(self.staged, self.path)
        return self.path


def read_manifest(path: Path, error: type[Exception]) -> dict:
    """The manifest of the array directory ``path``.

    A file in its place (such as a ``.npz`` archive of an older
    release), a missing or unreadable manifest, or one that is not a
    JSON object raises ``error`` naming ``path``.
    """
    if path.is_file():
        raise error(f"{path} is a file, not an array directory; a .npz "
                    "archive of an older release must be re-exported")
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_text())
    except FileNotFoundError as exc:
        raise error(f"{path} has no {MANIFEST_NAME}: not an array "
                    "directory (or a torn write)") from exc
    except ValueError as exc:
        raise error(f"{path} has an unreadable {MANIFEST_NAME} "
                    f"({exc})") from exc
    if not isinstance(manifest, dict):
        raise error(f"{path} has a {MANIFEST_NAME} that is not a JSON "
                    "object")
    return manifest


def check_fields(manifest: dict, kinds: dict, path: Path,
                 error: type[Exception], prefix: str = "") -> None:
    """Raise ``error`` naming ``path`` unless ``manifest`` has every key
    of ``kinds`` with a value of its kind: ``int`` (not ``bool``),
    ``str``, ``dict``, ``list`` (of strings), or a nested ``kinds``
    dict for a JSON object checked the same way."""
    for key, kind in kinds.items():
        if key not in manifest:
            raise error(f"{path} has a {MANIFEST_NAME} without "
                        f"{prefix}{key}")
        value = manifest[key]
        expected = dict if isinstance(kind, dict) else kind
        valid = isinstance(value, expected) and not isinstance(value, bool)
        if valid and expected is list:
            valid = all(isinstance(item, str) for item in value)
        if not valid:
            raise error(f"{path} has a {MANIFEST_NAME} whose {prefix}{key} "
                        f"is not {_KIND_NAMES[expected]}: {value!r:.60}")
        if isinstance(kind, dict):
            check_fields(value, kind, path, error, f"{prefix}{key}.")


def read_array(path: Path, name: str, error: type[Exception],
               mmap: bool = False) -> np.ndarray:
    """Array ``name`` of the directory ``path``, memory-mapped read-only
    when ``mmap``; ``error`` naming the file if it is missing or
    damaged."""
    file = path / f"{name}.npy"
    try:
        return np.load(file, mmap_mode="r" if mmap else None,
                       allow_pickle=False)
    except (FileNotFoundError, EOFError, ValueError) as exc:
        raise error(f"{file} is missing or damaged ({exc})") from exc
