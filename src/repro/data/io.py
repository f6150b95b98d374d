"""Dataset serialization: one array directory per dataset.

Synthetic benchmarks are cheap to regenerate, but pinning the exact
arrays to disk makes experiments auditable and lets external tools (or a
different machine) consume the same benchmark bytes.

A dataset is an array directory (:mod:`repro.utils.arraydir`): raw
``.npy`` arrays plus a ``manifest.json`` written last and published
with one atomic rename, so a torn build never publishes and a published
directory is always complete.  Arrays load ``mmap_mode="r"`` on
request, which is what lets million-scale datasets open without
resident copies.  The streamed builder (:mod:`repro.data.scale`)
streams its arrays straight into a :class:`DatasetDirWriter`'s staged
directory, so big arrays are written exactly once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from ..utils.arraydir import (ArrayDirWriter, check_fields, read_array,
                              read_manifest)
from .datasets import RecDataset
from .kg_builder import KnowledgeGraph
from .splits import ColdStartSplit

_SPLIT_FIELDS = ("warm_items", "cold_items", "train", "warm_val",
                 "warm_test", "cold_val", "cold_test", "cold_val_known",
                 "cold_val_unknown", "cold_test_known", "cold_test_unknown")

#: the manifest's ``format``; folded into the runner's dataset content
#: address, so a change of layout never reads an older cache entry
DATASET_FORMAT = 2

#: manifest key -> the kind of value :func:`load_dataset` reads
_MANIFEST_KINDS = {
    "name": str, "num_users": int, "num_items": int, "modalities": list,
    "arrays": list,
    "kg": {"num_entities": int, "num_relations": int, "num_items": int,
           "relation_names": list},
}


class CorruptDatasetError(ValueError):
    """A dataset directory is missing, torn, or damaged."""


def _dataset_header(dataset: RecDataset) -> dict:
    return {
        "name": dataset.name,
        "num_users": dataset.num_users,
        "num_items": dataset.num_items,
        "modalities": list(dataset.modalities),
        "kg": {
            "num_entities": dataset.kg.num_entities,
            "num_relations": dataset.kg.num_relations,
            "num_items": dataset.kg.num_items,
            "relation_names": list(dataset.kg.relation_names),
        },
    }


def _dataset_arrays(dataset: RecDataset) -> dict[str, np.ndarray]:
    """Name -> array, in the fixed serialization order."""
    arrays: dict[str, np.ndarray] = {}
    for field in _SPLIT_FIELDS:
        value = getattr(dataset.split, field)
        if value is not None:
            arrays[f"split.{field}"] = np.asarray(value)
    for modality, features in dataset.features.items():
        arrays[f"features.{modality}"] = np.asarray(features)
    arrays["kg.triplets"] = dataset.kg.triplets
    return arrays


class DatasetDirWriter(ArrayDirWriter):
    """The staged dataset directory: fires the ``dataset.build.write``
    fault seam and adds the format and the array names to the
    manifest."""

    def __init__(self, path: str | Path):
        super().__init__(path, seam="dataset.build.write")

    def commit(self, header: dict) -> Path:
        return super().commit({**header, "format": DATASET_FORMAT,
                               "arrays": self.names})


def save_dataset(dataset: RecDataset, path: str | Path) -> Path:
    """Write a dataset (split + features + KG) as a directory; returns
    the path.  The generator ``world`` is not stored — it is ground
    truth for tests, not part of the benchmark contract."""
    with DatasetDirWriter(path) as writer:
        for name, array in _dataset_arrays(dataset).items():
            writer.add_array(name, array)
        return writer.commit(_dataset_header(dataset))


def load_dataset(path: str | Path, mmap: bool = False) -> RecDataset:
    """Reconstruct a dataset written by :func:`save_dataset`.

    ``mmap=True`` maps arrays read-only instead of copying them into
    RAM.  A missing, torn or damaged directory, or a manifest without a
    field this reads, raises :class:`CorruptDatasetError` naming the
    path.
    """
    path = Path(path)
    manifest = read_manifest(path, CorruptDatasetError)
    check_fields(manifest, _MANIFEST_KINDS, path, CorruptDatasetError)
    present = set(manifest["arrays"])

    def lookup(name: str):
        if name not in present:
            return None
        return read_array(path, name, CorruptDatasetError, mmap=mmap)

    split = ColdStartSplit(
        num_users=manifest["num_users"], num_items=manifest["num_items"],
        **{field: lookup(f"split.{field}") for field in _SPLIT_FIELDS})
    kg = manifest["kg"]
    return RecDataset(
        name=manifest["name"],
        num_users=manifest["num_users"],
        num_items=manifest["num_items"],
        split=split,
        features={m: lookup(f"features.{m}")
                  for m in manifest["modalities"]},
        kg=KnowledgeGraph(
            triplets=lookup("kg.triplets"),
            num_entities=kg["num_entities"],
            num_relations=kg["num_relations"],
            num_items=kg["num_items"],
            relation_names=tuple(kg["relation_names"]),
        ),
        world=None,
    )


def dataset_fingerprint(dataset: RecDataset) -> str:
    """Content hash (16 hex chars) over the dataset's logical bytes.

    Storage-independent: an in-RAM build, a directory roundtrip, and an
    mmap'd directory of the same dataset all hash identically — the
    equality the streamed-vs-in-RAM parity gate checks.  Memmapped
    arrays are hashed in bounded slabs, never copied whole.
    """
    digest = hashlib.sha256()
    digest.update(json.dumps(_dataset_header(dataset),
                             sort_keys=True).encode("utf-8"))
    for name, array in _dataset_arrays(dataset).items():
        array = np.ascontiguousarray(array) if array.ndim == 0 \
            else array
        digest.update(f"\0{name}|{array.dtype.str}|{array.shape}"
                      .encode("utf-8"))
        rows = max(1, (1 << 22) // max(array.dtype.itemsize
                                       * int(np.prod(array.shape[1:],
                                                     dtype=np.int64)
                                             or 1), 1))
        if array.ndim == 0:
            digest.update(array.tobytes())
            continue
        for start in range(0, array.shape[0], rows):
            digest.update(np.ascontiguousarray(
                array[start:start + rows]).tobytes())
    return digest.hexdigest()[:16]
