"""Streamed dataset assembly: append-only ``.npy`` writers and pair keys.

:mod:`repro.data.scale` builds million-interaction worlds one generator
block at a time and appends each block's rows to the staged dataset
directory, so nothing catalog-sized is ever resident:

* :class:`NpyStreamWriter` — append blocks to a plain ``.npy`` file
  (the final shape is patched into the fixed-size header on close, so
  the file is a perfectly ordinary array to ``np.load``/mmap);
* :func:`encode_pairs` / :func:`decode_pairs` — ``(user, item)`` rows
  to sortable ``user * num_items + item`` keys and back;
  :func:`unique_pairs` deduplicates rows through those keys.

Writers append with plain buffered ``file.write`` — the bytes land in
the page cache, not in process RSS, which is what keeps the build's
peak resident set block-bounded (dirtying mmap'd pages instead would
charge the whole output to RSS until writeback).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..utils.arrays import sorted_unique

# Fixed-size npy header block: magic(6) + version(2) + header-len(2)
# + header text. Reserving the same padded length for the placeholder
# and the final header lets close() patch the true shape in place.
_HEADER_BLOCK = 192
_HEADER_TEXT_LEN = _HEADER_BLOCK - 10


class NpyStreamWriter:
    """Append-only writer producing a standard ``.npy`` (format 1.0) file.

    The header is written with a placeholder shape and padded to a fixed
    length; :meth:`close` seeks back and rewrites it with the final row
    count, so readers (``np.load``, mmap) see an ordinary array.
    """

    def __init__(self, path: str | Path, dtype, row_shape: tuple = ()):
        self.path = Path(path)
        self.dtype = np.dtype(dtype)
        self.row_shape = tuple(int(d) for d in row_shape)
        self.rows = 0
        self._file = open(self.path, "wb")
        self._file.write(self._header_bytes(0))

    def _header_bytes(self, rows: int) -> bytes:
        descr = np.lib.format.dtype_to_descr(self.dtype)
        shape = (rows,) + self.row_shape
        body = ("{'descr': %r, 'fortran_order': False, 'shape': %r, }"
                % (descr, shape))
        if len(body) > _HEADER_TEXT_LEN - 1:
            raise ValueError(f"npy header too large for the fixed "
                             f"{_HEADER_BLOCK}-byte block: {body!r}")
        body = body + " " * (_HEADER_TEXT_LEN - 1 - len(body)) + "\n"
        import struct
        return (b"\x93NUMPY\x01\x00"
                + struct.pack("<H", _HEADER_TEXT_LEN)
                + body.encode("latin1"))

    def write(self, chunk: np.ndarray) -> None:
        arr = np.ascontiguousarray(chunk, dtype=self.dtype)
        if arr.shape[1:] != self.row_shape:
            raise ValueError(f"chunk row shape {arr.shape[1:]} does not "
                             f"match writer row shape {self.row_shape}")
        self._file.write(arr.tobytes())
        self.rows += arr.shape[0]

    def close(self) -> Path:
        self._file.flush()
        self._file.seek(0)
        self._file.write(self._header_bytes(self.rows))
        self._file.close()
        return self.path

    def __enter__(self) -> "NpyStreamWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# pair <-> key encoding
# ----------------------------------------------------------------------
def encode_pairs(pairs: np.ndarray, num_items: int) -> np.ndarray:
    """(user, item) rows -> sortable int64 keys (user-major order)."""
    pairs = np.asarray(pairs, dtype=np.int64)
    return pairs[:, 0] * np.int64(num_items) + pairs[:, 1]


def decode_pairs(keys: np.ndarray, num_items: int) -> np.ndarray:
    """Inverse of :func:`encode_pairs`."""
    keys = np.asarray(keys, dtype=np.int64)
    return np.column_stack([keys // np.int64(num_items),
                            keys % np.int64(num_items)])


def unique_pairs(pairs: np.ndarray, num_items: int) -> np.ndarray:
    """The distinct ``(user, item)`` rows of ``pairs`` as int64, sorted by
    user, then item: ``np.unique(pairs, axis=0)`` for items in
    ``[0, num_items)``, by a sort of their int64 keys in place of a
    structured-dtype sort of the rows."""
    return decode_pairs(sorted_unique(encode_pairs(pairs, num_items)),
                        num_items)
