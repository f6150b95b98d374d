"""Out-of-core dataset assembly: bounded-memory primitives.

Everything here operates on *streams of chunks* instead of whole
arrays, so peak memory is bounded by the chunk size, never the catalog
size — the discipline :mod:`repro.data.scale` uses to build
million-interaction worlds on a small-RAM host:

* :class:`NpyStreamWriter` — append chunks to a plain ``.npy`` file
  (the final shape is patched into the fixed-size header on close, so
  the file is a perfectly ordinary array to ``np.load``/mmap);
* :func:`read_npy_chunks` — the reading side, bounded buffers;
* :func:`external_sorted_unique` — dedup via spilled sorted runs and a
  vectorized pairwise merge (bit-identical to ``np.unique`` of the
  concatenated input);
* :func:`external_k_core` — the paper's user k-core filter as repeated
  bounded-memory passes (bit-identical to
  :func:`repro.data.world.apply_k_core`).

Writers append with plain buffered ``file.write`` — the bytes land in
the page cache, not in process RSS, which is what keeps the build's
peak resident set chunk-bounded (dirtying mmap'd pages instead would
charge the whole spill to RSS until writeback).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

#: default stream granularity (rows per chunk) of the chunked builders
DEFAULT_CHUNK_ROWS = 65536

#: sorted runs are spilled at least this large even when the caller
#: streams tiny chunks — a 64 Ki-row int64 run is a 512 KiB scratch
#: floor, and it keeps a 1-row chunk size from spilling a million
#: 1-row files (correctness is unaffected; parity tests pin that)
_MIN_RUN_ROWS = 65536

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


def read_npy_chunks(path: str | Path, chunk_rows: int = DEFAULT_CHUNK_ROWS):
    """Yield bounded row chunks of a ``.npy`` file (never loads it whole).

    Reads with plain buffered I/O rather than mmap so consumed pages do
    not count against the process resident set.
    """
    chunk_rows = max(int(chunk_rows), 1)
    with open(Path(path), "rb") as handle:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = \
                np.lib.format.read_array_header_1_0(handle)
        else:
            shape, fortran, dtype = \
                np.lib.format.read_array_header_2_0(handle)
        if fortran:
            raise ValueError(f"{path}: fortran-order arrays are not "
                             "streamable")
        rows = shape[0]
        row_shape = shape[1:]
        row_elems = int(np.prod(row_shape, dtype=np.int64)) \
            if row_shape else 1
        done = 0
        while done < rows:
            take = min(chunk_rows, rows - done)
            chunk = np.fromfile(handle, dtype=dtype,
                                count=take * row_elems)
            if chunk.size != take * row_elems:
                raise ValueError(f"{path} is truncated: expected "
                                 f"{rows} rows, got {done} plus a "
                                 "short read")
            yield chunk.reshape((take,) + row_shape)
            done += take


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


# ----------------------------------------------------------------------
# external sorted dedup
# ----------------------------------------------------------------------
class _RunReader:
    """Bounded-buffer cursor over one sorted spilled run."""

    def __init__(self, path: Path, chunk_rows: int):
        self._chunks = read_npy_chunks(path, chunk_rows)
        self.buf = next(self._chunks, None)

    def take_upto(self, cut) -> np.ndarray:
        """Consume and return every buffered value ``<= cut`` (the
        caller guarantees the current buffer covers the cut)."""
        split = int(np.searchsorted(self.buf, cut, side="right"))
        taken, rest = self.buf[:split], self.buf[split:]
        if rest.size:
            self.buf = rest
        else:
            self.buf = next(self._chunks, None)
        return taken

    def drain(self):
        while self.buf is not None:
            yield self.buf
            self.buf = next(self._chunks, None)


def _merge_runs(a: Path, b: Path, out: Path, dtype,
                chunk_rows: int) -> Path:
    """Merge two sorted-unique runs into one, dropping cross-run
    duplicates. Vectorized: each step consumes everything up to the
    smaller of the two buffer maxima, so progress is chunk-sized."""
    ra, rb = _RunReader(a, chunk_rows), _RunReader(b, chunk_rows)
    with NpyStreamWriter(out, dtype) as writer:
        while ra.buf is not None and rb.buf is not None:
            cut = min(ra.buf[-1], rb.buf[-1])
            merged = np.union1d(ra.take_upto(cut), rb.take_upto(cut))
            writer.write(merged)
        for rest in ra.drain():
            writer.write(rest)
        for rest in rb.drain():
            writer.write(rest)
    return out


def external_sorted_unique(chunks, workdir: str | Path,
                           dtype=np.int64,
                           chunk_rows: int = DEFAULT_CHUNK_ROWS,
                           out: str | Path | None = None) -> Path:
    """Sorted-unique of a chunk stream, spilled to disk.

    Per-chunk ``np.unique`` runs are spilled as sorted ``.npy`` files
    (each at least :data:`_MIN_RUN_ROWS` rows, so tiny chunk sizes do
    not explode the run count), then merged pairwise until one remains.
    The result is bit-identical to ``np.unique(concatenate(chunks))``;
    peak memory is bounded by the run size, not the stream length.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    run_rows = max(int(chunk_rows), _MIN_RUN_ROWS)
    runs: list[Path] = []
    buffer: list[np.ndarray] = []
    buffered = 0

    def spill() -> None:
        nonlocal buffered
        if not buffer:
            return
        run = np.unique(np.concatenate(buffer))
        path = workdir / f"run-{len(runs):06d}.npy"
        with NpyStreamWriter(path, dtype) as writer:
            writer.write(run)
        runs.append(path)
        buffer.clear()
        buffered = 0

    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=dtype).ravel()
        buffer.append(chunk)
        buffered += chunk.size
        if buffered >= run_rows:
            spill()
    spill()

    out = Path(out) if out is not None else workdir / "unique.npy"
    if not runs:
        with NpyStreamWriter(out, dtype):
            pass
        return out
    generation = 0
    while len(runs) > 1:
        merged: list[Path] = []
        for idx in range(0, len(runs) - 1, 2):
            target = workdir / f"merge-{generation:03d}-{idx // 2:06d}.npy"
            _merge_runs(runs[idx], runs[idx + 1], target, dtype,
                        chunk_rows)
            os.unlink(runs[idx])
            os.unlink(runs[idx + 1])
            merged.append(target)
        if len(runs) % 2:
            merged.append(runs[-1])
        runs = merged
        generation += 1
    os.replace(runs[0], out)
    return out


# ----------------------------------------------------------------------
# external k-core
# ----------------------------------------------------------------------
def external_k_core(pairs_path: str | Path, k: int,
                    workdir: str | Path,
                    chunk_rows: int = DEFAULT_CHUNK_ROWS) -> tuple[Path, int]:
    """User k-core filter over an on-disk ``(n, 2)`` pair file.

    Each iteration streams the file twice — a ``np.bincount`` degree
    pass (``O(num_users)`` scratch) and an order-preserving filter pass
    — until no row is dropped, exactly the fixed point
    :func:`repro.data.world.apply_k_core` computes in RAM.  Returns the
    surviving file's path and its row count.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    current = Path(pairs_path)
    generation = 0
    while True:
        degrees = np.zeros(0, dtype=np.int64)
        total = 0
        for chunk in read_npy_chunks(current, chunk_rows):
            counts = np.bincount(chunk[:, 0])
            if len(counts) > len(degrees):
                counts[:len(degrees)] += degrees
                degrees = counts
            else:
                degrees[:len(counts)] += counts
            total += len(chunk)
        target = workdir / f"kcore-{generation:03d}.npy"
        kept = 0
        with NpyStreamWriter(target, np.int64, row_shape=(2,)) as writer:
            for chunk in read_npy_chunks(current, chunk_rows):
                mask = degrees[chunk[:, 0]] >= k
                filtered = chunk[mask]
                if len(filtered):
                    writer.write(filtered)
                kept += len(filtered)
        if current != Path(pairs_path):
            os.unlink(current)
        if kept == total:
            return target, kept
        current = target
        generation += 1
