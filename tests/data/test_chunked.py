"""Out-of-core primitives: streaming writers, external merge, k-core.

Every external-memory algorithm here has an in-RAM numpy reference it
must equal exactly — bit-identity is the contract that lets the scale
builder swap execution strategies without touching content addresses.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.chunked import (DEFAULT_CHUNK_ROWS, NpyStreamWriter,
                                decode_pairs, encode_pairs, external_k_core,
                                external_sorted_unique, read_npy_chunks)
from repro.data.world import apply_k_core

#: the parity grid every chunked algorithm is exercised over: degenerate
#: one-row chunks, a prime (never aligned with any internal block), the
#: library default, and a single chunk covering everything
CHUNK_SIZES = (1, 13, DEFAULT_CHUNK_ROWS, 10**9)


def random_pairs(rng, rows=500, num_users=40, num_items=30):
    return np.column_stack([
        rng.integers(0, num_users, size=rows),
        rng.integers(0, num_items, size=rows),
    ]).astype(np.int64)


class TestNpyStreamWriter:
    def test_round_trip(self, rng, tmp_path):
        data = rng.normal(size=(257, 6)).astype(np.float32)
        streamed = tmp_path / "streamed.npy"
        with NpyStreamWriter(streamed, np.float32, row_shape=(6,)) as w:
            for start in range(0, len(data), 50):
                w.write(data[start:start + 50])
        np.testing.assert_array_equal(np.load(streamed), data)

    def test_byte_determinism_across_write_granularity(self, rng,
                                                       tmp_path):
        """The on-disk bytes depend on the content, never on how the
        writes were sliced — the property v2 content hashing rests on."""
        data = rng.normal(size=(257, 6)).astype(np.float32)
        paths = []
        for label, step in (("a", 50), ("b", 1), ("c", 10**9)):
            path = tmp_path / f"{label}.npy"
            with NpyStreamWriter(path, np.float32, row_shape=(6,)) as w:
                for start in range(0, len(data), step):
                    w.write(data[start:start + step])
            paths.append(path)
        blobs = {path.read_bytes() for path in paths}
        assert len(blobs) == 1

    def test_empty_write_is_a_valid_zero_row_array(self, tmp_path):
        path = tmp_path / "empty.npy"
        with NpyStreamWriter(path, np.int64) as w:
            pass
        assert np.load(path).shape == (0,)

    def test_mmap_loadable(self, rng, tmp_path):
        data = rng.integers(0, 100, size=(64, 2)).astype(np.int64)
        path = tmp_path / "pairs.npy"
        with NpyStreamWriter(path, np.int64, row_shape=(2,)) as w:
            w.write(data)
        loaded = np.load(path, mmap_mode="r")
        assert isinstance(loaded, np.memmap)
        np.testing.assert_array_equal(np.asarray(loaded), data)

    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_read_npy_chunks_reassembles(self, rng, tmp_path, chunk_rows):
        data = rng.normal(size=(123, 3))
        path = tmp_path / "data.npy"
        np.save(path, data)
        chunks = list(read_npy_chunks(path, chunk_rows=chunk_rows))
        np.testing.assert_array_equal(np.concatenate(chunks), data)

    def test_read_truncated_file_raises(self, rng, tmp_path):
        path = tmp_path / "torn.npy"
        np.save(path, rng.normal(size=(100, 4)))
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) - 64])
        with pytest.raises(ValueError, match="truncated"):
            list(read_npy_chunks(path, chunk_rows=16))


class TestPairEncoding:
    def test_round_trip(self, rng):
        pairs = random_pairs(rng)
        keys = encode_pairs(pairs, num_items=30)
        np.testing.assert_array_equal(decode_pairs(keys, 30), pairs)

    def test_encoding_is_order_preserving_on_sorted_pairs(self, rng):
        pairs = random_pairs(rng)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        keys = encode_pairs(pairs[order], num_items=30)
        assert (np.diff(keys) >= 0).all()


class TestExternalSortedUnique:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    def test_equals_np_unique(self, rng, tmp_path, chunk_rows):
        keys = rng.integers(0, 400, size=900).astype(np.int64)
        chunks = [keys[s:s + 97] for s in range(0, len(keys), 97)]
        out = external_sorted_unique(iter(chunks), tmp_path,
                                     chunk_rows=chunk_rows)
        np.testing.assert_array_equal(np.load(out), np.unique(keys))

    def test_duplicate_heavy_input(self, tmp_path):
        """Adversarial dedup: every value repeated across many chunks,
        including runs made entirely of one value."""
        chunks = [np.full(50, 7, dtype=np.int64),
                  np.arange(10, dtype=np.int64).repeat(20),
                  np.full(30, 7, dtype=np.int64),
                  np.array([9, 9, 9, 3, 3, 0], dtype=np.int64)]
        out = external_sorted_unique(iter(chunks), tmp_path, chunk_rows=8)
        np.testing.assert_array_equal(
            np.load(out), np.unique(np.concatenate(chunks)))

    def test_empty_input(self, tmp_path):
        out = external_sorted_unique(iter([]), tmp_path)
        assert len(np.load(out)) == 0


class TestExternalKCore:
    @pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
    @pytest.mark.parametrize("k", (1, 3, 8))
    def test_equals_apply_k_core(self, rng, tmp_path, chunk_rows, k):
        pairs = np.unique(random_pairs(rng, rows=600), axis=0)
        pairs_path = tmp_path / "pairs.npy"
        np.save(pairs_path, pairs)
        out, kept = external_k_core(pairs_path, k, tmp_path,
                                    chunk_rows=chunk_rows)
        expected = apply_k_core(pairs, k=k)
        assert kept == len(expected)
        np.testing.assert_array_equal(np.load(out), expected)

    def test_k_core_that_empties_the_world(self, rng, tmp_path):
        pairs = np.unique(random_pairs(rng, rows=40, num_users=40), axis=0)
        pairs_path = tmp_path / "pairs.npy"
        np.save(pairs_path, pairs)
        out, kept = external_k_core(pairs_path, 10**6, tmp_path,
                                    chunk_rows=16)
        assert kept == 0
        assert len(np.load(out)) == 0
