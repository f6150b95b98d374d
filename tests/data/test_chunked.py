"""Streamed-build primitives: the append-only ``.npy`` writer and the
``(user, item)`` pair keys the scale builder dedups on."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.chunked import (NpyStreamWriter, decode_pairs, encode_pairs,
                                unique_pairs)


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


def assert_unique_pairs_match_np_unique(pairs, num_items):
    want = np.unique(pairs, axis=0)
    got = unique_pairs(pairs, num_items)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestUniquePairs:
    """``np.unique(pairs, axis=0)`` is the reference."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_equals_np_unique_rows(self, num_items, data):
        pairs = np.array(data.draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, num_items - 1)),
            max_size=60)), dtype=np.int64).reshape(-1, 2)
        assert_unique_pairs_match_np_unique(pairs, num_items)

    def test_empty(self):
        assert_unique_pairs_match_np_unique(
            np.empty((0, 2), dtype=np.int64), 5)

    def test_all_duplicates(self):
        assert_unique_pairs_match_np_unique(
            np.tile(np.array([[3, 4]], dtype=np.int64), (7, 1)), 5)

    def test_random_pairs(self, rng):
        assert_unique_pairs_match_np_unique(random_pairs(rng), 30)
