"""RowSparseGrad semantics: bit-parity with the dense scatter kernels."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd.rowsparse import RowSparseGrad, grad_sum


def dense_bincount(indices, g, shape, dtype):
    """The historical take_rows dense backward."""
    rows, cols = shape
    flat = (indices[:, None] * cols + np.arange(cols)[None, :]).ravel()
    grad = np.bincount(flat, weights=g.ravel(), minlength=rows * cols)
    return grad.reshape(rows, cols).astype(dtype, copy=False)


def dense_add_at(indices, g, shape, dtype):
    """The historical __getitem__ dense backward."""
    grad = np.zeros(shape, dtype=dtype)
    np.add.at(grad, indices, g)
    return grad


@pytest.fixture()
def gather(rng):
    indices = rng.integers(0, 50, size=120).astype(np.int64)
    g = rng.normal(size=(120, 8))
    return indices, g, (50, 8)


class TestFromGather:
    def test_bincount_flavor_matches_dense(self, gather):
        indices, g, shape = gather
        sparse = RowSparseGrad.from_gather(indices, g, shape, np.float64,
                                           via_bincount=True)
        np.testing.assert_array_equal(
            sparse.to_dense(), dense_bincount(indices, g, shape, np.float64))

    def test_add_at_flavor_matches_dense(self, gather):
        indices, g, shape = gather
        sparse = RowSparseGrad.from_gather(indices, g, shape, np.float64,
                                           via_bincount=False)
        np.testing.assert_array_equal(
            sparse.to_dense(), dense_add_at(indices, g, shape, np.float64))

    def test_add_at_flavor_float32(self, gather):
        indices, g, shape = gather
        g32 = g.astype(np.float32)
        sparse = RowSparseGrad.from_gather(indices, g32, shape, np.float32,
                                           via_bincount=False)
        assert sparse.values.dtype == np.float32
        np.testing.assert_array_equal(
            sparse.to_dense(), dense_add_at(indices, g32, shape, np.float32))

    def test_rows_unique_sorted(self, gather):
        indices, g, shape = gather
        sparse = RowSparseGrad.from_gather(indices, g, shape, np.float64)
        assert np.array_equal(sparse.rows, np.unique(indices))
        assert sparse.values.shape == (len(sparse.rows), shape[1])


class TestAccumulation:
    def _two(self, rng, shape=(40, 6)):
        idx_a = rng.integers(0, shape[0], size=30).astype(np.int64)
        idx_b = rng.integers(0, shape[0], size=25).astype(np.int64)
        a = RowSparseGrad.from_gather(idx_a, rng.normal(size=(30, shape[1])),
                                      shape, np.float64)
        b = RowSparseGrad.from_gather(idx_b, rng.normal(size=(25, shape[1])),
                                      shape, np.float64)
        return a, b

    def test_sparse_plus_sparse(self, rng):
        a, b = self._two(rng)
        merged = a.add(b)
        np.testing.assert_array_equal(merged.to_dense(),
                                      a.to_dense() + b.to_dense())
        assert np.array_equal(merged.rows, np.unique(merged.rows))

    def test_sparse_plus_dense(self, rng):
        a, b = self._two(rng)
        dense = b.to_dense()
        np.testing.assert_array_equal(a.add_dense(dense),
                                      a.to_dense() + dense)

    def test_dense_plus_sparse_in_place(self, rng):
        a, b = self._two(rng)
        target = a.to_dense()
        b.add_to_dense(target)
        np.testing.assert_array_equal(target, a.to_dense() + b.to_dense())

    def test_grad_sum_dispatch(self, rng):
        a, b = self._two(rng)
        expected = a.to_dense() + b.to_dense()
        np.testing.assert_array_equal(grad_sum(a, b).to_dense(), expected)
        np.testing.assert_array_equal(grad_sum(a, b.to_dense()), expected)
        np.testing.assert_array_equal(grad_sum(a.to_dense(), b), expected)
        np.testing.assert_array_equal(grad_sum(a.to_dense(), b.to_dense()),
                                      expected)

    def test_grad_sum_dense_plus_sparse_does_not_mutate(self, rng):
        a, b = self._two(rng)
        first = a.to_dense()
        keep = first.copy()
        grad_sum(first, b)
        np.testing.assert_array_equal(first, keep)


def test_scale_in_place(rng):
    sparse = RowSparseGrad.from_gather(
        np.array([1, 3, 1], dtype=np.int64), rng.normal(size=(3, 4)),
        (10, 4), np.float64)
    expected = sparse.to_dense() * 0.25
    sparse.scale_(0.25)
    np.testing.assert_array_equal(sparse.to_dense(), expected)


def test_empty_gather(rng):
    sparse = RowSparseGrad.from_gather(
        np.empty(0, dtype=np.int64), np.empty((0, 4)), (10, 4), np.float64)
    assert sparse.rows.size == 0
    np.testing.assert_array_equal(sparse.to_dense(), np.zeros((10, 4)))
