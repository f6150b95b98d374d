"""Tests for frozen sparse propagation and normalizations."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import (Tensor, build_bipartite_adjacency, row_normalize,
                            row_softmax, sparse_matmul, symmetric_normalize)


class TestSparseMatmul:
    def test_matches_dense(self, rng):
        matrix = sp.random(5, 4, density=0.6, random_state=0, format="csr")
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(
            sparse_matmul(matrix, x).data, matrix.toarray() @ x.data)

    def test_gradient_is_transpose_product(self, rng):
        matrix = sp.random(5, 4, density=0.6, random_state=0, format="csr")
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        sparse_matmul(matrix, x).sum().backward()
        expected = matrix.T @ np.ones((5, 3))
        np.testing.assert_allclose(x.grad, expected)

    def test_csr_input_is_never_reconverted(self, rng, monkeypatch):
        """Regression: the seed called ``matrix.tocsr()`` on every
        multiply. An already-CSR operator must pass through untouched."""
        matrix = sp.random(5, 4, density=0.6, random_state=0, format="csr")
        calls = []
        original = sp.csr_matrix.tocsr

        def counting_tocsr(self, *args, **kwargs):
            calls.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "tocsr", counting_tocsr)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        for _ in range(3):
            sparse_matmul(matrix, x).sum().backward()
        assert calls == []

    def test_non_csr_input_converted_once_per_call(self, rng):
        matrix = sp.random(5, 4, density=0.6, random_state=0, format="coo")
        x = Tensor(rng.normal(size=(4, 3)))
        np.testing.assert_allclose(
            sparse_matmul(matrix, x).data, matrix.toarray() @ x.data)

    def test_dense_input_rejected(self, rng):
        with np.testing.assert_raises(TypeError):
            sparse_matmul(np.eye(4), Tensor(rng.normal(size=(4, 3))))

    def test_float32_operand_stays_float32(self, rng):
        matrix = sp.random(5, 4, density=0.6, random_state=0,
                           format="csr").astype(np.float32)
        x = Tensor(rng.normal(size=(4, 3)).astype(np.float32),
                   requires_grad=True)
        out = sparse_matmul(matrix, x)
        assert out.data.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32


class TestNormalizations:
    def test_normalizers_emit_float64_csr(self, rng):
        """Training operators stay float64 (the published tables'
        dtype)."""
        dense = (rng.random((6, 6)) > 0.5).astype(float)
        matrix = sp.csr_matrix(dense)
        for normalize in (symmetric_normalize, row_normalize, row_softmax):
            out = normalize(matrix)
            assert out.dtype == np.float64
            assert out.format == "csr"

    def test_symmetric_normalize_zero_rows_stay_zero(self):
        adjacency = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        out = symmetric_normalize(adjacency).toarray()
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out[1], 0.0)

    def test_symmetric_normalize_regular_graph(self):
        # cycle of 4 nodes, each degree 2 -> every entry 1/2
        adjacency = sp.csr_matrix(np.array(
            [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
            dtype=float))
        out = symmetric_normalize(adjacency).toarray()
        np.testing.assert_allclose(out[out > 0], 0.5)

    def test_row_normalize_rows_sum_to_one(self, rng):
        dense = (rng.random((5, 5)) > 0.5).astype(float)
        dense[0] = 0.0  # zero row must survive
        out = row_normalize(sp.csr_matrix(dense)).toarray()
        sums = out.sum(axis=1)
        for row, total in enumerate(sums):
            if dense[row].sum() > 0:
                np.testing.assert_allclose(total, 1.0)
            else:
                np.testing.assert_allclose(total, 0.0)

    def test_row_softmax_distributes_over_nonzeros(self):
        matrix = sp.csr_matrix(np.array([[1.0, 3.0, 0.0], [0.0, 0.0, 0.0]]))
        out = row_softmax(matrix).toarray()
        np.testing.assert_allclose(out[0].sum(), 1.0)
        assert out[0, 1] > out[0, 0]       # higher count -> higher weight
        assert out[0, 2] == 0.0            # absent edge gets no mass
        np.testing.assert_allclose(out[1], 0.0)


class TestBipartite:
    def test_structure(self):
        adj = build_bipartite_adjacency(
            2, 3, np.array([0, 1]), np.array([0, 2]))
        dense = adj.toarray()
        assert dense.shape == (5, 5)
        assert dense[0, 2] == 1 and dense[2, 0] == 1   # user0 - item0
        assert dense[1, 4] == 1 and dense[4, 1] == 1   # user1 - item2
        np.testing.assert_allclose(dense, dense.T)     # symmetric
        assert dense[:2, :2].sum() == 0                # no user-user edges
        assert dense[2:, 2:].sum() == 0                # no item-item edges


class TestRowSoftmaxVectorizationParity:
    """The length-bucketed batched softmax must reproduce the historical
    per-row loop bit-for-bit (same max/exp/sum kernels per lane)."""

    @staticmethod
    def _loop_reference(adjacency):
        matrix = adjacency.tocsr().astype(np.float64).copy()
        for row in range(matrix.shape[0]):
            start, end = matrix.indptr[row], matrix.indptr[row + 1]
            if start == end:
                continue
            vals = matrix.data[start:end]
            vals = np.exp(vals - vals.max())
            matrix.data[start:end] = vals / vals.sum()
        return matrix

    def test_matches_loop_on_random_graphs(self):
        rng = np.random.default_rng(3)
        for trial in range(6):
            dense = rng.integers(0, 5, size=(23, 23)).astype(float)
            dense *= rng.random(size=dense.shape) < 0.4
            matrix = sp.csr_matrix(dense)
            got = row_softmax(matrix)
            want = self._loop_reference(matrix)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.data, want.data)

    def test_matches_loop_with_long_rows(self):
        # Rows past numpy's pairwise-summation threshold: bucketed
        # axis-1 reductions must still equal the per-row calls.
        rng = np.random.default_rng(4)
        dense = rng.normal(size=(5, 200))
        matrix = sp.csr_matrix(dense)
        got = row_softmax(matrix)
        want = self._loop_reference(matrix)
        assert np.array_equal(got.data, want.data)
