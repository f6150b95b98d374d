"""Backend op unit grid.

Every primitive :class:`repro.backend.ArrayBackend` owns must match the
plain-numpy expression it abstracts *bit for bit*, in float32 and
float64: it is the bit-exactness contract's foundation, so the grid
uses ``np.array_equal`` with no tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.backend import active


def _check(got, want):
    assert np.array_equal(got, want), "backend is not bit-identical to numpy"


#: one param, named after the tier ``runtime_info()`` reports, so the
#: grid's ids read ``[reference-<dtype>]``
@pytest.fixture(params=("reference",))
def backend(request):
    return active()


@pytest.fixture(params=(np.float32, np.float64))
def dtype(request):
    return request.param


def _rand(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


class TestDenseOps:
    def test_matmul(self, backend, dtype, rng):
        a, b = _rand(rng, (17, 9), dtype), _rand(rng, (9, 13), dtype)
        _check(backend.matmul(a, b), a @ b)

    def test_matmul_large_enough_to_dispatch(self, backend, rng):
        # Large enough for the BLAS to dispatch to its blocked (and,
        # with several threads, parallel) kernel.
        a = _rand(rng, (128, 96), np.float32)
        b = _rand(rng, (96, 128), np.float32)
        _check(backend.matmul(a, b), a @ b)

    def test_matmul_out(self, backend, dtype, rng):
        a, b = _rand(rng, (11, 7), dtype), _rand(rng, (7, 5), dtype)
        out = np.empty((11, 5), dtype=dtype)
        result = backend.matmul_out(a, b, out)
        assert result is out
        _check(out, a @ b)

    def test_elementwise(self, backend, dtype, rng):
        x = _rand(rng, (6, 8), dtype)
        _check(backend.exp(x), np.exp(x))
        _check(backend.tanh(x), np.tanh(x))
        positive = np.abs(x) + dtype(0.5)
        _check(backend.log(positive), np.log(positive))
        _check(backend.sqrt(positive), np.sqrt(positive))

    def test_sigmoid_matches_clipped_expression(self, backend, dtype, rng):
        # The historical expression, including the +-60 clip that makes
        # extreme logits exact 0/1 instead of overflowing.
        x = _rand(rng, (40,), dtype) * dtype(50.0)
        want = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        _check(backend.sigmoid(x), want)

    def test_gather_rows(self, backend, dtype, rng):
        table = _rand(rng, (20, 6), dtype)
        indices = rng.integers(0, 20, size=33)
        _check(backend.gather_rows(table, indices), table[indices])


class TestSparseOps:
    def test_spmm_and_transpose(self, backend, dtype, rng):
        matrix = sp.random(14, 10, density=0.3, random_state=7,
                           format="csr", dtype=np.float64).astype(dtype)
        x = _rand(rng, (10, 4), dtype)
        g = _rand(rng, (14, 4), dtype)
        _check(backend.spmm(matrix, x), matrix @ x)
        _check(backend.spmm_t(matrix, g), matrix.T @ g)

    @pytest.mark.parametrize("num_rows", (5, 500))
    def test_bincount_rows(self, backend, dtype, rng, num_rows):
        # num_rows=500 leaves most of the table untouched by the 25
        # gathered rows; num_rows=5 fills every bucket.
        inverse = rng.integers(0, 5, size=25)
        values = _rand(rng, (25, 3), dtype)
        flat = (inverse[:, None] * 3 + np.arange(3)[None, :]).ravel()
        want = np.bincount(flat, weights=values.ravel(),
                           minlength=num_rows * 3).reshape(num_rows, 3)
        got = backend.bincount_rows(inverse, values, num_rows, 3)
        _check(got, want)
