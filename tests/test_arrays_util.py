"""Tests for the array helpers: ``np.unique`` is the reference."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.utils.arrays import sorted_unique

int64s = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


def assert_same_array(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@settings(max_examples=200, deadline=None)
@given(arrays(np.int64, st.integers(0, 60),
              elements=st.one_of(st.integers(-5, 5), int64s)))
def test_sorted_unique_equals_np_unique(values):
    assert_same_array(sorted_unique(values), np.unique(values))


def test_edge_cases():
    cases = [np.empty(0, dtype=np.int64), np.array([7], dtype=np.int64),
             np.full(9, -3, dtype=np.int64),
             np.array([-2, 5, -2, 0, 5, -9], dtype=np.int64)]
    for values in cases:
        assert_same_array(sorted_unique(values), np.unique(values))


def test_leaves_its_input_unchanged():
    values = np.array([3, 1, 3, 2], dtype=np.int64)
    sorted_unique(values)
    np.testing.assert_array_equal(values, [3, 1, 3, 2])
