"""Property-based tests on the frozen graph constructions."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd.sparse import symmetric_normalize
from repro.data.kg_builder import similarity_panels
from repro.graphs.item_item import cold_mask_matrix, knn_sparsify
from repro.graphs.user_user import cooccurrence_counts, topk_per_row


@st.composite
def feature_matrix(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    d = draw(st.integers(min_value=2, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=10000))
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d))


@settings(max_examples=30, deadline=None)
@given(feature_matrix(), st.integers(min_value=1, max_value=5))
def test_knn_degree_bound(features, k):
    adjacency = knn_sparsify(features, k)
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    assert degrees.max() <= min(k, len(features) - 1)
    assert adjacency.diagonal().sum() == 0


@settings(max_examples=30, deadline=None)
@given(feature_matrix())
def test_cosine_symmetric_and_bounded(features):
    sims = np.vstack([panel for _, panel in similarity_panels(features)])
    np.testing.assert_allclose(sims, sims.T, atol=1e-10)
    off_diagonal = sims[~np.eye(len(sims), dtype=bool)]
    assert np.all(off_diagonal <= 1.0 + 1e-9)
    assert np.all(off_diagonal >= -1.0 - 1e-9)
    assert np.all(np.diag(sims) == -np.inf)


@settings(max_examples=30, deadline=None)
@given(feature_matrix(), st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=3))
def test_cold_mask_invariant(features, k, num_cold):
    n = len(features)
    num_cold = min(num_cold, n - 2)
    is_cold = np.zeros(n, dtype=bool)
    is_cold[-num_cold:] = True
    adjacency = knn_sparsify(features, k)
    masked = cold_mask_matrix(adjacency, is_cold).toarray()
    # No warm row may keep any cold column.
    assert masked[~is_cold][:, is_cold].sum() == 0
    # Entries never increase.
    assert np.all(masked <= adjacency.toarray() + 1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1000),
       st.integers(min_value=1, max_value=5))
def test_cooccurrence_topk_subset(seed, k):
    rng = np.random.default_rng(seed)
    dense = (rng.random((8, 12)) > 0.6).astype(float)
    co = cooccurrence_counts(sp.csr_matrix(dense))
    topped = topk_per_row(co, k)
    # Every kept entry exists in the full matrix with the same weight.
    full = co.toarray()
    kept = topped.toarray()
    mask = kept > 0
    np.testing.assert_allclose(kept[mask], full[mask])
    # Row degree bound.
    assert (kept > 0).sum(axis=1).max() <= k


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=1000))
def test_symmetric_normalize_spectrum_bounded(seed):
    """Spectral radius of D^-1/2 A D^-1/2 is at most 1 for any graph."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((10, 10)) > 0.6).astype(float)
    dense = np.maximum(dense, dense.T)
    np.fill_diagonal(dense, 0)
    norm = symmetric_normalize(sp.csr_matrix(dense)).toarray()
    eigenvalues = np.linalg.eigvalsh((norm + norm.T) / 2)
    assert eigenvalues.max() <= 1.0 + 1e-8
