"""Tests for the modality-specific item-item graphs (eq. 1-3, 34-35)."""

from __future__ import annotations

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import symmetric_normalize
from repro.data import build_dataset, kg_builder, load_amazon
from repro.data.kg_builder import similarity_panels
from repro.graphs.item_item import (ItemItemGraph, cold_mask_matrix,
                                    knn_sparsify)


def cosine_similarity_matrix(features):
    """Reference: the dense cosine similarity matrix (eq. 1) the graphs
    were built from before row panels."""
    norms = np.linalg.norm(features, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    unit = features / norms
    return unit @ unit.T


def reference_knn(similarity, top_k, restrict_to=None):
    """Reference: the per-row top-K loop over a dense similarity matrix
    (eq. 2) that ``knn_sparsify`` replaced."""
    n = similarity.shape[0]
    rows, cols = [], []
    if restrict_to is None:
        active = np.arange(n)
    else:
        active = np.asarray(restrict_to)
    allowed = np.zeros(n, dtype=bool)
    allowed[active] = True

    for a in active:
        row = similarity[a].copy()
        row[~allowed] = -np.inf
        row[a] = -np.inf
        k = min(top_k, int(allowed.sum()) - 1)
        if k <= 0:
            continue
        neighbors = np.argpartition(-row, k - 1)[:k]
        neighbors = neighbors[np.isfinite(row[neighbors])]
        rows.extend([a] * len(neighbors))
        cols.extend(int(c) for c in neighbors)

    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


def reference_views(similarity, top_k, warm, is_cold):
    """The two ``ItemItemGraph`` views built on the reference kNN."""
    train = reference_knn(similarity, top_k, restrict_to=warm)
    full = reference_knn(similarity, top_k)
    return {"train": symmetric_normalize(train),
            "infer": symmetric_normalize(cold_mask_matrix(full, is_cold))}


def graph_views(graph):
    return {"train": graph.adjacency("train"),
            "infer": graph.adjacency("infer")}


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def stacked_panels(features):
    return np.vstack([panel for _, panel in similarity_panels(features)])


@pytest.fixture()
def features(rng):
    # two clear clusters of 5 items each
    a = rng.normal(size=(5, 8)) * 0.1 + np.array([1.0] + [0.0] * 7)
    b = rng.normal(size=(5, 8)) * 0.1 + np.array([0.0, 1.0] + [0.0] * 6)
    return np.concatenate([a, b])


class TestSimilarity:
    def test_diagonal_is_one(self, features):
        """Each item's own entry is −inf (never its own neighbor), so the
        cosine of an item with itself shows on an exact copy of its row."""
        n = len(features)
        sims = stacked_panels(np.concatenate([features, features]))
        np.testing.assert_allclose(np.diag(sims, k=n), 1.0)
        assert np.all(np.diag(sims) == -np.inf)

    def test_within_cluster_higher(self, features):
        sims = stacked_panels(features)
        assert sims[0, 1] > sims[0, 6]

    def test_zero_rows_safe(self):
        feats = np.zeros((3, 4))
        feats[0] = 1.0
        sims = stacked_panels(feats)
        assert np.all(np.isfinite(sims[~np.eye(3, dtype=bool)]))


class TestKnn:
    def test_row_degree_bounded(self, features):
        adjacency = knn_sparsify(features, 3)
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        assert degrees.max() <= 3

    def test_no_self_loops(self, features):
        adjacency = knn_sparsify(features, 3)
        assert adjacency.diagonal().sum() == 0

    def test_neighbors_from_same_cluster(self, features):
        adjacency = knn_sparsify(features, 3)
        row = adjacency.getrow(0).indices
        assert all(n < 5 for n in row)

    def test_restrict_to_excludes_outsiders(self, features):
        warm = np.arange(5)
        adjacency = knn_sparsify(features, 3, restrict_to=warm)
        coo = adjacency.tocoo()
        assert coo.row.max() < 5 and coo.col.max() < 5

    def test_k_larger_than_candidates(self, features):
        adjacency = knn_sparsify(features, 100)
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        assert degrees.max() <= 9  # n-1


class TestColdMask:
    def test_blocks_cold_to_warm_only(self, features):
        adjacency = knn_sparsify(features, 9)
        is_cold = np.zeros(10, dtype=bool)
        is_cold[7:] = True
        masked = cold_mask_matrix(adjacency, is_cold).toarray()
        full = adjacency.toarray()
        # warm rows must not aggregate from cold columns
        assert masked[:7, 7:].sum() == 0
        # cold rows may aggregate from warm columns
        assert masked[7:, :7].sum() == full[7:, :7].sum()
        # warm-warm untouched
        np.testing.assert_array_equal(masked[:7, :7], full[:7, :7])


class TestItemItemGraph:
    def test_train_view_excludes_cold(self, features):
        warm = np.arange(7)
        is_cold = np.zeros(10, dtype=bool)
        is_cold[7:] = True
        graph = ItemItemGraph("text", features, 3, warm, is_cold)
        train = graph.adjacency("train").toarray()
        assert train[7:, :].sum() == 0 and train[:, 7:].sum() == 0

    def test_infer_view_gives_cold_items_edges(self, features):
        warm = np.arange(7)
        is_cold = np.zeros(10, dtype=bool)
        is_cold[7:] = True
        graph = ItemItemGraph("text", features, 3, warm, is_cold)
        infer = graph.adjacency("infer").toarray()
        assert infer[7:, :].sum() > 0          # cold rows receive
        assert infer[:7, 7:].sum() == 0        # warm rows never from cold

    def test_unknown_mode_raises(self, features):
        graph = ItemItemGraph("text", features, 3, np.arange(7),
                              np.zeros(10, dtype=bool))
        with pytest.raises(ValueError):
            graph.adjacency("test")


def golden_dataset():
    path = Path(__file__).resolve().parents[1] / "golden" / "protocol.py"
    spec = importlib.util.spec_from_file_location("golden_protocol", path)
    protocol = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(protocol)
    return build_dataset("golden-tiny", protocol.golden_world())


def repeated_rows(features):
    """Eight distinct rows, each repeated five times: every item has four
    exact copies, so a top-3 cut falls inside a group of equal ones."""
    return features[np.arange(len(features)) % 8]


#: case -> (dataset builder or conftest fixture name, feature transform,
#: top-k); every case fits one panel, so the panel is the full product
REFERENCE_CASES = {
    "golden": (golden_dataset, lambda f: f, 10),
    "conftest-90": ("small_dataset", lambda f: f, 10),
    "beauty-small": (lambda: load_amazon("beauty", size="small"),
                     lambda f: f, 10),
    "repeated-rows-40": (golden_dataset, repeated_rows, 3),
    "top-k-over-n": (golden_dataset, lambda f: f, 45),
}


class TestDenseReference:
    """One kNN path, byte for byte the graphs of the dense n×n matrix and
    per-row loop it replaced."""

    @pytest.mark.parametrize("case", list(REFERENCE_CASES))
    def test_views_byte_identical(self, case, request):
        make, transform, top_k = REFERENCE_CASES[case]
        dataset = (request.getfixturevalue(make) if isinstance(make, str)
                   else make())
        warm, is_cold = dataset.split.warm_items, dataset.split.is_cold
        for modality, raw in dataset.features.items():
            feats = transform(raw)
            assert kg_builder.PANEL_ELEMENTS >= len(feats) ** 2
            got = graph_views(ItemItemGraph(modality, feats, top_k, warm,
                                            is_cold))
            want = reference_views(cosine_similarity_matrix(feats), top_k,
                                   warm, is_cold)
            for view in got:
                assert_same_csr(got[view], want[view])

    def test_repeated_rows_tie_at_the_cut(self):
        sims = cosine_similarity_matrix(
            repeated_rows(golden_dataset().features["text"]))
        np.fill_diagonal(sims, -np.inf)
        ranked = -np.sort(-sims, axis=1)
        assert np.all(ranked[:, 2] == ranked[:, 3])

    @pytest.mark.parametrize("panel_rows", [1, 7, 40])
    def test_panels_select_like_the_loop_on_the_same_panels(
            self, monkeypatch, panel_rows):
        """40 items in panels of 1, 7 and 40 rows: the batched selection
        matches the per-row loop run on the stacked panels, ties
        included (panel bits may differ from the full product's)."""
        dataset = golden_dataset()
        warm, is_cold = dataset.split.warm_items, dataset.split.is_cold
        monkeypatch.setattr(kg_builder, "PANEL_ELEMENTS", 40 * panel_rows)
        for feats in (dataset.features["image"],
                      repeated_rows(dataset.features["text"])):
            first_start, first = next(similarity_panels(feats))
            assert first_start == 0 and len(first) == panel_rows
            stacked = stacked_panels(feats)
            for top_k in (3, 10):
                got = graph_views(ItemItemGraph("text", feats, top_k, warm,
                                                is_cold))
                want = reference_views(stacked, top_k, warm, is_cold)
                for view in got:
                    assert_same_csr(got[view], want[view])


class TestBlockedKnn:
    """Row panels select the same neighbor sets as the dense full-matrix
    path on fixtures without exact similarity ties at the cut boundary."""

    def _separated_features(self, rng, n=40, dim=8, clusters=4):
        centers = np.eye(clusters, dim) * 4.0
        return (centers[np.arange(n) % clusters]
                + rng.normal(size=(n, dim)) * 0.05)

    def test_matches_dense_path(self, rng, monkeypatch):
        feats = self._separated_features(rng)
        dense = reference_knn(cosine_similarity_matrix(feats), 3)
        for panel_rows in (1, 7, 2048):
            monkeypatch.setattr(kg_builder, "PANEL_ELEMENTS",
                                40 * panel_rows)
            assert (knn_sparsify(feats, 3) != dense).nnz == 0

    def test_matches_dense_path_with_restrict_to(self, rng, monkeypatch):
        feats = self._separated_features(rng)
        warm = np.arange(0, 40, 2)
        dense = reference_knn(cosine_similarity_matrix(feats), 3,
                              restrict_to=warm)
        monkeypatch.setattr(kg_builder, "PANEL_ELEMENTS", 40 * 11)
        blocked = knn_sparsify(feats, 3, restrict_to=warm)
        assert (blocked != dense).nnz == 0


class TestStorage:
    def test_one_graph_whatever_the_storage(self, tmp_path):
        """Cosines to item 0 that float32 rounds to 1.0 but float64 does
        not: an ndarray, an ``np.memmap`` of the same bytes and a float64
        copy give the same graph, the float64 one."""
        deltas = [5e-4, 4e-4, 3e-4, 2e-4, 1e-4]
        feats = np.array([[1.0, 0.0, 0.0]]
                         + [[1.0, d, 0.0] for d in deltas],
                         dtype=np.float32)
        np.save(tmp_path / "feats.npy", feats)
        mapped = np.load(tmp_path / "feats.npy", mmap_mode="r")
        assert isinstance(mapped, np.memmap)
        warm, is_cold = np.arange(6), np.zeros(6, dtype=bool)
        graphs = [graph_views(ItemItemGraph("text", f, 1, warm, is_cold))
                  for f in (feats, mapped, feats.astype(np.float64))]
        for other in graphs[1:]:
            for view in other:
                assert_same_csr(other[view], graphs[0][view])
        assert knn_sparsify(feats, 1).getrow(0).indices.tolist() == [5]


def test_graph_never_holds_a_dense_matrix():
    """numpy reports its buffers to tracemalloc; the peak must stay below
    half of one dense 4000 x 4000 float64 similarity matrix."""
    num_items = 4000
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((num_items, 48))
    warm = np.sort(rng.permutation(num_items)[:num_items * 4 // 5])
    is_cold = np.ones(num_items, dtype=bool)
    is_cold[warm] = False
    tracemalloc.start()
    try:
        graph = ItemItemGraph("text", feats, 10, warm, is_cold)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert graph.adjacency("infer").nnz > 0
    assert peak < num_items * num_items * 8 / 2
