"""Tests for the batched ranking kernels: exact parity with the seed
per-user path is the contract."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.eval.protocol import evaluate_scenario, rank_candidates
from repro.serve.ranker import (SCORE_TILE, BatchRanker, apply_seen_mask,
                                interactions_to_csr, topk_from_scores)


def reference_rankings(scores, candidates, k, seen=None):
    """The seed evaluation loop, verbatim: per-user copy, set masking,
    rank_candidates."""
    out = []
    for row in range(scores.shape[0]):
        user_scores = scores[row].copy()
        for item in (seen or {}).get(row, ()):
            user_scores[item] = -np.inf
        out.append(rank_candidates(user_scores, candidates, k))
    return np.asarray(out)


def metrics_reference():
    """The per-user metric loop kept in ``tests/eval``."""
    path = (Path(__file__).resolve().parents[1] / "eval"
            / "metrics_reference.py")
    spec = importlib.util.spec_from_file_location("metrics_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestInteractionsToCsr:
    def test_shape_and_contents(self):
        pairs = np.array([[0, 1], [0, 2], [2, 0]])
        matrix = interactions_to_csr(pairs, 3, 4)
        assert matrix.shape == (3, 4)
        assert matrix[0, 1] and matrix[0, 2] and matrix[2, 0]
        assert matrix.nnz == 3

    def test_duplicates_collapse(self):
        pairs = np.array([[1, 1], [1, 1], [1, 2]])
        matrix = interactions_to_csr(pairs, 2, 3)
        assert bool(matrix[1, 1]) is True
        assert matrix[1].getnnz() == 2

    def test_empty(self):
        matrix = interactions_to_csr(np.empty((0, 2)), 5, 6)
        assert matrix.shape == (5, 6) and matrix.nnz == 0


class TestApplySeenMask:
    def test_masks_csr_rows(self, rng):
        scores = rng.normal(size=(3, 6))
        seen = interactions_to_csr(np.array([[4, 2], [9, 5]]), 10, 6)
        apply_seen_mask(scores, np.array([4, 0, 9]), seen)
        assert scores[0, 2] == -np.inf
        assert scores[2, 5] == -np.inf
        assert np.isfinite(scores[1]).all()

    def test_seen_scatter_matches_loop_on_duplicate_users(self, rng):
        # The flattened (row, col) scatter must mask exactly what a
        # per-row loop masks, including when the same user appears in
        # several rows and when a user's pairs repeat.
        users = np.array([3, 7, 3, 3, 9, 7, 11])
        pairs = np.array([[3, 0], [3, 5], [3, 5], [7, 2], [11, 1], [11, 8],
                          [99, 4]])  # 99 not in the batch, 9 has no pairs
        scores = rng.normal(size=(len(users), 12))
        expected = scores.copy()
        for row, user in enumerate(users):
            expected[row, pairs[pairs[:, 0] == user, 1]] = -np.inf
        apply_seen_mask(scores, users, interactions_to_csr(pairs, 100, 12))
        np.testing.assert_array_equal(scores, expected)


class TestTopkFromScores:
    def test_matches_rank_candidates_continuous(self, rng):
        scores = rng.normal(size=(40, 60))
        candidates = rng.choice(60, size=35, replace=False)
        result = topk_from_scores(scores, 10, candidates=candidates)
        expected = reference_rankings(scores, candidates, 10)
        np.testing.assert_array_equal(result.items, expected)

    def test_matches_rank_candidates_with_heavy_ties(self, rng):
        # Quantized scores force ties everywhere, including at the k-th
        # boundary: the batched kernel must make the same tie choices as
        # the seed's 1-D argpartition + stable sort.
        scores = np.round(rng.normal(size=(50, 30)), 1)
        candidates = np.arange(30)
        result = topk_from_scores(scores, 7, candidates=candidates)
        expected = reference_rankings(scores, candidates, 7)
        np.testing.assert_array_equal(result.items, expected)

    def test_scores_align_with_items(self, rng):
        scores = rng.normal(size=(5, 12))
        result = topk_from_scores(scores, 4)
        for row in range(5):
            np.testing.assert_allclose(result.scores[row],
                                       scores[row][result.items[row]])

    def test_k_clamped_to_candidates(self, rng):
        scores = rng.normal(size=(3, 10))
        result = topk_from_scores(scores, 99, candidates=np.array([2, 5]))
        assert result.items.shape == (3, 2)

    def test_empty_candidates(self, rng):
        scores = rng.normal(size=(3, 10))
        result = topk_from_scores(scores, 5, candidates=np.array([], int))
        assert result.items.shape == (3, 0)


class TestBatchRanker:
    @pytest.fixture()
    def vectors(self, rng):
        return rng.normal(size=(30, 8)), rng.normal(size=(50, 8))

    # 16 < the 50-item catalog (and the 40 candidates) exercises the
    # tiled scoring branch; the default tile scores in one GEMM.
    @pytest.mark.parametrize("score_tile", [16, SCORE_TILE])
    def test_matches_reference_with_seen_and_candidates(self, vectors, rng,
                                                        score_tile):
        users_mat, items_mat = vectors
        pairs = np.array([[u, rng.integers(50)] for u in range(30)
                          for _ in range(3)])
        seen = interactions_to_csr(pairs, 30, 50)
        ranker = BatchRanker(users_mat, items_mat, seen=seen, block_size=7,
                             score_tile=score_tile)
        users = np.arange(30)
        # 22 of the 90 seen pairs fall outside these candidates
        candidates = rng.choice(50, size=40, replace=False)
        result = ranker.topk(users, 5, candidates=candidates)

        scores = users_mat @ items_mat.T
        seen_sets = {int(u): set(seen[u].indices) for u in users}
        expected = reference_rankings(scores, candidates, 5, seen_sets)
        np.testing.assert_array_equal(result.items, expected)

    def test_full_catalog_equals_candidate_all(self, vectors):
        users_mat, items_mat = vectors
        ranker = BatchRanker(users_mat, items_mat, block_size=4)
        users = np.arange(11)
        full = ranker.topk(users, 6)
        explicit = ranker.topk(users, 6, candidates=np.arange(50))
        np.testing.assert_array_equal(full.items, explicit.items)
        np.testing.assert_array_equal(full.scores, explicit.scores)

    def test_blocking_is_invisible(self, vectors):
        users_mat, items_mat = vectors
        users = np.arange(30)
        small = BatchRanker(users_mat, items_mat, block_size=3)
        big = BatchRanker(users_mat, items_mat, block_size=1000)
        np.testing.assert_array_equal(small.topk(users, 8).items,
                                      big.topk(users, 8).items)

    def test_mask_seen_off(self, vectors, rng):
        users_mat, items_mat = vectors
        seen = interactions_to_csr(np.array([[0, 3]]), 30, 50)
        ranker = BatchRanker(users_mat, items_mat, seen=seen)
        masked = ranker.topk(np.array([0]), 50)
        unmasked = ranker.topk(np.array([0]), 50, mask_seen=False)
        assert 3 not in masked.items[0][np.isfinite(masked.scores[0])]
        assert 3 in unmasked.items[0]

    def test_seen_masks_every_duplicate_row(self, vectors):
        users_mat, items_mat = vectors
        seen = interactions_to_csr(np.array([[4, 1]]), 30, 50)
        ranker = BatchRanker(users_mat, items_mat, seen=seen)
        result = ranker.topk(np.array([4, 4]), 50)
        for row in range(2):
            finite = result.items[row][np.isfinite(result.scores[row])]
            assert 1 not in finite
        np.testing.assert_array_equal(result.items[0], result.items[1])

    def test_from_model(self, tiny_dataset):
        from repro.baselines import create_model
        model = create_model("BPR", tiny_dataset, embedding_dim=8)
        ranker = BatchRanker.from_model(model, block_size=2)
        assert ranker.block_size == 2 and ranker.seen is None
        users = np.arange(5)
        expected = topk_from_scores(model.score_users(users), 10)
        result = ranker.topk(users, 10)
        np.testing.assert_array_equal(result.items, expected.items)
        np.testing.assert_allclose(result.scores, expected.scores)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            BatchRanker(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))

    def test_invalid_score_tile_rejected(self, rng):
        with pytest.raises(ValueError):
            BatchRanker(rng.normal(size=(3, 4)), rng.normal(size=(5, 4)),
                        score_tile=0)

    def test_no_negated_item_matrix_resident(self):
        # Satellite of the eager-negation removal: constructing a ranker
        # over a large catalog and scoring against it must not allocate
        # a second catalog-sized matrix (the old `_neg_item_vectors`
        # copy). Peak RSS is a high-water mark, so the item matrix is
        # sized to dominate anything the suite has touched so far; the
        # old copy would add its full 128 MB on top of the baseline.
        import resource

        num_items, dim = 500_000, 64
        rng = np.random.default_rng(0)
        items_mat = rng.standard_normal((num_items, dim), dtype=np.float32)
        users_mat = rng.standard_normal((4, dim), dtype=np.float32)
        baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        ranker = BatchRanker(users_mat, items_mat, block_size=4)
        ranker.topk(np.arange(4), 10)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        item_matrix_kb = items_mat.nbytes // 1024
        # scoring working set (score block + argpartition indices) is
        # ~24 MB here; a negated catalog copy would be 128 MB
        assert peak_kb - baseline_kb < item_matrix_kb // 2


class TestProtocolParity:
    """The rewired evaluate_scenario must reproduce the seed loop."""

    def _seed_evaluate_rankings(self, model, split, which, k):
        truth = split.ground_truth(which)
        users = np.asarray(sorted(truth.keys()), dtype=np.int64)
        cold = which.startswith("cold")
        candidates = np.asarray(split.cold_items if cold
                                else split.warm_items)
        seen = split.train_items_by_user() if not cold else {}
        scores = model.score_users(users)
        rankings = {}
        for row, user in enumerate(users):
            user_scores = scores[row].copy()
            for item in seen.get(int(user), ()):
                user_scores[item] = -np.inf
            rankings[int(user)] = rank_candidates(user_scores, candidates, k)
        return rankings

    def test_identical_rankings_to_seed_loop(self, tiny_dataset):
        from repro.baselines import create_model
        model = create_model("MostPopular", tiny_dataset, embedding_dim=8)
        split = tiny_dataset.split
        for which in ("warm_test", "cold_test"):
            seed_rankings = self._seed_evaluate_rankings(model, split,
                                                         which, 20)
            truth = split.ground_truth(which)
            users = np.asarray(sorted(truth.keys()), dtype=np.int64)
            cold = which.startswith("cold")
            candidates = np.asarray(split.cold_items if cold
                                    else split.warm_items)
            scores = np.array(model.score_users(users), dtype=np.float64)
            seen = None if cold else interactions_to_csr(
                split.train, split.num_users, split.num_items)
            apply_seen_mask(scores, users, seen)
            batched = topk_from_scores(scores, 20, candidates=candidates)
            for row, user in enumerate(users):
                np.testing.assert_array_equal(seed_rankings[int(user)],
                                              batched.items[row])

    def test_evaluate_scenario_metrics_unchanged(self, tiny_dataset):
        from repro.baselines import create_model
        model = create_model("MostPopular", tiny_dataset, embedding_dim=8)
        result = evaluate_scenario(model, tiny_dataset.split, "warm_test",
                                   k=10)
        # Re-deriving the metrics from the seed loop must agree exactly.
        evaluate_rankings = metrics_reference().evaluate_rankings
        seed_rankings = self._seed_evaluate_rankings(
            model, tiny_dataset.split, "warm_test", 10)
        truth = tiny_dataset.split.ground_truth("warm_test")
        expected = evaluate_rankings(seed_rankings, truth, k=10)
        assert result == expected
