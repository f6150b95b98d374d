"""Negative sampling for BPR-style pairwise training."""

from __future__ import annotations

import numpy as np

from ..utils.arrays import sorted_unique


class BPRSampler:
    """Negative sampler over warm items.

    Negatives are drawn uniformly from the *warm* item set (the paper's
    setup; cold items are by definition unseen in training) and re-drawn
    while they collide with the user's positive set.
    """

    def __init__(self, train_interactions: np.ndarray, num_items: int,
                 warm_items: np.ndarray, rng: np.random.Generator):
        self.train = np.asarray(train_interactions, dtype=np.int64)
        self.num_items = num_items
        self.warm_items = np.asarray(warm_items, dtype=np.int64)
        self.rng = rng
        self._positives: dict[int, set] = {}
        for user, item in self.train:
            self._positives.setdefault(int(user), set()).add(int(item))
        # Sorted (user, item) keys for the vectorized collision test in
        # sample_negatives; empty train sets still get a valid array.
        self._positive_keys = sorted_unique(
            self.train[:, 0] * np.int64(num_items) + self.train[:, 1]
        ) if len(self.train) else np.empty(0, dtype=np.int64)

    def _draw(self, size: int) -> np.ndarray:
        return self.warm_items[
            self.rng.integers(0, len(self.warm_items), size=size)]

    def positives_of(self, user: int) -> set:
        return self._positives.get(int(user), set())

    def _is_positive(self, users: np.ndarray,
                     items: np.ndarray) -> np.ndarray:
        """Vectorized membership test against the training positives."""
        if not len(self._positive_keys):
            return np.zeros(len(users), dtype=bool)
        keys = users * np.int64(self.num_items) + items
        slot = np.searchsorted(self._positive_keys, keys)
        slot = np.minimum(slot, len(self._positive_keys) - 1)
        return self._positive_keys[slot] == keys

    def sample_negatives(self, users: np.ndarray) -> np.ndarray:
        """One warm negative per user, avoiding their training positives.

        The batch is tested for collisions in one vectorized pass; only
        the (rare) colliding slots fall back to the per-slot rejection
        loop. Redraws are depth-first per slot, consuming the generator
        stream exactly like the original all-Python loop, so sampling —
        and therefore every downstream training trajectory — is
        bit-reproducible against it.
        """
        users = np.asarray(users, dtype=np.int64)
        negatives = self._draw(len(users))
        for i in np.flatnonzero(self._is_positive(users, negatives)):
            positives = self._positives.get(int(users[i]), set())
            tries = 0
            while int(negatives[i]) in positives and tries < 20:
                negatives[i] = self._draw(1)[0]
                tries += 1
        return negatives

    def epoch_batches(self, batch_size: int):
        """Yield ``(users, pos_items, neg_items)`` batches covering the
        training set once in random order."""
        perm = self.rng.permutation(len(self.train))
        shuffled = self.train[perm]
        for start in range(0, len(shuffled), batch_size):
            batch = shuffled[start:start + batch_size]
            users = batch[:, 0]
            pos = batch[:, 1]
            neg = self.sample_negatives(users)
            yield users, pos, neg
