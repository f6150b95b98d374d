"""Strict cold-start benchmark splits (paper section IV-A).

The paper's recipe for the Amazon benchmarks:

* 20% of items are randomly chosen as strict cold-start items, split 1:1
  into cold validation and cold testing sets;
* the remaining (warm) items' interactions are divided 8:1:1 into training,
  warm validation, and warm testing.

For the normal cold-start experiment (Table VI), cold validation/testing
interactions are further split 1:1 into *known* (available as extra edges
at inference) and *unknown* (evaluated) sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ColdStartSplit:
    """Index arrays describing a strict cold-start benchmark split.

    All interaction arrays are ``(n, 2)`` of ``(user, item)``.
    """

    num_users: int
    num_items: int
    warm_items: np.ndarray
    cold_items: np.ndarray
    train: np.ndarray
    warm_val: np.ndarray
    warm_test: np.ndarray
    cold_val: np.ndarray
    cold_test: np.ndarray
    # Normal cold-start refinement (populated by split_normal_cold)
    cold_val_known: np.ndarray = field(default=None)
    cold_val_unknown: np.ndarray = field(default=None)
    cold_test_known: np.ndarray = field(default=None)
    cold_test_unknown: np.ndarray = field(default=None)

    @property
    def is_cold(self) -> np.ndarray:
        """Boolean mask over items: True for strict cold-start items."""
        mask = np.zeros(self.num_items, dtype=bool)
        mask[self.cold_items] = True
        return mask

    def train_items_by_user(self) -> dict[int, set[int]]:
        """User -> set of items seen in training (for candidate masking)."""
        seen: dict[int, set[int]] = {}
        for user, item in self.train:
            seen.setdefault(int(user), set()).add(int(item))
        return seen

    def ground_truth(self, which: str) -> dict[int, set[int]]:
        """User -> relevant items for an evaluation split.

        ``which`` is one of ``warm_val/warm_test/cold_val/cold_test/
        cold_val_unknown/cold_test_unknown``.
        """
        interactions = getattr(self, which)
        if interactions is None:
            raise ValueError(f"split {which!r} not populated")
        truth: dict[int, set[int]] = {}
        for user, item in interactions:
            truth.setdefault(int(user), set()).add(int(item))
        return truth


def make_cold_start_split(interactions: np.ndarray, num_users: int,
                          num_items: int, rng: np.random.Generator,
                          cold_fraction: float = 0.2,
                          train_ratio: float = 0.8) -> ColdStartSplit:
    """Build the paper's strict cold-start split from raw interactions.

    ``cold_fraction`` must lie in [0, 1]: outside it, the cold slice of
    the shuffled items would wrap (a negative count) or swallow every
    item and leave nothing to train on.
    """
    if not 0.0 <= cold_fraction <= 1.0:
        raise ValueError(f"cold_fraction must be in [0, 1], got "
                         f"{cold_fraction}")
    items = np.arange(num_items)
    shuffled = rng.permutation(items)
    num_cold = int(round(cold_fraction * num_items))
    cold_items = np.sort(shuffled[:num_cold])
    warm_items = np.sort(shuffled[num_cold:])
    is_cold = np.zeros(num_items, dtype=bool)
    is_cold[cold_items] = True

    cold_mask = is_cold[interactions[:, 1]]
    cold_inter = interactions[cold_mask]
    warm_inter = interactions[~cold_mask]

    # Cold interactions -> 1:1 validation / test.
    perm = rng.permutation(len(cold_inter))
    half = len(cold_inter) // 2
    cold_val = cold_inter[perm[:half]]
    cold_test = cold_inter[perm[half:]]

    # Warm interactions -> 8:1:1 train / val / test, stratified per user so
    # every training user keeps some history.
    train_rows, val_rows, test_rows = [], [], []
    order = np.argsort(warm_inter[:, 0], kind="stable")
    warm_sorted = warm_inter[order]
    boundaries = np.flatnonzero(np.diff(warm_sorted[:, 0])) + 1
    for group_index, group in enumerate(np.split(warm_sorted, boundaries)):
        perm = rng.permutation(len(group))
        group = group[perm]
        n = len(group)
        n_train = max(int(round(train_ratio * n)), 1)
        remaining = n - n_train
        # Alternate which side receives the odd leftover interaction so the
        # global val:test ratio stays 1:1.
        if group_index % 2 == 0:
            n_val = remaining // 2
        else:
            n_val = remaining - remaining // 2
        train_rows.append(group[:n_train])
        val_rows.append(group[n_train:n_train + n_val])
        test_rows.append(group[n_train + n_val:])

    def _concat(rows: list) -> np.ndarray:
        rows = [r for r in rows if len(r)]
        if not rows:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(rows)

    return ColdStartSplit(
        num_users=num_users,
        num_items=num_items,
        warm_items=warm_items,
        cold_items=cold_items,
        train=_concat(train_rows),
        warm_val=_concat(val_rows),
        warm_test=_concat(test_rows),
        cold_val=cold_val,
        cold_test=cold_test,
    )


def split_normal_cold(split: ColdStartSplit,
                      rng: np.random.Generator) -> ColdStartSplit:
    """Populate the known/unknown halves for the normal cold-start protocol
    (Table VI): the known half provides user-item links usable at inference,
    the unknown half is what gets evaluated."""
    def _halve(interactions: np.ndarray):
        perm = rng.permutation(len(interactions))
        half = len(interactions) // 2
        return interactions[perm[:half]], interactions[perm[half:]]

    split.cold_val_known, split.cold_val_unknown = _halve(split.cold_val)
    split.cold_test_known, split.cold_test_unknown = _halve(split.cold_test)
    return split
