"""WGAN-GP-style discriminator for interaction-graph rows (paper eq. 26-27).

Architecture follows the paper exactly:
``D(x) = sigmoid(Drop(BN(LeakyReLU(Linear(x)))))``, applied to rows of a
(virtual or augmented) user-item interaction matrix.

Every pass runs as one fused node,
:func:`repro.autograd.fused.discriminator_pass`, over the layers of the
``network`` (which owns the parameters, the batch-norm statistics and
the dropout generator). The generator scores a *frozen* D on the
*factored* virtual graph: given user vectors ``U`` and item vectors
``I``, the first layer is ``U (I^T W1)``, so the users x items matrix is
never built, and no parameter gradient is taken.

Substitution note: the paper's gradient penalty needs second-order autodiff,
which our tape engine does not provide. We use a *finite-difference*
directional gradient penalty: sample a random unit direction ``v``, estimate
``||nabla D|| ~ |D(x + eps v) - D(x)| / eps`` along it, and penalize its
deviation from 1. Both passes apply one dropout mask, so they differ only
by the perturbation. This is differentiable with first-order autodiff and
enforces the same 1-Lipschitz objective in expectation over directions.
"""

from __future__ import annotations

import numpy as np

from ..autograd import Tensor, fused
from ..autograd.nn import (BatchNorm1d, Dropout, LeakyReLU, Linear, Module,
                           Sequential, Sigmoid)


class GraphRowDiscriminator(Module):
    """Scores rows of a user-item interaction matrix as real/generated."""

    def __init__(self, num_items: int, hidden_dim: int,
                 rng: np.random.Generator, dropout: float = 0.2):
        super().__init__()
        self.num_items = num_items
        self.network = Sequential(
            Linear(num_items, hidden_dim, rng),
            LeakyReLU(0.2),
            BatchNorm1d(hidden_dim),
            Dropout(dropout, np.random.default_rng(
                int(rng.integers(0, 2 ** 31)))),
            Linear(hidden_dim, 1, rng),
            Sigmoid(),
        )
        self._fd_rng = np.random.default_rng(int(rng.integers(0, 2 ** 31)))

    def forward(self, rows: Tensor, items: Tensor | None = None,
                frozen: bool = False) -> Tensor:
        """Mean discriminator score over ``rows`` or, given ``items``,
        over the rows of ``rows @ items.T``; a ``frozen`` pass takes no
        parameter gradients."""
        return fused.discriminator_pass(self.network, rows, items,
                                        frozen=frozen)

    def gradient_penalty(self, interpolated: Tensor,
                         eps: float = 1e-2) -> Tensor:
        """Finite-difference one-sided gradient penalty (see module doc)."""
        direction = self._fd_rng.normal(size=interpolated.shape)
        direction /= max(np.linalg.norm(direction), 1e-12)
        mask = fused.discriminator_mask(self.network, len(interpolated))
        base = fused.discriminator_pass(self.network, interpolated,
                                        reduce="sum", mask=mask)
        shifted = fused.discriminator_pass(
            self.network, interpolated + Tensor(eps * direction),
            reduce="sum", mask=mask)
        grad_norm = ((shifted - base) * (1.0 / eps)).abs()
        return (grad_norm - 1.0) ** 2


def gumbel_augmented_graph(observed_rows: np.ndarray, user_final: np.ndarray,
                           item_final: np.ndarray, user_ids: np.ndarray,
                           temperature: float, aux_weight: float,
                           rng: np.random.Generator) -> np.ndarray:
    """Build the augmented objective graph G_aug (paper eq. 23-25).

    Observed interaction rows pass through a Gumbel-softmax relaxation and
    receive an auxiliary cosine-similarity signal from the final user/item
    embeddings. Returned as a constant (the discriminator's "real" data).
    """
    gumbel = -np.log(-np.log(
        rng.uniform(1e-10, 1.0, size=observed_rows.shape)))
    logits = (observed_rows + gumbel) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    soft = np.exp(logits)
    soft /= soft.sum(axis=1, keepdims=True)

    users = user_final[user_ids]
    u_norm = users / np.maximum(
        np.linalg.norm(users, axis=1, keepdims=True), 1e-12)
    i_norm = item_final / np.maximum(
        np.linalg.norm(item_final, axis=1, keepdims=True), 1e-12)
    phi = u_norm @ i_norm.T
    return soft + aux_weight * phi
