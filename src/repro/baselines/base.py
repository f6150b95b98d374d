"""Common interface for every recommender in the reproduction.

A model owns its parameters (via :class:`repro.autograd.nn.Module`), exposes
a pairwise training loss, and produces final user/item representation
matrices for the all-ranking evaluation. Strict cold-start support is a
property of how ``item_representations`` handles items without training
interactions.
"""

from __future__ import annotations

import numpy as np

from ..autograd.nn import Module
from ..data.datasets import RecDataset


class Recommender(Module):
    """Abstract base recommender.

    Subclasses implement :meth:`loss` (pairwise training objective) and
    :meth:`compute_representations` (final user and item matrices). Scoring
    is the inner product of those matrices, which is what every model in
    the paper's comparison uses.
    """

    name = "base"
    #: whether the model consumes multi-modal features
    uses_modalities = False
    #: whether the model consumes the knowledge graph
    uses_kg = False

    def __init__(self, dataset: RecDataset, embedding_dim: int,
                 rng: np.random.Generator):
        super().__init__()
        self.dataset = dataset
        self.embedding_dim = embedding_dim
        self.rng = rng
        self.num_users = dataset.num_users
        self.num_items = dataset.num_items
        self._cached_users: np.ndarray | None = None
        self._cached_items: np.ndarray | None = None

    # -- training ------------------------------------------------------
    def loss(self, users: np.ndarray, pos_items: np.ndarray,
             neg_items: np.ndarray):
        """Return the training loss Tensor for one BPR batch."""
        raise NotImplementedError

    def extra_step(self) -> None:
        """Hook run once per epoch for models with auxiliary objectives
        optimized on a separate schedule (e.g. Firzen's and KGAT's TransR
        loss, trained alternately with the recommendation loss)."""

    def on_epoch_end(self, epoch: int) -> None:
        """Hook for per-epoch state updates (momentum weights etc.)."""

    def adapt_to_interactions(self, extra: np.ndarray) -> None:
        """Incorporate newly-observed user-item links at inference time.

        This is the normal cold-start protocol (paper Table VI): the known
        half of cold interactions becomes available after training. The
        default is a no-op — ID-based models without an interaction graph
        (BPR, CKE, KGCN, ...) cannot exploit the new links, which is
        exactly why they gain little in that experiment. Graph-based
        models override this to rebuild their frozen propagation
        structures.
        """
        self.invalidate()

    # -- inference ------------------------------------------------------
    def compute_representations(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(user_matrix, item_matrix)`` used for scoring.

        Called after training (and whenever caches are invalidated); must
        include strict cold-start items in the item matrix.
        """
        raise NotImplementedError

    def refresh(self) -> None:
        """Recompute and cache the representation matrices."""
        self._cached_users, self._cached_items = \
            self.compute_representations()

    def invalidate(self) -> None:
        self._cached_users = None
        self._cached_items = None

    def user_matrix(self) -> np.ndarray:
        if self._cached_users is None:
            self.refresh()
        return self._cached_users

    def item_matrix(self) -> np.ndarray:
        if self._cached_items is None:
            self.refresh()
        return self._cached_items

    def score_users(self, user_ids: np.ndarray) -> np.ndarray:
        """Scores over all items for each user id (rows align with input).

        Returns a new array the caller may overwrite: evaluation masks
        and ranks it in place. Overrides keep that contract.
        """
        users = self.user_matrix()[np.asarray(user_ids, dtype=np.int64)]
        return users @ self.item_matrix().T

    def item_embeddings(self) -> np.ndarray:
        """Final item representations (used by the Fig. 8 t-SNE analysis)."""
        return self.item_matrix()
