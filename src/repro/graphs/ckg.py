"""Collaborative knowledge graph (paper section III-B.1).

Follows KGAT's definition: every interaction ``(u, i)`` becomes a triplet
``(u, Interact, i)``; the user nodes are appended *after* the KG entity
ids, and the union with the item KG forms a single relational graph
``G_ck``. Items are already aligned with entity ids ``[0, num_items)``.

Node layout::

    [0, num_entities)                      KG entities (items first)
    [num_entities, num_entities + users)   user nodes
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.kg_builder import KnowledgeGraph, triplet_keys


@dataclass
class CollaborativeKG:
    """The unified relational graph plus index structures for attention."""

    triplets: np.ndarray        # (n, 3) (head, relation, tail), CKG node ids
    num_nodes: int
    num_relations: int          # KG relations + 1 (Interact)
    num_entities: int           # KG entities (items + attributes)
    num_users: int
    num_items: int
    interact_relation: int      # id of the Interact relation

    def user_node(self, user) -> np.ndarray:
        """Map user index -> CKG node id."""
        return np.asarray(user) + self.num_entities


def build_collaborative_kg(kg: KnowledgeGraph, interactions: np.ndarray,
                           num_users: int) -> CollaborativeKG:
    """Union the item KG with Interact triplets in both directions.

    Each interaction gives a ``(u, Interact, i)`` edge and its reverse
    ``(i, Interact, u)``, so item heads also aggregate from their users —
    KGAT treats the CKG as containing each triplet and its inverse; we
    fold both directions into the same Interact relation for simplicity.
    """
    interact_relation = kg.num_relations
    num_nodes = kg.num_entities + num_users

    users = interactions[:, 0] + kg.num_entities
    items = interactions[:, 1]
    relation = np.full(len(users), interact_relation)
    interact = np.stack([users, relation, items], axis=1)
    reverse = np.stack([items, relation, users], axis=1)
    triplets = np.concatenate([kg.triplets, interact, reverse]).astype(
        np.int64)

    return CollaborativeKG(
        triplets=triplets,
        num_nodes=num_nodes,
        num_relations=kg.num_relations + 1,
        num_entities=kg.num_entities,
        num_users=num_users,
        num_items=kg.num_items,
        interact_relation=interact_relation,
    )


def sample_kg_negatives(kg: KnowledgeGraph, batch_size: int,
                        rng: np.random.Generator) -> tuple:
    """Sample ``(h, r, t_pos, t_neg)`` for the TransR loss (eq. 30).

    Negative tails are uniform entity draws re-sampled until the corrupted
    triplet is not in the KG (at most ten re-draws per slot).
    """
    if kg.num_triplets == 0:
        raise ValueError("cannot sample from an empty KG")
    idx = rng.integers(0, kg.num_triplets, size=batch_size)
    pos = kg.triplets[idx]
    neg_tails = rng.integers(0, kg.num_entities, size=batch_size)
    # One vectorized membership pass over the batch; only the colliding
    # slots re-draw, depth-first per slot so the generator stream
    # matches the original all-Python rejection loop exactly. A re-draw
    # is tested with one scalar search of the KG's sorted keys.
    index = kg.sorted_triplet_keys()
    for i in np.flatnonzero(
            kg.contains_triplets(pos[:, 0], pos[:, 1], neg_tails)):
        # the key of (head, relation, tail) is this base plus the tail
        base = int(triplet_keys(pos[i, 0], pos[i, 1], 0, kg.num_relations,
                                kg.num_entities))
        for _ in range(10):
            neg_tails[i] = rng.integers(0, kg.num_entities)
            key = base + int(neg_tails[i])
            slot = int(index.searchsorted(key))
            if slot == len(index) or index[slot] != key:
                break
    return pos[:, 0], pos[:, 1], pos[:, 2], neg_tails
