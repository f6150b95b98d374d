"""The benchmark container every model consumes.

``RecDataset`` bundles interactions, the strict cold-start split, per-item
multi-modal features, and the knowledge graph — the exact inputs of the
paper's task formulation (section II): ``G_inter``, ``G_know``, ``F_I``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kg_builder import KnowledgeGraph, build_knowledge_graph
from .splits import ColdStartSplit, make_cold_start_split, split_normal_cold
from .world import World, WorldConfig, apply_k_core, generate_world


@dataclass
class DatasetStatistics:
    """The quantities reported in the paper's Table I."""

    name: str
    num_users: int
    num_items: int
    num_warm_items: int
    num_cold_items: int
    num_interactions: int
    avg_interactions_per_user: float
    avg_interactions_per_item: float
    sparsity: float
    num_entities: int
    num_relations: int
    num_triplets: int

    def as_row(self) -> dict:
        return {
            "Dataset": self.name,
            "#Users": self.num_users,
            "#Items": self.num_items,
            "#Warm-start items": self.num_warm_items,
            "#Strict cold-start items": self.num_cold_items,
            "#Interactions": self.num_interactions,
            "#Avg. Inter. of Users": round(self.avg_interactions_per_user, 3),
            "#Avg. Inter. of Items": round(self.avg_interactions_per_item, 3),
            "Sparsity": f"{self.sparsity * 100:.3f}%",
            "#Entities": self.num_entities,
            "#Relations": self.num_relations + 1,  # + Interact
            "#Triplets": self.num_triplets,
        }


@dataclass
class RecDataset:
    """A strict cold-start recommendation benchmark."""

    name: str
    num_users: int
    num_items: int
    split: ColdStartSplit
    features: dict                     # modality -> (num_items, dim) array
    kg: KnowledgeGraph
    world: World = field(repr=False, default=None)

    @property
    def modalities(self) -> tuple:
        return tuple(self.features.keys())

    @property
    def train_interactions(self) -> np.ndarray:
        return self.split.train

    def feature_dim(self, modality: str) -> int:
        return self.features[modality].shape[1]

    def statistics(self) -> DatasetStatistics:
        """Compute the Table I row for this dataset."""
        all_inter = np.concatenate([
            self.split.train, self.split.warm_val, self.split.warm_test,
            self.split.cold_val, self.split.cold_test,
        ])
        num_inter = len(all_inter)
        return DatasetStatistics(
            name=self.name,
            num_users=self.num_users,
            num_items=self.num_items,
            num_warm_items=len(self.split.warm_items),
            num_cold_items=len(self.split.cold_items),
            num_interactions=num_inter,
            avg_interactions_per_user=num_inter / max(self.num_users, 1),
            avg_interactions_per_item=num_inter / max(self.num_items, 1),
            sparsity=1.0 - num_inter / (self.num_users * self.num_items),
            num_entities=self.kg.num_entities,
            num_relations=self.kg.num_relations,
            num_triplets=self.kg.num_triplets,
        )

    def with_kg(self, kg: KnowledgeGraph) -> "RecDataset":
        """Copy with a different KG (used by noise-injection experiments)."""
        return RecDataset(
            name=self.name,
            num_users=self.num_users,
            num_items=self.num_items,
            split=self.split,
            features=self.features,
            kg=kg,
            world=self.world,
        )


def build_dataset(name: str, config: WorldConfig,
                  cold_fraction: float = 0.2) -> RecDataset:
    """Generate a world, apply the 5-core filter, split, and build the KG."""
    world = generate_world(config)
    interactions = apply_k_core(world.interactions, k=5)
    rng = np.random.default_rng(config.seed + 1)
    split = make_cold_start_split(
        interactions, config.num_users, config.num_items, rng,
        cold_fraction=cold_fraction)
    split_normal_cold(split, rng)

    kg = build_knowledge_graph(world)
    features = {
        "text": world.text_features,
        "image": world.image_features,
    }
    return RecDataset(
        name=name,
        num_users=config.num_users,
        num_items=config.num_items,
        split=split,
        features=features,
        kg=kg,
        world=world,
    )
