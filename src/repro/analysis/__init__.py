"""Analysis utilities: t-SNE (Fig. 8), timing (Table VII), case study
(Fig. 7)."""

from .case_study import SimilarItems, run_case_study, similar_items_under_subset
from .timing import (ThroughputResult, TimingRow, measure_feature_sets,
                     measure_ranking_throughput)
from .tsne import (TSNEResult, centroid_distance_ratio, distribution_overlap,
                   tsne)

__all__ = [
    "SimilarItems",
    "run_case_study",
    "similar_items_under_subset",
    "ThroughputResult",
    "TimingRow",
    "measure_feature_sets",
    "measure_ranking_throughput",
    "TSNEResult",
    "tsne",
    "distribution_overlap",
    "centroid_distance_ratio",
]
