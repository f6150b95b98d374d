"""Frozen-graph propagation engine.

The paper's graphs — the collaborative KG and the homogeneous
item-item/user-user kNN graphs — are all *frozen*: adjacency never
receives gradients, so every multi-layer propagation is a fixed linear
operator applied to trainable embeddings. This package precompiles those
operators once and shares them across the whole stack:

* **normalized-adjacency cache** — symmetric/row/softmax normalizations
  computed once per graph, pinned to CSR, never re-derived;
* **propagation plans** — one cached plan per (graph, depth, pooling)
  that runs the L sparse hops and pools them (mean or last);
* **`propagate()`** — the differentiable API every component, baseline,
  core model, and the serving path call instead of hand-rolling loops
  over :func:`repro.autograd.sparse.sparse_matmul`. Operators are
  float64, the exact values the published tables were trained with; a
  float32 operand (which :class:`~repro.autograd.tensor.Tensor`
  preserves) gets one float32 variant per plan, so no hot-path matmul
  converts. The serving store does not use plans: its onboarding runs
  :func:`apply_dense` at :data:`OPERATOR_DTYPE`.
"""

from .ops import (OPERATOR_DTYPE, apply_dense, as_operator,
                  mean_aggregation_operator)
from .propagate import (PropagationEngine, PropagationPlan, get_engine,
                        normalized_adjacency, propagate)

__all__ = [
    "OPERATOR_DTYPE",
    "PropagationEngine",
    "PropagationPlan",
    "apply_dense",
    "as_operator",
    "get_engine",
    "mean_aggregation_operator",
    "normalized_adjacency",
    "propagate",
]
