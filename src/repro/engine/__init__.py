"""Frozen-graph propagation engine.

The paper's graphs — the collaborative KG and the homogeneous
item-item/user-user kNN graphs — are all *frozen*: adjacency never
receives gradients, so every multi-layer propagation is a fixed linear
operator applied to trainable embeddings. This package precompiles those
operators once and shares them across the whole stack:

* **normalized-adjacency cache** — symmetric/row/softmax normalizations
  computed once per graph, pinned to CSR, never re-derived;
* **operator folding** — an L-layer mean-pooled propagation collapses
  into one precomputed sparse operator ``M = (1/(L+1)) sum_l A^l``
  (one matmul per forward instead of L), with a density guard that
  falls back to layer-by-layer when ``M`` would densify;
* **`propagate()`** — the differentiable API every component, baseline,
  core model, and the serving path call instead of hand-rolling loops
  over :func:`repro.autograd.sparse.sparse_matmul`. Plans keep one
  dtype-matched operator variant per operand dtype, so the hot-path
  matmuls never convert: float32 consumers (the serving store, float32
  training) multiply float32 operators, while default float64 training
  keeps the exact operator values the published tables were trained
  with.

Set ``REPRO_ENGINE_FOLD=0`` (or call ``configure(fold=False)``) to force
the layer-by-layer schedule — the two paths are numerically equivalent
(within the operator dtype's ulps), which `tests/engine/` asserts.
"""

from .fold import MAX_COST_RATIO, MAX_DENSITY, fold_walk
from .ops import (OPERATOR_DTYPE, apply_dense, as_operator, density,
                  mean_aggregation_operator)
from .propagate import (PropagationEngine, PropagationPlan, configure,
                        get_engine, normalized_adjacency, propagate)

__all__ = [
    "OPERATOR_DTYPE",
    "MAX_COST_RATIO",
    "MAX_DENSITY",
    "PropagationEngine",
    "PropagationPlan",
    "apply_dense",
    "as_operator",
    "configure",
    "density",
    "fold_walk",
    "get_engine",
    "mean_aggregation_operator",
    "normalized_adjacency",
    "propagate",
]
