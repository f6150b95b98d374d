"""Frozen-graph propagation.

The paper's graphs — the collaborative KG and the homogeneous
item-item/user-user kNN graphs — are all *frozen*: adjacency never
receives gradients, so every multi-layer propagation is a fixed linear
operator applied to trainable embeddings. Each graph builder normalizes
its operator once (with the normalizers of :mod:`repro.autograd.sparse`)
and keeps it; this package applies it:

* **`propagate()`** — the differentiable API every component, baseline
  and core model call instead of hand-rolling loops over
  :func:`repro.autograd.sparse.sparse_matmul`: it runs the L sparse hops
  of a :class:`PropagationPlan` and pools them (mean or last);
* **operator form** — :func:`as_operator` pins an operator to CSR with a
  float dtype without reordering its nonzeros. The serving store does
  not propagate: its onboarding runs :func:`apply_dense` at
  :data:`OPERATOR_DTYPE`.
"""

from .ops import (OPERATOR_DTYPE, apply_dense, as_operator,
                  mean_aggregation_operator)
from .propagate import PropagationPlan, get_engine, propagate

__all__ = [
    "OPERATOR_DTYPE",
    "PropagationPlan",
    "apply_dense",
    "as_operator",
    "get_engine",
    "mean_aggregation_operator",
    "propagate",
]
