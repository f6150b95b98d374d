"""Stateless L-hop propagation over frozen operators.

Firzen's graphs are frozen (paper section III-B): each graph builder
normalizes its operator once and keeps it on the graph object, so
propagation needs no cache of its own. :func:`propagate` builds a
:class:`PropagationPlan` per call and applies it; every sparse multiply
goes through :func:`repro.autograd.sparse.sparse_matmul`, which
dispatches on the array backend (:mod:`repro.backend`) and runs the
exact historical scipy expression.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import scipy.sparse as sp

from ..autograd.sparse import sparse_matmul
from ..autograd.tensor import Tensor
from .ops import as_operator


class PropagationPlan:
    """An L-hop propagation over one frozen operator.

    ``pooling='mean'`` is the LightGCN aggregation (mean over layers
    0..L, layer 0 included); ``pooling='last'`` returns the final hop
    only. :meth:`apply_layers` runs the hops; :meth:`apply` pools them.
    """

    def __init__(self, operator: sp.spmatrix, num_layers: int,
                 pooling: str = "mean"):
        if pooling not in ("mean", "last"):
            raise ValueError(f"unknown pooling {pooling!r}")
        if num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {num_layers}")
        self.operator = as_operator(operator)
        self.num_layers = num_layers
        self.pooling = pooling

    def apply(self, x: Tensor) -> Tensor:
        """Propagate ``x`` through the plan (differentiable)."""
        if self.num_layers == 0:
            return x
        layers = self.apply_layers(x)
        if self.pooling == "last":
            return layers[-1]
        total = layers[0]
        for layer in layers[1:]:
            total = total + layer
        return total * (1.0 / (self.num_layers + 1))

    def apply_layers(self, x: Tensor) -> list[Tensor]:
        """Per-layer outputs ``[x, A x, ..., A^L x]``."""
        layers = [x]
        for _ in range(self.num_layers):
            layers.append(sparse_matmul(self.operator, layers[-1]))
        return layers


def propagate(operator: sp.spmatrix, x: Tensor, num_layers: int = 1,
              pooling: str = "mean") -> Tensor:
    """Differentiable multi-hop propagation of ``x`` over ``operator``."""
    return PropagationPlan(operator, num_layers, pooling).apply(x)


@dataclass
class EngineStats:
    """Plan counters the repository benchmark's traced run reads
    (``perfbench/workloads.py``). Both stay 0: no plan is cached or
    folded."""

    plan_hits: int = 0
    plans_folded: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


_engine = SimpleNamespace(stats=EngineStats())


def get_engine() -> SimpleNamespace:
    """The holder of :class:`EngineStats`; nothing under ``src/`` calls
    it, and it goes once the repository benchmark stops reading it."""
    return _engine
