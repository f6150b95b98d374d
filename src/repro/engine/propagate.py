"""Precompiled propagation plans and the engine cache that owns them.

The engine is the single entry point every model, trainer, and the
serving path use for frozen-graph propagation:

* :meth:`PropagationEngine.normalized` — normalized-adjacency cache:
  symmetric / row / softmax normalizations computed once per source
  matrix, pinned to CSR;
* :meth:`PropagationEngine.plan` — per-(operator, depth, pooling)
  :class:`PropagationPlan` cache;
* :meth:`PropagationEngine.propagate` — the differentiable hot path:
  look up (or build) the plan, apply it to a Tensor.

Cached artifacts are attached to the source matrix object itself (scipy
sparse matrices carry a ``__dict__``), so their lifetime *is* the
source's lifetime: models that rebuild their frozen graphs (cold-start
adaptation, SGL's per-batch augmentations, LATTICE's re-mining) never
see stale operators, and dropped graphs take their precompiled plans
with them — no global registry to leak or to alias recycled ids.

Every sparse multiply a plan issues goes through
:func:`repro.autograd.sparse.sparse_matmul`, which dispatches on the
array backend (:mod:`repro.backend`) and runs the exact historical
scipy expression. The per-dtype operator variants in
``PropagationPlan._matrix`` are what let float32 operands multiply
float32 operators without per-call conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import scipy.sparse as sp

from ..autograd.sparse import (row_normalize, row_softmax, sparse_matmul,
                               symmetric_normalize)
from ..autograd.tensor import Tensor
from .ops import as_operator

_NORMALIZERS = {
    "sym": symmetric_normalize,
    "row": row_normalize,
    "softmax": row_softmax,
}


@dataclass
class EngineStats:
    """Cache counters (introspection and tests)."""

    plans_built: int = 0
    #: always 0 — plans have a single (layer-by-layer) schedule; kept
    #: because the repository benchmark's traced run reports it
    plans_folded: int = 0
    plan_hits: int = 0
    normalized_built: int = 0
    normalized_hits: int = 0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class PropagationPlan:
    """A precompiled L-hop propagation over one frozen operator.

    ``pooling='mean'`` is the LightGCN aggregation (mean over layers
    0..L, layer 0 included); ``pooling='last'`` returns the final hop
    only. :meth:`apply_layers` runs the hops; :meth:`apply` pools them.
    """

    __slots__ = ("operator", "num_layers", "pooling", "_by_dtype",
                 "__weakref__")

    def __init__(self, operator: sp.spmatrix, num_layers: int,
                 pooling: str = "mean"):
        if pooling not in ("mean", "last"):
            raise ValueError(f"unknown pooling {pooling!r}")
        if num_layers < 0:
            raise ValueError(f"num_layers must be >= 0, got {num_layers}")
        self.operator = as_operator(operator)
        self.num_layers = num_layers
        self.pooling = pooling
        # Dtype-matched operator variants, materialized at most once per
        # operand dtype: a float32 operand (serving snapshots, float32
        # training) multiplies a float32 operator, a float64 operand the
        # exact float64 values — scipy never converts inside the multiply.
        self._by_dtype: dict = {}

    def _matrix(self, dtype) -> sp.csr_matrix:
        """The single-hop operator matching the operand dtype, so the
        sparse matmul itself never converts."""
        if dtype == self.operator.dtype:
            return self.operator
        if dtype not in self._by_dtype:
            self._by_dtype[dtype] = self.operator.astype(dtype)
        return self._by_dtype[dtype]

    def apply(self, x: Tensor) -> Tensor:
        """Propagate ``x`` through the plan (differentiable)."""
        if self.num_layers == 0:
            return x
        layers = self.apply_layers(x)
        if self.pooling == "last":
            out = layers[-1]
        else:
            total = layers[0]
            for layer in layers[1:]:
                total = total + layer
            out = total * (1.0 / (self.num_layers + 1))
        assert out.data.dtype == x.data.dtype, "propagation changed dtype"
        return out

    def apply_layers(self, x: Tensor) -> list[Tensor]:
        """Per-layer outputs ``[x, A x, ..., A^L x]``."""
        single = self._matrix(x.data.dtype)
        layers = [x]
        for _ in range(self.num_layers):
            layers.append(sparse_matmul(single, layers[-1]))
        return layers


#: name of the per-matrix attribute holding the engine's cache entries.
_CACHE_ATTR = "_repro_engine_cache"


class PropagationEngine:
    """Engine facade: the per-source normalization and plan caches.

    Cache entries live in a dict attached to the source matrix (see the
    module docstring); a plan depends only on its operator, depth and
    pooling, so every engine may serve any entry.
    """

    def __init__(self):
        self.stats = EngineStats()

    # -- cache plumbing -------------------------------------------------
    def _cache_of(self, source) -> dict | None:
        """The cache dict riding on ``source`` (created on demand), or
        ``None`` for objects that cannot carry attributes."""
        cache = getattr(source, _CACHE_ATTR, None)
        if cache is None:
            try:
                setattr(source, _CACHE_ATTR, cache := {})
            except AttributeError:
                return None
        return cache

    # -- normalized-adjacency cache ------------------------------------
    def normalized(self, adjacency: sp.spmatrix, kind: str = "sym",
                   cache: bool = True) -> sp.csr_matrix:
        """Normalize ``adjacency`` (``sym``/``row``/``softmax``) into a
        CSR-pinned operator, computed once per source matrix.

        ``cache=False`` skips the cache for throwaway matrices (per-batch
        graph augmentations).
        """
        if kind not in _NORMALIZERS:
            raise ValueError(
                f"unknown normalization {kind!r}; expected one of "
                f"{sorted(_NORMALIZERS)}")
        key = ("normalized", kind)
        store = self._cache_of(adjacency) if cache else None
        if store is not None and key in store:
            self.stats.normalized_hits += 1
            return store[key]
        result = as_operator(_NORMALIZERS[kind](adjacency))
        self.stats.normalized_built += 1
        if store is not None:
            store[key] = result
        return result

    # -- plan cache -----------------------------------------------------
    def plan(self, operator: sp.spmatrix, num_layers: int,
             pooling: str = "mean") -> PropagationPlan:
        """The (cached) precompiled plan for ``num_layers`` hops of
        ``operator``."""
        key = ("plan", num_layers, pooling)
        store = self._cache_of(operator)
        if store is not None and key in store:
            self.stats.plan_hits += 1
            return store[key]
        plan = PropagationPlan(operator, num_layers, pooling)
        self.stats.plans_built += 1
        if store is not None:
            store[key] = plan
        return plan

    def propagate(self, operator: sp.spmatrix, x: Tensor,
                  num_layers: int = 1, pooling: str = "mean") -> Tensor:
        """Differentiable multi-hop propagation (the shared hot path)."""
        return self.plan(operator, num_layers, pooling).apply(x)


_engine = PropagationEngine()


def get_engine() -> PropagationEngine:
    """The process-wide engine."""
    return _engine


def propagate(operator: sp.spmatrix, x: Tensor, num_layers: int = 1,
              pooling: str = "mean") -> Tensor:
    """Module-level shortcut for ``get_engine().propagate(...)``."""
    return get_engine().propagate(operator, x, num_layers, pooling)


def normalized_adjacency(adjacency: sp.spmatrix, kind: str = "sym",
                         cache: bool = True) -> sp.csr_matrix:
    """Module-level shortcut for ``get_engine().normalized(...)``."""
    return get_engine().normalized(adjacency, kind, cache=cache)
