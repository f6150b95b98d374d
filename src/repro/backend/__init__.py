"""Pluggable array backends: one seam for every numerical primitive.

Every array primitive the system touches — the autograd engine's dense
BLAS and transcendentals, the frozen-graph engine's sparse propagation,
the serving kernels' scoring matmuls, the gather/scatter pair behind
embedding lookups — dispatches through the *active backend*
(:func:`active`). Two tiers ship:

``reference`` (default)
    numpy/float64-preserving, bit-exact: each primitive is the exact
    NumPy expression the call sites ran before this seam existed.
    Training fingerprints, the committed golden suite, and every
    published results/ table are defined on it.
``fast``
    The opt-in accelerated tier: float32 parameters, accelerated
    scatter/gather kernels, optional torch/cupy matmul dispatch when
    those libraries are importable (neither is a dependency). Numerics drift
    by rounding; per-model tolerance parity is pinned in
    ``tests/backend/test_parity.py``.

Selection contract
------------------
* ``ExperimentSpec.backend`` pins a backend for one experiment and
  **folds into the train content address** — pinned specs get distinct
  artifacts.
* ``REPRO_BACKEND`` is the **address-neutral environment override**
  (read per call, like every other toggle in this repo): parity
  measurements and CI legs flip it without fragmenting artifact
  stores — which is also why CI's fast-parity smoke uses a *separate*
  store.
* Bit-parity suites (tests/golden, ``tools/update_goldens.py``) refuse
  to run on an accelerated backend rather than emit drifted
  fingerprints.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from .base import ArrayBackend
from .fast import FastBackend
from .reference import ReferenceBackend

__all__ = ["ArrayBackend", "ReferenceBackend", "FastBackend",
           "BACKENDS", "active", "get_backend", "backend_mode",
           "available_backends", "blas_thread_count", "runtime_info"]

#: registered backend classes by name
BACKENDS: dict[str, type] = {
    ReferenceBackend.name: ReferenceBackend,
    FastBackend.name: FastBackend,
}

#: lazily constructed singletons (FastBackend probes optional imports
#: at construction, so instances are built once and reused)
_INSTANCES: dict[str, ArrayBackend] = {}

_REFERENCE = ReferenceBackend()
_INSTANCES[_REFERENCE.name] = _REFERENCE


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(BACKENDS))


def get_backend(name: str) -> ArrayBackend:
    """The singleton backend registered under ``name``."""
    instance = _INSTANCES.get(name)
    if instance is None:
        cls = BACKENDS.get(name)
        if cls is None:
            raise ValueError(
                f"unknown backend {name!r}; available: "
                f"{', '.join(available_backends())}")
        instance = cls()
        _INSTANCES[name] = instance
    return instance


def active() -> ArrayBackend:
    """The backend every primitive call site dispatches through.

    Reads ``REPRO_BACKEND`` per call (one dict lookup on the hot path;
    the instance itself is a cached singleton) so tests and
    measurements can flip the environment toggle without re-importing —
    the same call-time contract as ``REPRO_SPARSE_GRAD``. Unset or
    empty means the reference tier.
    """
    name = os.environ.get("REPRO_BACKEND")
    if not name:
        return _REFERENCE
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = get_backend(name)
    return instance


@contextmanager
def backend_mode(name: str):
    """Force ``REPRO_BACKEND`` for the duration of a block.

    Used by parity measurements and by experiment specs that pin
    :attr:`repro.experiments.spec.ExperimentSpec.backend`. Validates
    the name up front so a typo fails at the ``with`` statement, not
    mid-training.
    """
    get_backend(name)
    previous = os.environ.get("REPRO_BACKEND")
    os.environ["REPRO_BACKEND"] = name
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_BACKEND", None)
        else:
            os.environ["REPRO_BACKEND"] = previous


def blas_thread_count() -> int:
    """Best-effort effective BLAS thread count.

    Prefers threadpoolctl's live pool introspection when importable,
    falls back to the conventional environment pins, then to the CPU
    count (what un-pinned OpenBLAS/MKL default to).
    """
    try:
        from threadpoolctl import threadpool_info
    except ImportError:
        pass
    else:
        counts = [pool.get("num_threads", 0) for pool in threadpool_info()
                  if pool.get("user_api") == "blas"]
        counts = [count for count in counts if count]
        if counts:
            return max(counts)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            return int(value)
    return os.cpu_count() or 1


def runtime_info() -> dict:
    """Self-describing runtime record for timing rows: the active
    backend's name, the effective parameter dtype, and the effective
    BLAS thread count."""
    from ..autograd.init import param_dtype
    backend = active()
    return {
        "backend": backend.name,
        "param_dtype": np.dtype(param_dtype()).name,
        "blas_threads": blas_thread_count(),
    }
