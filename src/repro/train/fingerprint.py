"""Training fingerprints: one short hash per trained model.

The repository's central promise is bit-exact reproducibility — every
performance path (row-sparse gradients, fused kernels) must leave the
training trajectory untouched down to the last bit. A :func:`training_fingerprint` condenses a finished run
into a few SHA-256 digests:

* ``params`` — every ``state_dict`` entry (name, shape, dtype, bytes);
* ``losses`` — the float64 per-epoch loss curve;
* ``rngs`` — the position of every random stream reachable from the
  model (dropout, KG negative sampling, discriminator batches, ...);
* ``combined`` — a digest of the above, the value the golden suite
  (``tests/golden/``) commits per model.

Two runs agree on ``combined`` iff they followed the identical
floating-point and RNG trajectory; a single flipped mantissa bit in any
parameter changes it. ``tools/update_goldens.py`` regenerates the
committed values when a trajectory change is *intentional*.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def _ascontiguous(value: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(value)


def array_digest(value: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and raw bytes."""
    value = _ascontiguous(value)
    h = hashlib.sha256()
    h.update(str(value.dtype).encode())
    h.update(str(value.shape).encode())
    h.update(value.tobytes())
    return h.hexdigest()


def state_digest(state: dict[str, np.ndarray]) -> str:
    """Order-independent digest of a ``state_dict``."""
    h = hashlib.sha256()
    for name in sorted(state):
        h.update(name.encode())
        h.update(array_digest(state[name]).encode())
    return h.hexdigest()


def rng_digest(model) -> str:
    """Digest of every RNG position reachable from ``model``, by path."""
    from .snapshot import collect_rng_streams
    states = {path: gen.bit_generator.state
              for path, gen in collect_rng_streams(model).items()}
    return hashlib.sha256(
        json.dumps(states, sort_keys=True, default=str).encode()
    ).hexdigest()


def training_fingerprint(model, result=None) -> dict[str, str]:
    """Fingerprint a trained model (and optionally its loss curve)."""
    parts = {
        "params": state_digest(model.state_dict()),
        "rngs": rng_digest(model),
    }
    if result is not None:
        losses = np.asarray(result.losses, dtype=np.float64)
        parts["losses"] = array_digest(losses)
    combined = hashlib.sha256()
    for key in sorted(parts):
        combined.update(key.encode())
        combined.update(parts[key].encode())
    parts["combined"] = combined.hexdigest()
    return parts
