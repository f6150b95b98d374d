"""Parameter initializers mirroring the ones the paper uses.

All parameters are created in :data:`PARAM_DTYPE` (float64): every
number in the published benchmark tables (results/) was produced by
float64 training, and retraining under a different rounding regime
re-rolls each 12-epoch outcome — so the default is kept
bit-reproducible. Float32 training is fully supported (the autograd
engine preserves whichever float dtype it is given, and
:mod:`repro.engine` asserts dtype stability through propagation):
flip ``PARAM_DTYPE`` to run the whole trainable side at single
precision. The flag is read at call time, so flipping it needs no
re-import.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

#: Compute dtype for trainable parameters.
PARAM_DTYPE = np.float64


def xavier_uniform(rng: np.random.Generator, *shape,
                   gain: float = 1.0) -> Tensor:
    """Xavier/Glorot uniform init (the paper initializes all ID and entity
    embeddings this way)."""
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    values = rng.uniform(-bound, bound, size=shape).astype(PARAM_DTYPE)
    return Tensor(values, requires_grad=True)


def xavier_normal(rng: np.random.Generator, *shape,
                  gain: float = 1.0) -> Tensor:
    if len(shape) == 1:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    values = rng.normal(0.0, std, size=shape).astype(PARAM_DTYPE)
    return Tensor(values, requires_grad=True)


def normal(rng: np.random.Generator, *shape, std: float = 0.01) -> Tensor:
    values = rng.normal(0.0, std, size=shape).astype(PARAM_DTYPE)
    return Tensor(values, requires_grad=True)


def zeros(*shape) -> Tensor:
    return Tensor(np.zeros(shape, dtype=PARAM_DTYPE), requires_grad=True)


def ones(*shape) -> Tensor:
    return Tensor(np.ones(shape, dtype=PARAM_DTYPE), requires_grad=True)
