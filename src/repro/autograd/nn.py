"""Neural-network building blocks on top of the autograd engine.

Provides the layer types the paper's architecture needs: linear layers with
dropout (modality projection, eq. 7), a WGAN-GP-style discriminator stack
(Linear -> LeakyReLU -> BatchNorm -> Dropout -> sigmoid), embeddings, and
multi-head self-attention (dependency-aware fusion, eq. 20).
"""

from __future__ import annotations

import numpy as np

from . import init as _init
from .functional import dropout as _dropout
from .tensor import Tensor


class Module:
    """Base class with parameter discovery and train/eval mode switching."""

    def __init__(self):
        self.training = True

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            params.extend(_collect(value, seen))
        return params

    def named_parameters(self) -> dict[str, Tensor]:
        named: dict[str, Tensor] = {}
        for key, value in self.__dict__.items():
            for suffix, param in _collect_named(value):
                named[f"{key}{suffix}"] = param
        return named

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in self.__dict__.values():
            for module in _collect_modules(value):
                module._set_mode(training)

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        named = self.named_parameters()
        for name, value in state.items():
            if name not in named:
                raise KeyError(f"unknown parameter {name!r}")
            if named[name].data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"{named[name].data.shape} vs {value.shape}"
                )
            named[name].data[...] = value

    # -- training snapshots (repro.train.snapshot) ---------------------
    def training_state(self) -> dict:
        """JSON-serializable training state outside ``state_dict`` and
        the generic optimizer/RNG capture (see
        :mod:`repro.train.snapshot`). Override alongside
        :meth:`load_training_state` for models that carry mutable
        non-tensor state across epochs."""
        return {}

    def load_training_state(self, state: dict) -> None:
        """Restore what :meth:`training_state` captured."""


def _collect(value, seen: set[int]) -> list[Tensor]:
    out: list[Tensor] = []
    if isinstance(value, Tensor) and value.requires_grad:
        if id(value) not in seen:
            seen.add(id(value))
            out.append(value)
    elif isinstance(value, Module):
        for p in value.parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
    elif isinstance(value, (list, tuple)):
        for item in value:
            out.extend(_collect(item, seen))
    elif isinstance(value, dict):
        for item in value.values():
            out.extend(_collect(item, seen))
    return out


def _collect_named(value, prefix: str = "") -> list[tuple[str, Tensor]]:
    out: list[tuple[str, Tensor]] = []
    if isinstance(value, Tensor) and value.requires_grad:
        out.append((prefix, value))
    elif isinstance(value, Module):
        for name, param in value.named_parameters().items():
            out.append((f"{prefix}.{name}", param))
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            out.extend(_collect_named(item, f"{prefix}[{i}]"))
    elif isinstance(value, dict):
        for key, item in value.items():
            out.extend(_collect_named(item, f"{prefix}[{key}]"))
    return out


def _collect_modules(value) -> list["Module"]:
    if isinstance(value, Module):
        return [value]
    if isinstance(value, (list, tuple)):
        out = []
        for item in value:
            out.extend(_collect_modules(item))
        return out
    if isinstance(value, dict):
        out = []
        for item in value.values():
            out.extend(_collect_modules(item))
        return out
    return []


class Linear(Module):
    """Affine map ``x W + b`` with Xavier-initialized weights."""

    def __init__(self, in_features: int, out_features: int,
                 rng: np.random.Generator, bias: bool = True):
        super().__init__()
        self.weight = _init.xavier_uniform(rng, in_features, out_features)
        self.bias = _init.zeros(out_features) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of learnable row vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator):
        super().__init__()
        self.weight = _init.xavier_uniform(rng, num_embeddings, dim)

    def forward(self, indices) -> Tensor:
        return self.weight.take_rows(indices)

    @property
    def num_embeddings(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


class Dropout(Module):
    def __init__(self, rate: float, rng: np.random.Generator):
        super().__init__()
        self.rate = rate
        self.rng = rng

    def forward(self, x: Tensor) -> Tensor:
        return _dropout(x, self.rate, self.rng, training=self.training)


class BatchNorm1d(Module):
    """Batch normalization over the leading axis (used in the WGAN-GP
    discriminator stack)."""

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.gamma = _init.ones(num_features)
        self.beta = _init.zeros(num_features)
        self.momentum = momentum
        self.eps = eps
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mean = x.mean(axis=0, keepdims=True)
            centered = x - mean
            var = (centered * centered).mean(axis=0, keepdims=True)
            self.running_mean = ((1 - self.momentum) * self.running_mean
                                 + self.momentum * mean.data.ravel())
            self.running_var = ((1 - self.momentum) * self.running_var
                                + self.momentum * var.data.ravel())
            norm = centered / (var + self.eps).sqrt()
        else:
            norm = (x - Tensor(self.running_mean)) / Tensor(
                np.sqrt(self.running_var + self.eps))
        return norm * self.gamma + self.beta


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.2):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class MultiHeadSelfAttention(Module):
    """Multi-head attention used for dependency-aware modality fusion.

    Follows paper eq. 20: per head, queries come from one modality's item
    embeddings, keys from another; attention weights mix the value vectors
    across modalities. Inputs are stacked as ``(num_modalities, n, d)``.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.w_query = [_init.xavier_uniform(rng, dim, self.head_dim)
                        for _ in range(num_heads)]
        self.w_key = [_init.xavier_uniform(rng, dim, self.head_dim)
                      for _ in range(num_heads)]

    def forward(self, modality_embeddings: list[Tensor]) -> list[Tensor]:
        """Return one fused tensor per input modality (eq. 20)."""
        from .functional import concat

        num_modalities = len(modality_embeddings)
        fused: list[Tensor] = []
        for m in range(num_modalities):
            per_head: list[Tensor] = []
            for head in range(self.num_heads):
                query = modality_embeddings[m].matmul(self.w_query[head])
                # score against every modality (including itself)
                scores = []
                for mp in range(num_modalities):
                    key = modality_embeddings[mp].matmul(self.w_key[head])
                    score = (query * key).sum(axis=-1) * (
                        1.0 / np.sqrt(self.head_dim))
                    scores.append(score.reshape(-1, 1))
                weights = concat(scores, axis=1).softmax(axis=1)
                mixed = None
                for mp in range(num_modalities):
                    w = weights[:, mp].reshape(-1, 1)
                    term = modality_embeddings[mp] * w
                    mixed = term if mixed is None else mixed + term
                per_head.append(mixed)
            # Concatenating per-head mixtures then averaging heads keeps the
            # output at model dim, matching the || (concat) in eq. 20 when
            # values are full-width.
            total = per_head[0]
            for h in per_head[1:]:
                total = total + h
            fused.append(total * (1.0 / self.num_heads))
        return fused
