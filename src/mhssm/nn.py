"""Layer building blocks: parameter containers, linear maps, normalization."""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base for parameterized layers.

    Parameters are Tensor attributes with ``requires_grad`` set; submodules
    and lists of submodules are discovered automatically. Parameter names are
    dotted paths, stable across optimizer rebinding.
    """

    def named_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                if value.requires_grad:
                    out[name] = value
            elif isinstance(value, Module):
                for k, t in value.named_params().items():
                    out[f"{name}.{k}"] = t
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        for k, t in item.named_params().items():
                            out[f"{name}.{i}.{k}"] = t
        return out

    def set_params(self, updates: dict[str, Tensor]):
        """Rebind parameters by dotted name (tensors are immutable)."""
        for name, tensor in updates.items():
            obj = self
            parts = name.split(".")
            for p in parts[:-1]:
                obj = obj[int(p)] if isinstance(obj, list) else getattr(obj, p)
            setattr(obj, parts[-1], tensor)

    def num_params(self) -> int:
        return sum(t.size for t in self.named_params().values())


class Linear(Module):
    """Affine map on the last axis: y = x @ w + b."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, dtype=np.float64):
        std = 1.0 / np.sqrt(in_dim)
        self.w = Tensor(rng.normal(0.0, std, (in_dim, out_dim)), requires_grad=True, dtype=dtype)
        self.b = Tensor(np.zeros(out_dim), requires_grad=True, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.w, self.b)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float64, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim), requires_grad=True, dtype=dtype)
        self.bias = Tensor(np.zeros(dim), requires_grad=True, dtype=dtype)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gain, self.bias, self.eps)


def sinusoidal_encoding(length: int, dim: int, dtype=np.float64) -> np.ndarray:
    """Fixed sin/cos position table of shape (length, dim)."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (i - (i % 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angles), np.cos(angles))
    return table.astype(dtype)
