"""Adam with a warmup / hold / exponential-decay learning-rate schedule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .tensor import Tensor


@dataclass
class LrSchedule:
    peak_lr: float = 3e-3
    warmup_steps: int = 500
    hold_epochs: int = 10
    decay_factor: float = 0.96

    def lr_at(self, step: int, epoch: int) -> float:
        """Linear ramp to the peak, constant through the hold, then decayed.

        lr = peak * min(1, step/warmup) * decay^max(0, epoch - hold).
        """
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        warm = min(1.0, step / self.warmup_steps) if self.warmup_steps > 0 else 1.0
        decay = self.decay_factor ** max(0, epoch - self.hold_epochs)
        return self.peak_lr * warm * decay


class Adam:
    """Standard Adam with bias correction; moments are kept per parameter name."""

    def __init__(self, betas=(0.9, 0.999), eps: float = 1e-8):
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, Tensor], grads: dict[str, np.ndarray],
             lr: float) -> dict[str, Tensor]:
        """One update; returns the new parameter tensors (inputs unchanged)."""
        for name, g in grads.items():
            if not np.isfinite(g).all():
                raise NumericsError(f"non-finite gradient for parameter {name!r}")
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        updated: dict[str, Tensor] = {}
        for name, p in params.items():
            g = grads.get(name)
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m.get(name)
            v = self.v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.m[name] = m
            self.v[name] = v
            mhat = m / bc1
            vhat = v / bc2
            new_data = p.data - lr * mhat / (np.sqrt(vhat) + self.eps)
            updated[name] = Tensor(new_data, requires_grad=True, dtype=p.dtype)
        return updated

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.m.items():
            out[f"adam.m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"adam.v.{name}"] = arr
        return out

    def load_state(self, arrays: dict[str, np.ndarray], step_count: int):
        self.step_count = step_count
        self.m = {k[len("adam.m."):]: v.copy() for k, v in arrays.items()
                  if k.startswith("adam.m.")}
        self.v = {k[len("adam.v."):]: v.copy() for k, v in arrays.items()
                  if k.startswith("adam.v.")}


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return norm
