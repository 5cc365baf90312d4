"""Multi-head state space layers with inter-head gating.

A stage projects the input and runs one causal, or anti-causal, state space
system over all ``model_dim`` channels. The channels are independent SISO
systems, so a head is simply a contiguous slice of ``model_dim / heads``
channels whose parameters were drawn together; gating then acts on the
whole tensor. Stages are stacked inside each direction; the bidirectional
residual block concatenates the forward stack with an independently
parameterized anti-causal one and mixes them back to the model width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError
from .nn import LayerNorm, Linear, Module
from .seq import PackedBatch
from .ssm import discretize, init_ssm_rng, ssm_conv_projected, stack_systems
from .tensor import Tensor

GATINGS = ("ihg", "glu", "gelu")


@dataclass
class MhSsmBlockConfig:
    """Shape and behavior of one multi-head residual block."""

    model_dim: int
    heads: int
    stack: int = 2
    state_dim: int = 64
    gating: str = "ihg"
    dropout: float = 0.10

    @property
    def head_dim(self) -> int:
        return self.model_dim // self.heads

    def validate(self):
        if self.gating not in GATINGS:
            raise ConfigError(f"gating must be one of {GATINGS}, got {self.gating!r}")
        if self.heads < 1 or self.model_dim < 1:
            raise ConfigError("heads and model_dim must be positive")
        if self.model_dim % self.heads != 0:
            raise ConfigError(
                f"model_dim {self.model_dim} is not divisible by heads {self.heads}"
            )
        if self.gating == "ihg" and self.heads % 2 != 0:
            raise ConfigError("inter-head gating requires an even head count")
        if self.stack < 1:
            raise ConfigError(f"stack must be >= 1, got {self.stack}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")


class MhSsmStage(Module):
    """One project/process/gate/merge pass at a fixed width.

    The input projection ``in_proj`` and the system run as one
    `ssm_conv_projected` node, which keeps the stage input but not the
    projection, so a stage holds its input once; the gate and ``out_proj``
    run as one more node (`merge`). A stage maps a packed batch (each row's
    valid steps, row after row) to another; with ``reverse`` it runs
    backward in time within each row's valid length.
    """

    def __init__(self, cfg: MhSsmBlockConfig, rng: np.random.Generator, dtype=np.float64,
                 reverse: bool = False):
        cfg.validate()
        d, h, hd = cfg.model_dim, cfg.heads, cfg.head_dim
        self.heads = h
        self.gating = cfg.gating
        self.reverse = reverse
        self.in_proj = Linear(d, d, rng, dtype=dtype)
        # drawn head by head, so each head's channel slice keeps its own draw
        self.ssm = stack_systems([
            init_ssm_rng(cfg.state_dim, hd, rng, dtype=dtype) for _ in range(h)
        ])
        if cfg.gating == "glu":
            # one (hd, 2hd) value/gate map per head: a grouped linear weight
            projs = [Linear(hd, 2 * hd, rng, dtype=dtype) for _ in range(h)]
            self.glu_w = Tensor(np.stack([p.w.data for p in projs]), requires_grad=True)
            self.glu_b = Tensor(np.stack([p.b.data for p in projs]), requires_grad=True)
        gated_width = d // 2 if cfg.gating == "ihg" else d
        self.out_proj = Linear(gated_width, d, rng, dtype=dtype)

    def gated_width(self) -> int:
        return self.out_proj.w.shape[0]

    def merge(self, y: Tensor) -> Tensor:
        """Gate the whole-width system output and project it back to model_dim.

        Each gate and ``out_proj`` run as one node. Inter-head gating: the
        second half of the heads gates the first, a_h = y_h * sigmoid(y_(h + H/2))
        for h < H/2, which is a glu over the whole width because heads are
        contiguous channel slices. The per-head glu maps each head to its own
        (value, gate) pair and gates it on a (..., heads, 2 * head_dim) view.
        """
        w, b = self.out_proj.w, self.out_proj.b
        if self.gating == "ihg":
            return T.glu_linear(y, w, b)
        if self.gating == "gelu":
            return T.gelu_linear(y, w, b)
        vg = T.linear(y, self.glu_w, self.glu_b)
        per_head = T.reshape(vg, y.shape[:-1] + (self.heads, -1))
        return T.glu_linear(per_head, w, b, in_axes=2)

    def __call__(self, x: PackedBatch) -> PackedBatch:
        proj = self.in_proj
        y = ssm_conv_projected(discretize(self.ssm), x, proj.w, proj.b, self.reverse)
        return y.with_data(self.merge(y.data))


class DirectionalMhSsm(Module):
    """Sequential stack of stages, all running in the same time direction."""

    def __init__(self, cfg: MhSsmBlockConfig, rng: np.random.Generator, dtype=np.float64,
                 reverse: bool = False):
        self.stages = [MhSsmStage(cfg, rng, dtype, reverse) for _ in range(cfg.stack)]

    def __call__(self, x: PackedBatch) -> PackedBatch:
        for stage in self.stages:
            x = stage(x)
        return x


class BidirMhSsmBlock(Module):
    """Pre-norm residual block combining a forward and a backward-in-time stack.

    out = x + dropout(linear(gelu(cat[fwd(h), bwd(h)]))) with h =
    layer_norm(x), where ``bwd`` runs anti-causally within each row's valid
    length: bwd(h) equals rev(causal(rev(h))) for the per-row reversal rev,
    bit for bit. The two directions have independent parameters.
    """

    def __init__(self, cfg: MhSsmBlockConfig, rng: np.random.Generator, dtype=np.float64):
        cfg.validate()
        d = cfg.model_dim
        self.norm = LayerNorm(d, dtype=dtype)
        self.fwd = DirectionalMhSsm(cfg, rng, dtype)
        self.bwd = DirectionalMhSsm(cfg, rng, dtype, reverse=True)
        self.out_proj = Linear(2 * d, d, rng, dtype=dtype)
        self.dropout = cfg.dropout

    def concat_halves(self, x: PackedBatch) -> Tensor:
        """Pre-activation concatenation of the two directions (post-norm)."""
        h = x.with_data(self.norm(x.data))
        return T.concat([self.fwd(h).data, self.bwd(h).data], axis=-1)

    def __call__(self, x: PackedBatch,
                 train_rng: np.random.Generator | None = None) -> PackedBatch:
        branch = T.gelu_linear(self.concat_halves(x), self.out_proj.w, self.out_proj.b)
        branch = T.dropout(branch, self.dropout, train_rng)
        return x.with_data(T.add(x.data, branch))
