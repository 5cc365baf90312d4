"""Full sequence encoders: one frontend, one layer schedule, parameter accounting.

Every layer runs the same pre-norm residual blocks in the same order,
[bidirectional multi-head SSM, self-attention, feed-forward], and the block
kind says which of the first two it keeps:

* ``transformer``:  attention and feed-forward (no SSM block)
* ``stateformer``:  all three
* ``mh_ssm``:       SSM and feed-forward (the SSM block takes attention's place)

The frontend projects the input frames. The ``linear`` kind stops there and
keeps the frame rate for token tasks; ``tr`` and ``ms`` run two rounds of
[SSM blocks, frame splice] (none per round for ``tr``, two for ``ms``) and so
emit ``model_dim`` features at a quarter of the input frame rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .blocks import BidirMhSsmBlock, MhSsmBlockConfig
from .errors import ConfigError
from .nn import LayerNorm, Linear, Module, sinusoidal_encoding
from .seq import PackedBatch, SeqBatch
from .tensor import Tensor

FRONTENDS = ("tr", "ms", "linear")
BLOCK_KINDS = ("mh_ssm", "transformer", "stateformer")

_DTYPES = {"float64": np.float64, "float32": np.float32}


@dataclass
class EncoderConfig:
    frontend: str = "tr"
    input_dim: int = 80
    model_dim: int = 512
    num_layers: int = 2
    block_kind: str = "mh_ssm"
    attn_heads: int = 8
    ffn_dim: int = 2048
    heads: int = 4
    stack: int = 2
    state_dim: int = 64
    gating: str = "ihg"
    dropout: float = 0.10
    positional: bool | None = None
    fe_heads: int = 4
    fe_stack: int = 2
    fe_state_dim: int = 16
    fe_gating: str = "ihg"
    dtype: str = "float64"

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]

    @property
    def use_positional(self) -> bool:
        # Attention-only encoders need an explicit position signal; SSM paths
        # carry position through the recurrence.
        if self.positional is None:
            return self.block_kind == "transformer"
        return self.positional

    def block_config(self) -> MhSsmBlockConfig:
        return MhSsmBlockConfig(
            model_dim=self.model_dim, heads=self.heads, stack=self.stack,
            state_dim=self.state_dim, gating=self.gating, dropout=self.dropout,
        )

    def fe_block_config(self, dim: int) -> MhSsmBlockConfig:
        return MhSsmBlockConfig(
            model_dim=dim, heads=self.fe_heads, stack=self.fe_stack,
            state_dim=self.fe_state_dim, gating=self.fe_gating, dropout=self.dropout,
        )

    def validate(self):
        if self.frontend not in FRONTENDS:
            raise ConfigError(f"frontend must be one of {FRONTENDS}, got {self.frontend!r}")
        if self.block_kind not in BLOCK_KINDS:
            raise ConfigError(f"block_kind must be one of {BLOCK_KINDS}, got {self.block_kind!r}")
        if self.dtype not in _DTYPES:
            raise ConfigError(f"dtype must be float64 or float32, got {self.dtype!r}")
        if self.input_dim < 1 or self.num_layers < 0:
            raise ConfigError("input_dim must be >= 1 and num_layers >= 0")
        if self.frontend != "linear" and self.model_dim % 4 != 0:
            raise ConfigError("subsampling frontends need model_dim divisible by 4")
        if self.frontend == "ms":
            self.fe_block_config(self.model_dim // 4).validate()
            self.fe_block_config(self.model_dim // 2).validate()
        # every kind has a feed-forward block and dropout
        if self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim must be >= 1, got {self.ffn_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.block_kind in ("transformer", "stateformer"):
            if self.model_dim % self.attn_heads != 0:
                raise ConfigError(
                    f"model_dim {self.model_dim} not divisible by attn_heads {self.attn_heads}"
                )
        if self.block_kind in ("mh_ssm", "stateformer"):
            self.block_config().validate()


# ---------------------------------------------------------------------------
# frontends


def time_reduction(x: PackedBatch) -> PackedBatch:
    """Splice each pair of adjacent frames of a row into one frame of twice
    the width, as one node.

    A zero frame covers the last frame of an odd-length row; valid lengths
    become ceil(length / 2). The rows are packed, so pairs never straddle
    two rows: the splice is a reshape of the frames, with a zero frame
    inserted after each odd row.
    """
    dim = x.dim
    frames = x.data.data.reshape(-1, dim)
    odd_ends = np.asarray(x.starts[1:], dtype=np.int64)[x.lengths % 2 == 1]
    if odd_ends.size:
        frames = np.insert(frames, odd_ends, 0.0, axis=0)
    length = -(-x.length // 2)
    shape = (-1, 2 * dim) if x.data.ndim == 2 else (x.batch, length, 2 * dim)
    out = Tensor._wrap(frames.reshape(shape))
    # where the inserted frames sit in the spliced frames
    inserted = odd_ends + np.arange(odd_ends.size)
    key, in_shape = x.data.key, x.data.shape

    def bwd(g, acc):
        g = g.reshape(-1, dim)
        if inserted.size:
            g = np.delete(g, inserted, axis=0)
        acc(key, g.reshape(in_shape))

    T.record_op(out, (x.data,), bwd)
    return PackedBatch(out, -(-x.lengths // 2), length)


class MultiScaleFrontend(Module):
    """The frontend of every kind: a projection, then two subsampling rounds.

    ``linear`` projects to ``model_dim`` and stops there. ``tr`` and ``ms``
    project to ``model_dim/4`` and run two rounds of [residual multi-head
    SSM blocks, frame splice]; ``ms`` has two blocks per round, ``tr`` none.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.input_dim = cfg.input_dim
        self.subsample = cfg.frontend != "linear"
        width = cfg.model_dim // 4 if self.subsample else cfg.model_dim
        self.proj = Linear(cfg.input_dim, width, rng, dtype=cfg.np_dtype)
        per_round = 2 if cfg.frontend == "ms" else 0
        self.blocks_lo = [
            BidirMhSsmBlock(cfg.fe_block_config(width), rng, cfg.np_dtype)
            for _ in range(per_round)
        ]
        self.blocks_hi = [
            BidirMhSsmBlock(cfg.fe_block_config(2 * width), rng, cfg.np_dtype)
            for _ in range(per_round)
        ]

    def __call__(self, x: PackedBatch, train_rng=None) -> PackedBatch:
        if x.dim != self.input_dim:
            raise ConfigError(f"frontend expects {self.input_dim}-dim input, got {x.dim}")
        h = x.with_data(self.proj(x.data))
        if not self.subsample:
            return h
        for blocks in (self.blocks_lo, self.blocks_hi):
            for block in blocks:
                h = block(h, train_rng)
            h = time_reduction(h)
        return h


# ---------------------------------------------------------------------------
# residual blocks


class SelfAttentionBlock(Module):
    """Pre-norm residual multi-head scaled dot-product attention.

    ``norm``, the q, k and v projections and attention over the packed
    frames run as one ``T.attention`` node, which keeps only the norm's
    xhat and 1/sigma and rebuilds the rest in its backward; ``wo`` reads
    its context, so with the residual sum the branch is three nodes (four
    with dropout). Head h owns columns h*head_dim to (h+1)*head_dim. Each
    row attends within its own valid frames, which the node finds through
    the batch's row starts; no padded frame exists to take weight. Scores
    scale by 1/sqrt(head_dim). Fully padded sequences are rejected.
    """

    def __init__(self, dim: int, heads: int, rng: np.random.Generator,
                 dropout: float = 0.0, dtype=np.float64):
        if dim % heads != 0:
            raise ConfigError(f"attention width {dim} not divisible by {heads} heads")
        self.heads = heads
        self.norm = LayerNorm(dim, dtype=dtype)
        self.wq = Linear(dim, dim, rng, dtype=dtype)
        self.wk = Linear(dim, dim, rng, dtype=dtype)
        self.wv = Linear(dim, dim, rng, dtype=dtype)
        self.wo = Linear(dim, dim, rng, dtype=dtype)
        self.dropout = dropout

    def attend(self, x: PackedBatch) -> Tensor:
        """Attention branch on the normalized input (no residual): the
        ``T.attention`` node, then ``wo``."""
        if (x.lengths == 0).any():
            raise ValueError("attention received a fully padded sequence")
        norm, wq, wk, wv = self.norm, self.wq, self.wk, self.wv
        ctx = T.attention(x.data, norm.gain, norm.bias, wq.w, wq.b, wk.w, wk.b, wv.w, wv.b,
                          self.heads, x.starts, norm.eps)
        return self.wo(ctx)

    def __call__(self, x: PackedBatch, train_rng=None) -> PackedBatch:
        branch = T.dropout(self.attend(x), self.dropout, train_rng)
        return x.with_data(T.add(x.data, branch))


class FeedForwardBlock(Module):
    """Pre-norm residual two-layer net with the exact-gaussian gelu.

    ``norm``, ``lin1``, gelu and ``lin2`` run as one ``T.feed_forward``
    node, which keeps the norm's xhat and 1/sigma and the gelu output and
    slope, but neither the norm's output nor ``lin1``'s; with the residual
    sum the branch is two nodes (three with dropout).
    """

    def __init__(self, dim: int, hidden: int, rng: np.random.Generator,
                 dropout: float = 0.0, dtype=np.float64):
        self.norm = LayerNorm(dim, dtype=dtype)
        self.lin1 = Linear(dim, hidden, rng, dtype=dtype)
        self.lin2 = Linear(hidden, dim, rng, dtype=dtype)
        self.dropout = dropout

    def __call__(self, x: PackedBatch, train_rng=None) -> PackedBatch:
        norm, lin1, lin2 = self.norm, self.lin1, self.lin2
        branch = T.feed_forward(x.data, norm.gain, norm.bias, lin1.w, lin1.b, lin2.w, lin2.b,
                                norm.eps)
        branch = T.dropout(branch, self.dropout, train_rng)
        return x.with_data(T.add(x.data, branch))


class EncoderLayer(Module):
    """One layer of the block schedule: [ssm_block], [attn], ffn, in that order.

    ``transformer`` has no ``ssm_block`` and ``mh_ssm`` no ``attn``. With
    ``ssm_block`` replaced by the identity a ``stateformer`` layer is exactly
    ``ffn(attn(x))``, a transformer layer.
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        if cfg.block_kind != "transformer":
            self.ssm_block = BidirMhSsmBlock(cfg.block_config(), rng, cfg.np_dtype)
        if cfg.block_kind != "mh_ssm":
            self.attn = SelfAttentionBlock(cfg.model_dim, cfg.attn_heads, rng,
                                           cfg.dropout, cfg.np_dtype)
        self.ffn = FeedForwardBlock(cfg.model_dim, cfg.ffn_dim, rng,
                                    cfg.dropout, cfg.np_dtype)

    def __call__(self, x: PackedBatch, train_rng=None) -> PackedBatch:
        for name in ("ssm_block", "attn", "ffn"):
            if hasattr(self, name):
                x = getattr(self, name)(x, train_rng)
        return x


class Encoder(Module):
    """Frontend, block schedule and closing layer norm.

    The padded input is packed once into its valid frames (`SeqBatch.packed`),
    every module runs on that `PackedBatch`, and the closing norm's output
    is unpacked once into a batch with exact zeros at the padding. An
    unpadded batch packs and unpacks to itself, with no copy and no node.
    """

    def __init__(self, cfg: EncoderConfig, seed: int = 0):
        cfg.validate()
        self.cfg = cfg
        rng = np.random.Generator(np.random.PCG64(seed))
        self.frontend = MultiScaleFrontend(cfg, rng)
        self.layers = [EncoderLayer(cfg, rng) for _ in range(cfg.num_layers)]
        self.final_norm = LayerNorm(cfg.model_dim, dtype=cfg.np_dtype)

    def __call__(self, x: SeqBatch, train_rng: np.random.Generator | None = None) -> SeqBatch:
        h = self.frontend(x.packed(), train_rng)
        if self.cfg.use_positional:
            table = sinusoidal_encoding(h.length, h.dim, h.data.dtype)
            h = h.with_data(T.add(h.data, Tensor._wrap(table[h.positions()])))
        for layer in self.layers:
            h = layer(h, train_rng)
        return h.with_data(self.final_norm(h.data)).unpacked()


def build_encoder(cfg: EncoderConfig, seed: int = 0) -> Encoder:
    return Encoder(cfg, seed)


# ---------------------------------------------------------------------------
# analytic parameter accounting


def _linear_count(i: int, o: int) -> int:
    return i * o + o


def _norm_count(d: int) -> int:
    return 2 * d


def _ssm_count(channels: int, state_dim: int) -> int:
    # six (channels, state) arrays plus per-channel skip and step size
    return 6 * channels * state_dim + 2 * channels


def _stage_count(block: MhSsmBlockConfig) -> int:
    d, h = block.model_dim, block.heads
    total = _linear_count(d, d)
    total += _ssm_count(d, block.state_dim)
    if block.gating == "glu":
        total += h * _linear_count(block.head_dim, 2 * block.head_dim)
    gated = d // 2 if block.gating == "ihg" else d
    total += _linear_count(gated, d)
    return total


def bidir_block_count(block: MhSsmBlockConfig) -> int:
    d = block.model_dim
    return _norm_count(d) + 2 * block.stack * _stage_count(block) + _linear_count(2 * d, d)


def _attention_count(d: int) -> int:
    return _norm_count(d) + 4 * _linear_count(d, d)


def _ffn_count(d: int, hidden: int) -> int:
    return _norm_count(d) + _linear_count(d, hidden) + _linear_count(hidden, d)


def _layer_count(cfg: EncoderConfig) -> int:
    d = cfg.model_dim
    total = _ffn_count(d, cfg.ffn_dim)
    if cfg.block_kind in ("transformer", "stateformer"):
        total += _attention_count(d)
    if cfg.block_kind in ("mh_ssm", "stateformer"):
        total += bidir_block_count(cfg.block_config())
    return total


def _frontend_count(cfg: EncoderConfig) -> int:
    d = cfg.model_dim
    if cfg.frontend == "linear":
        return _linear_count(cfg.input_dim, d)
    total = _linear_count(cfg.input_dim, d // 4)
    if cfg.frontend == "ms":
        total += 2 * bidir_block_count(cfg.fe_block_config(d // 4))
        total += 2 * bidir_block_count(cfg.fe_block_config(d // 2))
    return total


def param_count(cfg: EncoderConfig) -> dict[str, int]:
    """Exact analytic parameter counts, matching a built encoder one-for-one."""
    cfg.validate()
    frontend = _frontend_count(cfg)
    layers = cfg.num_layers * _layer_count(cfg)
    final = _norm_count(cfg.model_dim)
    return {
        "frontend": frontend,
        "layers": layers,
        "final_norm": final,
        "total": frontend + layers + final,
    }
