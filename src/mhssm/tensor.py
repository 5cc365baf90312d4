"""Dense float tensors with a reverse-mode gradient tape.

Values are numpy arrays in float64 (the test/reference precision) or float32
(training option). Complex quantities are represented by callers as separate
(re, im) tensor pairs, so every array stays real and every backward rule is
explicit. Operations record onto the innermost active :class:`GradTape`; with
no tape active they are plain numpy computations.

A tape keeps only what the reverse sweep still reads: each node's saved
activations, and during the sweep the gradients of tensors not yet
replayed. An intermediate tensor's gradient is dropped as soon as the node
that produced it has run its backward. The hottest composites (affine map,
sigmoid gate, convolution plus skip) are single nodes that store their
result once.

The elementwise rules ``gelu``, ``glu`` and ``layer_norm`` build each result
in one preallocated buffer with ``out=`` and in-place operators, in the same
operation order as the plain expressions, so their values keep every bit.

A training step frees over a hundred megabytes of tape and takes them back on
the next step. glibc's malloc serves arrays above its mmap threshold with
fresh mappings and trims freed memory at the top of its heap back to the
kernel, so every step would fault all of those pages in again. The first
:class:`GradTape` to open (or, in a forward-only process, the first
evaluation) therefore fixes the mmap threshold at 1 GiB and the trim
threshold at 2**31 - 1 bytes through ``mallopt``, once per process, so freed
step memory stays in the heap for the next step. Under any other C
library, or off Linux, that call does nothing.

Tensors are immutable once created and may be shared freely across threads.
A tape is single-threaded: record and backward must happen on one logical
thread.
"""

from __future__ import annotations

import ctypes
import functools
import math
import platform
import sys
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf as _erf
from scipy.special import expit as _expit

from .errors import ShapeError

# plain Python floats: a numpy float64 scalar would promote float32 arrays
# (NEP 50); the double values are the same
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_FLOAT_DTYPES = (np.float32, np.float64)

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# far above a step's big arrays (the default config's feed-forward
# activations are 16 MiB), so they come from the heap, not from mmap
_MMAP_THRESHOLD_BYTES = 1 << 30
_TRIM_THRESHOLD_BYTES = 2**31 - 1


@functools.cache
def _retain_heap() -> None:
    """Keep freed memory in glibc's heap (see the module docstring)."""
    if not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


class Tensor:
    """Immutable dense array, optionally marked as a trainable leaf."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: adopt an array we own without copying.
        t = object.__new__(cls)
        arr.setflags(write=False)
        t.data = arr
        t.requires_grad = False
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"


def zeros(shape, dtype=np.float64) -> Tensor:
    return Tensor._wrap(np.zeros(shape, dtype=dtype))


class _Node:
    __slots__ = ("output", "backward")

    def __init__(self, output: Tensor, backward: Callable):
        self.output = output
        self.backward = backward


_TAPES: list["GradTape"] = []


class GradTape:
    """Ordered record of operations supporting exact-reverse replay.

    Forward activations are saved eagerly inside each node's backward
    closure. Gradient accumulation is additive: a tensor consumed by k
    operations receives the sum of k partial adjoints. The reverse sweep
    takes each node's output gradient out of its table before replaying the
    node, so at any moment only the parameter gradients and the frontier of
    not-yet-replayed tensors are alive.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._output_ids: set[int] = set()
        self._params: dict[int, Tensor] = {}

    def __enter__(self) -> "GradTape":
        _retain_heap()
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def _record(self, output: Tensor, inputs: Sequence[Tensor], backward: Callable):
        for t in inputs:
            if t.requires_grad:
                self._params[id(t)] = t
        self.nodes.append(_Node(output, backward))
        self._output_ids.add(id(output))

    @property
    def parameters(self) -> list[Tensor]:
        """Trainable leaf tensors touched by recorded operations."""
        return list(self._params.values())

    def gradients(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Gradient of a recorded scalar loss for every trainable leaf."""
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if id(loss) not in self._output_ids:
            raise ValueError("loss was not recorded on this tape")
        grads: dict[int, np.ndarray] = {
            id(loss): np.ones_like(loss.data)
        }

        def accumulate(t: Tensor, g: np.ndarray):
            key = id(t)
            prev = grads.get(key)
            grads[key] = g if prev is None else prev + g

        for node in reversed(self.nodes):
            g = grads.pop(id(node.output), None)
            if g is None:
                continue
            node.backward(g, accumulate)
        return {
            t: grads[key] for key, t in self._params.items() if key in grads
        }


def _active() -> GradTape | None:
    return _TAPES[-1] if _TAPES else None


def record_op(output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
    """Record a custom operation on the active tape, if any.

    ``backward_fn(grad_out, accumulate)`` must call ``accumulate(t, g)`` for
    each differentiable input ``t`` with ``g`` shaped like ``t``.
    """
    tape = _active()
    if tape is not None:
        tape._record(output, inputs, backward_fn)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _broadcast_check(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not align") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "add")
    out = Tensor._wrap(a.data + b.data)

    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(g, b.shape))

    record_op(out, (a, b), bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)

    def bwd(g, acc):
        acc(a, _unbroadcast(g, a.shape))
        acc(b, _unbroadcast(-g, b.shape))

    record_op(out, (a, b), bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)

    def bwd(g, acc):
        acc(a, _unbroadcast(g * b.data, a.shape))
        acc(b, _unbroadcast(g * a.data, b.shape))

    record_op(out, (a, b), bwd)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    factor = float(factor)
    out = Tensor._wrap(a.data * factor)
    record_op(out, (a,), lambda g, acc: acc(a, g * factor))
    return out


def shift(a: Tensor, offset: float) -> Tensor:
    """Add a python scalar."""
    out = Tensor._wrap(a.data + float(offset))
    record_op(out, (a,), lambda g, acc: acc(a, g))
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = _expit(a.data)
    out = Tensor._wrap(s)
    record_op(out, (a,), lambda g, acc: acc(a, g * s * (1.0 - s)))
    return out


def gelu(a: Tensor) -> Tensor:
    """Gaussian-CDF gelu: x * Phi(x), with Phi computed through erf."""
    x = a.data
    # phi_cdf = 0.5 * (1 + erf(x / sqrt 2)), built in its own buffer
    phi_cdf = x * _INV_SQRT2
    _erf(phi_cdf, out=phi_cdf)
    phi_cdf += 1.0
    phi_cdf *= 0.5
    out = Tensor._wrap(x * phi_cdf)

    def bwd(g, acc):
        # g * (phi_cdf + x * pdf) with pdf = exp(-x^2 / 2) / sqrt(2 pi)
        gx = np.multiply(x, -0.5)
        gx *= x
        np.exp(gx, out=gx)
        gx *= _INV_SQRT_2PI
        gx *= x
        gx += phi_cdf
        gx *= g
        acc(a, gx)

    record_op(out, (a,), bwd)
    return out


def glu(y: Tensor) -> Tensor:
    """Gated linear unit on the last axis: y[..., :h] * sigmoid(y[..., h:]).

    One node: it keeps the sigmoid and reads the value half straight from
    ``y``, where the composition ``mul(narrow, sigmoid(narrow))`` would keep
    both halves, the sigmoid and the product.
    """
    width = y.shape[-1]
    if width % 2 != 0:
        raise ShapeError(f"glu needs an even last axis, got width {width}")
    half = width // 2
    value = y.data[..., :half]
    s = _expit(y.data[..., half:])
    out = Tensor._wrap(value * s)

    def bwd(g, acc):
        gy = np.empty(y.shape, dtype=np.result_type(g, s))
        g_value, g_gate = gy[..., :half], gy[..., half:]
        # g * value * s * (1 - s), with 1 - s parked in the value half
        np.subtract(1.0, s, out=g_value)
        np.multiply(g, value, out=g_gate)
        g_gate *= s
        g_gate *= g_value
        np.multiply(g, s, out=g_value)
        acc(y, gy)

    record_op(out, (y,), bwd)
    return out


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul requires 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} @ {b.shape}")
    try:
        out_data = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul batch dimensions do not align: {a.shape} @ {b.shape}") from None
    out = Tensor._wrap(out_data)

    def bwd(g, acc):
        acc(a, _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        acc(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    record_op(out, (a, b), bwd)
    return out


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on the last axis, x @ w + b, as one node.

    ``w`` is (in, out) and ``b`` is (out,). All leading axes of ``x`` fold
    into the rows of one 2-d product, the bias is added in place, and the
    backward pass takes dx, dw and db as one product or sum each.

    With a (groups, in, out) weight and a (groups, out) bias, the last axis
    of ``x`` holds ``groups`` consecutive ``in``-wide slices, and each maps
    by its own weight and bias to the matching ``out``-wide output slice:
    one batched product over strided views, written in the output's layout.
    """
    if w.ndim not in (2, 3) or b.shape != w.shape[:-2] + w.shape[-1:]:
        raise ShapeError(
            "linear needs an (in, out) weight and (out,) bias, or a (groups, in, out) "
            f"weight and (groups, out) bias, got {w.shape}/{b.shape}"
        )
    groups = w.shape[0] if w.ndim == 3 else 1
    d_in, d_out = w.shape[-2:]
    if x.ndim < 1 or x.shape[-1] != groups * d_in:
        raise ShapeError(f"linear input width differs from the weight: {x.shape} @ {w.shape}")
    if w.ndim == 2:
        rows = np.matmul(x.data.reshape(-1, d_in), w.data)

        def bwd(g, acc):
            g2 = g.reshape(-1, d_out)
            acc(x, np.matmul(g2, w.data.T).reshape(x.shape))
            acc(w, np.matmul(x.data.reshape(-1, d_in).T, g2))
            acc(b, g2.sum(axis=0))
    else:
        # (groups, rows, width) views of row-major (rows, groups, width) arrays
        xg = x.data.reshape(-1, groups, d_in).transpose(1, 0, 2)
        rows = np.empty((xg.shape[1], groups, d_out), dtype=np.result_type(x.data, w.data))
        np.matmul(xg, w.data, out=rows.transpose(1, 0, 2))

        def bwd(g, acc):
            g3 = g.reshape(-1, groups, d_out)
            gg = g3.transpose(1, 0, 2)
            gx = np.empty(x.shape, dtype=np.result_type(g, w.data))
            np.matmul(gg, w.data.transpose(0, 2, 1),
                      out=gx.reshape(-1, groups, d_in).transpose(1, 0, 2))
            acc(x, gx)
            acc(w, np.matmul(xg.transpose(0, 2, 1), gg))
            acc(b, g3.sum(axis=0))
    rows += b.data
    out = Tensor._wrap(rows.reshape(x.shape[:-1] + (groups * d_out,)))
    record_op(out, (x, w, b), bwd)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor._wrap(a.data.reshape(shape))
    record_op(out, (a,), lambda g, acc: acc(a, g.reshape(a.shape)))
    return out


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = Tensor._wrap(np.transpose(a.data, axes))
    record_op(out, (a,), lambda g, acc: acc(a, np.transpose(g, inv)))
    return out


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice of length ``size`` along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    out = Tensor._wrap(np.ascontiguousarray(a.data[idx]))

    def bwd(g, acc):
        full = np.zeros(a.shape, dtype=g.dtype)
        full[idx] = g
        acc(a, full)

    record_op(out, (a,), bwd)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def bwd(g, acc):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            acc(t, g[tuple(idx)])

    record_op(out, tuple(tensors), bwd)
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor._wrap(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g, acc):
        if axis is None:
            acc(a, np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        acc(a, np.broadcast_to(g, a.shape).copy())

    record_op(out, (a,), bwd)
    return out


def reverse_within(a: Tensor, lengths) -> Tensor:
    """Reverse axis 1 of each batch row within its valid length.

    Positions at or beyond the row's length stay in place, so trailing
    padding is untouched. The map is an involution, hence its own adjoint.
    """
    bsz, horizon = a.shape[0], a.shape[1]
    lengths = np.asarray(lengths, dtype=np.int64).reshape(bsz, 1)
    if (lengths == horizon).all():
        out = Tensor._wrap(np.ascontiguousarray(a.data[:, ::-1]))
        record_op(out, (a,), lambda g, acc: acc(a, np.ascontiguousarray(g[:, ::-1])))
        return out
    t = np.arange(horizon, dtype=np.int64)[None, :]
    idx = np.where(t < lengths, lengths - 1 - t, t)
    take_idx = idx.reshape(bsz, horizon, *([1] * (a.ndim - 2)))
    out = Tensor._wrap(np.take_along_axis(a.data, take_idx, axis=1))
    record_op(out, (a,), lambda g, acc: acc(a, np.take_along_axis(g, take_idx, axis=1)))
    return out


# ---------------------------------------------------------------------------
# normalization, attention softmax, losses


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    Uses the population variance with ``eps`` inside the square root.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    buf = xhat * xhat
    var = buf.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    np.multiply(xhat, gain.data, out=buf)
    buf += bias.data
    out = Tensor._wrap(buf)

    def bwd(g, acc):
        lead = tuple(range(g.ndim - 1))
        buf = g * xhat
        acc(gain, buf.sum(axis=lead))
        acc(bias, g.sum(axis=lead))
        # gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain
        gx = g * gain.data
        np.multiply(gx, xhat, out=buf)
        proj = buf.mean(axis=-1, keepdims=True)
        np.multiply(xhat, proj, out=buf)
        gx -= gx.mean(axis=-1, keepdims=True)
        gx -= buf
        gx *= inv
        acc(x, gx)

    record_op(out, (x, gain, bias), bwd)
    return out


def softmax(x: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stabilized softmax over the last axis.

    ``mask`` is a boolean array broadcastable to ``x``; False entries come
    out exactly 0. A row with no True entry is an error.
    """
    if mask is None:
        z = x.data
        m = z.max(axis=-1, keepdims=True)
        e = np.exp(z - m)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ValueError("softmax: at least one row is fully masked")
        z = np.where(mask, x.data, -np.inf)
        m = z.max(axis=-1, keepdims=True)
        e = np.where(mask, np.exp(z - m), 0.0)
    s = e / e.sum(axis=-1, keepdims=True)
    out = Tensor._wrap(s)

    def bwd(g, acc):
        acc(x, s * (g - (g * s).sum(axis=-1, keepdims=True)))

    record_op(out, (x,), bwd)
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray, ignore_index: int = -1) -> Tensor:
    """Mean negative log-likelihood over positions whose target is valid.

    ``targets`` is an integer array shaped like ``logits`` without the class
    axis; entries equal to ``ignore_index`` contribute nothing.
    """
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"targets shape {targets.shape} does not match logits {logits.shape[:-1]}"
        )
    valid = targets != ignore_index
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy: no valid target positions")
    z = logits.data
    m = z.max(axis=-1, keepdims=True)
    e = np.exp(z - m)
    denom = e.sum(axis=-1, keepdims=True)
    logp = (z - m) - np.log(denom)
    safe_targets = np.where(valid, targets, 0)
    picked = np.take_along_axis(logp, safe_targets[..., None], axis=-1)[..., 0]
    loss_val = -(picked * valid).sum() / n_valid
    out = Tensor._wrap(np.asarray(loss_val, dtype=logits.dtype))

    def bwd(g, acc):
        p = e / denom
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, safe_targets[..., None], 1.0, axis=-1)
        gx = (p - onehot) * valid[..., None] * (float(g) / n_valid)
        acc(logits, gx)

    record_op(out, (logits,), bwd)
    return out


def accuracy(logits_data: np.ndarray, targets: np.ndarray, ignore_index: int = -1) -> float:
    """Fraction of valid positions whose argmax matches the target."""
    valid = targets != ignore_index
    if not valid.any():
        return 0.0
    pred = logits_data.argmax(axis=-1)
    return float((pred == targets)[valid].mean())


def dropout(x: Tensor, p: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout; identity when ``p`` is 0 or no generator is given."""
    if p <= 0.0 or rng is None:
        return x
    keep = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = Tensor._wrap(x.data * keep)
    record_op(out, (x,), lambda g, acc: acc(x, g * keep))
    return out


# ---------------------------------------------------------------------------
# FFT convolution


def next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


def causal_conv_fft(u: Tensor, kernel: Tensor, skip: Tensor) -> Tensor:
    """Causal convolution of (batch, length, channels) with per-channel kernels,
    plus the per-channel feedthrough ``skip * u``.

    ``kernel`` has shape (channels, taps) and ``skip`` (channels,). The FFT
    size is the next power of two at or above length + taps, so no circular
    wrap reaches the returned prefix. Output position t depends on input
    positions <= t only. The skip term is added in place inside this node,
    so the result is stored once.
    """
    bsz, length, channels = u.shape
    kc, taps = kernel.shape
    if kc != channels:
        raise ShapeError(
            f"kernel channels {kc} do not match input channels {channels}"
        )
    if skip.shape != (channels,):
        raise ShapeError(f"skip shape {skip.shape} does not match input channels {channels}")
    m = next_pow2(length + taps)
    # transform along a contiguous axis: (batch, length, ch) -> (batch, ch, length)
    uf = np.fft.rfft(np.ascontiguousarray(u.data.transpose(0, 2, 1)), n=m, axis=-1)
    kf = np.fft.rfft(kernel.data, n=m, axis=-1)[None]
    y = np.fft.irfft(uf * kf, n=m, axis=-1)[:, :, :length]
    y = np.ascontiguousarray(y.transpose(0, 2, 1)).astype(u.dtype, copy=False)
    y += skip.data * u.data
    out = Tensor._wrap(y)

    def bwd(g, acc):
        gf = np.fft.rfft(np.ascontiguousarray(g.transpose(0, 2, 1)), n=m, axis=-1)
        gu = np.fft.irfft(gf * np.conj(kf), n=m, axis=-1)[:, :, :length]
        gu = np.ascontiguousarray(gu.transpose(0, 2, 1)).astype(u.dtype, copy=False)
        gu += g * skip.data
        acc(u, gu)
        gk = np.fft.irfft((gf * np.conj(uf)).sum(axis=0), n=m, axis=-1)[:, :taps]
        acc(kernel, gk.astype(kernel.dtype, copy=False))
        acc(skip, (g * u.data).sum(axis=(0, 1)))

    record_op(out, (u, kernel, skip), bwd)
    return out
