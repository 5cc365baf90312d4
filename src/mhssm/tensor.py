"""Dense float tensors with a reverse-mode gradient tape.

Values are numpy arrays in float64 (the test/reference precision) or float32
(training option). Complex quantities are represented by callers as separate
(re, im) tensor pairs, so every array stays real and every backward rule is
explicit. Operations record onto the innermost active :class:`GradTape`; with
no tape active they are plain numpy computations.

A tape keeps only what the reverse sweep still reads. Every tensor carries a
``key`` from a process-wide counter that never repeats, and the tape routes
gradients by key, so it holds no tensor: each node keeps its output's key
and a backward closure that captures its inputs' keys and shapes plus the
arrays its rule reads, never a whole input tensor. A residual sum, a concat
or reversal input or the gate half of a glu input is therefore freed as soon
as the forward pass drops it. The sweep pops each node as it replays it, so
its saved activations go as it goes, and an intermediate tensor's gradient
is dropped as soon as the node that produced it has run its backward; a
tape is swept once. The hottest composites (affine map, gelu or glu
followed by the affine map that reads it, convolution plus skip) are single
nodes that store their result once, and so are the two pre-norm branches
of an encoder layer: ``feed_forward`` (layer norm, affine map, gelu, affine
map) and ``attention`` (layer norm, the q, k and v maps, multi-head
attention). ``glu_linear`` keeps the sigmoid and the value half, one
multiply away from its output, and rebuilds that output in the backward for
the weight gradient instead of holding it. ``gelu_linear`` keeps its output
and its slope gelu'(x) instead of x and Phi(x): the same two arrays' worth,
but its backward then makes no full-size temporary besides dx.
``feed_forward`` keeps the norm's xhat and per-frame 1/sigma and the gelu
output and slope, and rebuilds the norm's output h elementwise in the
backward; ``attention`` keeps only xhat and 1/sigma and rebuilds h, q, k, v
and each (row, head) tile's weights in the backward, so no (batch, heads,
length, length) array is ever kept or made. ``dropout`` keeps its boolean
keep mask, and ``linear`` and ``mul`` make no gradient for an input that no
gradient can reach, such as a model's input frames.

Each shared rule has one copy: the layer norm's forward and backward
(``_normalize``, ``_norm_affine``, ``_norm_backward``), gelu with its slope
(``_gelu``) and the affine map's expression (``_affine``), which the fused
nodes call as ``layer_norm``, ``gelu_linear`` and ``linear`` do. The
elementwise rules build each result in one preallocated buffer with
``out=`` and in-place operators, in the same operation order as the plain
expressions, so their values keep every bit; ``_gelu`` makes the slope in
the forward, a block of rows at a time, into Phi's buffer (``feed_forward``
writes the gelu output over its pre-activation the same way), and
``attention`` works one tile at a time, so no backward holds a second
full-size temporary.

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
import itertools
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

# values per block of gelu_linear's slope, the size of ssm._TILE_VALUES: a
# block's temporary stays in cache and is never full-size
_BLOCK_VALUES = 16384

# tape keys: unlike id(), never reused after a tensor is freed
_next_key = itertools.count().__next__


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

    __slots__ = ("data", "requires_grad", "key")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.key = _next_key()

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal: adopt an array we own without copying.
        t = object.__new__(cls)
        arr.setflags(write=False)
        t.data = arr
        t.requires_grad = False
        t.key = _next_key()
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
    __slots__ = ("key", "backward")

    def __init__(self, key: int, backward: Callable):
        self.key = key
        self.backward = backward


_TAPES: list["GradTape"] = []


class GradTape:
    """Ordered record of operations supporting exact-reverse replay.

    Each node holds its output's key and a backward closure that saved the
    forward arrays its rule reads; the tape holds no intermediate tensor,
    only the trainable leaves it saw. Gradients are routed by key and
    accumulate additively: a tensor consumed by k operations receives the
    sum of k partial adjoints. The reverse sweep pops each node before
    replaying it and takes the node's output gradient out of its table, so
    at any moment only the parameter gradients, the frontier of
    not-yet-replayed tensors and the activations of unreplayed nodes are
    alive. A tape is swept once: a second :meth:`gradients` call raises
    ``ValueError``. The order of the dict that :meth:`gradients` returns
    carries no meaning; a caller that sums gradients orders them itself, as
    the trainer does by its module tree.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._output_keys: set[int] = set()
        self._params: dict[int, Tensor] = {}
        self._swept = False

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
                self._params[t.key] = t
        self.nodes.append(_Node(output.key, backward))
        self._output_keys.add(output.key)

    def gradients(self, loss: Tensor) -> dict[Tensor, np.ndarray]:
        """Gradient of a recorded scalar loss for every trainable leaf.

        Consumes the tape: its nodes, and the activations they saved, are
        released as the sweep replays them.
        """
        if loss.size != 1:
            raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
        if self._swept:
            raise ValueError("this tape was already swept; record the step again")
        if loss.key not in self._output_keys:
            raise ValueError("loss was not recorded on this tape")
        self._swept = True
        grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}

        def accumulate(t: Tensor | int, g: np.ndarray):
            key = t if type(t) is int else t.key
            prev = grads.get(key)
            grads[key] = g if prev is None else prev + g

        nodes = self.nodes
        while nodes:
            node = nodes.pop()
            g = grads.pop(node.key, None)
            if g is not None:
                node.backward(g, accumulate)
            del node, g
        return {
            t: grads[key] for key, t in self._params.items() if key in grads
        }


def _active() -> GradTape | None:
    return _TAPES[-1] if _TAPES else None


def record_op(output: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
    """Record a custom operation on the active tape, if any.

    ``backward_fn(grad_out, accumulate)`` must call ``accumulate(t, g)`` for
    each differentiable input ``t``, given as the tensor or its ``key``,
    with ``g`` shaped like ``t``. It should capture the inputs' keys and
    the arrays it reads rather than the input tensors, so that the tape
    frees what no backward rule reads.
    """
    tape = _active()
    if tape is not None:
        tape._record(output, inputs, backward_fn)


def _differentiable(t: Tensor) -> bool:
    """Whether a gradient can reach ``t``: a trainable leaf, or an output
    recorded on the active tape."""
    if t.requires_grad:
        return True
    tape = _active()
    return tape is not None and t.key in tape._output_keys


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
    a_key, a_shape, b_key, b_shape = a.key, a.shape, b.key, b.shape

    def bwd(g, acc):
        acc(a_key, _unbroadcast(g, a_shape))
        acc(b_key, _unbroadcast(g, b_shape))

    record_op(out, (a, b), bwd)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check(a, b, "sub")
    out = Tensor._wrap(a.data - b.data)
    a_key, a_shape, b_key, b_shape = a.key, a.shape, b.key, b.shape

    def bwd(g, acc):
        acc(a_key, _unbroadcast(g, a_shape))
        acc(b_key, _unbroadcast(-g, b_shape))

    record_op(out, (a, b), bwd)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; an operand no gradient can reach (a constant,
    such as a padding mask) gets none, and the other operand is not kept
    for it."""
    _broadcast_check(a, b, "mul")
    out = Tensor._wrap(a.data * b.data)
    a_key, a_shape, b_key, b_shape = a.key, a.shape, b.key, b.shape
    b_data = b.data if _differentiable(a) else None
    a_data = a.data if _differentiable(b) else None

    def bwd(g, acc):
        if b_data is not None:
            acc(a_key, _unbroadcast(g * b_data, a_shape))
        if a_data is not None:
            acc(b_key, _unbroadcast(g * a_data, b_shape))

    record_op(out, (a, b), bwd)
    return out


def scale(a: Tensor, factor: float) -> Tensor:
    """Multiply by a python scalar."""
    factor = float(factor)
    out = Tensor._wrap(a.data * factor)
    key = a.key
    record_op(out, (a,), lambda g, acc: acc(key, g * factor))
    return out


def shift(a: Tensor, offset: float) -> Tensor:
    """Add a python scalar."""
    out = Tensor._wrap(a.data + float(offset))
    key = a.key
    record_op(out, (a,), lambda g, acc: acc(key, g))
    return out


# ---------------------------------------------------------------------------
# linear algebra and structure


def _affine(a2: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a2 @ w + b for a 2-d ``a2``, by ``linear``'s expression: one product,
    then the bias added in place."""
    rows = np.matmul(a2, w)
    rows += b
    return rows


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on the last axis, x @ w + b, as one node.

    ``w`` is (in, out) and ``b`` is (out,). All leading axes of ``x`` fold
    into the rows of one 2-d product, the bias is added in place, and the
    backward pass takes dx, dw and db as one product or sum each; dx only
    when a gradient can reach ``x`` (not for a constant input, such as a
    model's input frames).

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
    x_data, w_data = x.data, w.data
    x_key, x_shape, w_key, b_key = x.key, x.shape, w.key, b.key
    x_grad = _differentiable(x)
    if w.ndim == 2:
        rows = _affine(x_data.reshape(-1, d_in), w_data, b.data)

        def bwd(g, acc):
            g2 = g.reshape(-1, d_out)
            if x_grad:
                acc(x_key, np.matmul(g2, w_data.T).reshape(x_shape))
            acc(w_key, np.matmul(x_data.reshape(-1, d_in).T, g2))
            acc(b_key, g2.sum(axis=0))
    else:
        # (groups, rows, width) views of row-major (rows, groups, width) arrays
        xg = x_data.reshape(-1, groups, d_in).transpose(1, 0, 2)
        rows = np.empty((xg.shape[1], groups, d_out), dtype=np.result_type(x_data, w_data))
        np.matmul(xg, w_data, out=rows.transpose(1, 0, 2))
        rows += b.data

        def bwd(g, acc):
            g3 = g.reshape(-1, groups, d_out)
            gg = g3.transpose(1, 0, 2)
            if x_grad:
                gx = np.empty(x_shape, dtype=np.result_type(g, w_data))
                np.matmul(gg, w_data.transpose(0, 2, 1),
                          out=gx.reshape(-1, groups, d_in).transpose(1, 0, 2))
                acc(x_key, gx)
            acc(w_key, np.matmul(xg.transpose(0, 2, 1), gg))
            acc(b_key, g3.sum(axis=0))
    out = Tensor._wrap(rows.reshape(x.shape[:-1] + (groups * d_out,)))
    record_op(out, (x, w, b), bwd)
    return out


def _dense_dims(op: str, width: int, w: Tensor, b: Tensor) -> tuple[int, int]:
    """(in, out) of an (in, out) weight and (out,) bias that read ``width``
    input features."""
    if w.ndim != 2 or b.shape != w.shape[-1:]:
        raise ShapeError(
            f"{op} needs an (in, out) weight and (out,) bias, got {w.shape}/{b.shape}"
        )
    if width != w.shape[0]:
        raise ShapeError(f"{op} input width {width} differs from the weight: {w.shape}")
    return w.shape


def _gelu(x2: np.ndarray, act: np.ndarray) -> np.ndarray | None:
    """The gelu of 2-d ``x2``, x * Phi(x) with Phi computed through erf,
    written into ``act``, which may be ``x2`` itself.

    On a tape, also returns the slope gelu'(x) = Phi(x) + x * pdf(x), made
    in Phi's buffer a block of rows at a time; each block's output is
    written after its pdf term and before its slope, so no full-size
    temporary is made. With no tape active it returns None and makes no
    slope.
    """
    # phi = 0.5 * (1 + erf(x / sqrt 2)), built in its own buffer
    phi = x2 * _INV_SQRT2
    _erf(phi, out=phi)
    phi += 1.0
    phi *= 0.5
    if _active() is None:
        np.multiply(x2, phi, out=act)
        return None
    # slope = Phi + x * pdf, pdf = exp(-x^2 / 2) / sqrt(2 pi), into Phi's buffer
    step = max(1, _BLOCK_VALUES // x2.shape[-1])
    for lo in range(0, len(x2), step):
        xb, phi_b = x2[lo:lo + step], phi[lo:lo + step]
        pdf_term = np.multiply(xb, -0.5)
        pdf_term *= xb
        np.exp(pdf_term, out=pdf_term)
        pdf_term *= _INV_SQRT_2PI
        pdf_term *= xb
        np.multiply(xb, phi_b, out=act[lo:lo + step])
        phi_b += pdf_term
    return phi


def gelu_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Gaussian-CDF gelu, then the affine map on the last axis, as one node:
    (x * Phi(x)) @ w + b, with Phi computed through erf (``_gelu``).

    ``w`` is (in, out) and ``b`` is (out,). On a tape the node keeps the
    gelu output x * Phi(x), which the map read, and the slope gelu'(x) =
    Phi(x) + x * pdf(x); it keeps no view of ``x``. Its backward takes dw
    from the output, frees it, takes the output's gradient through w^T and
    multiplies that buffer by the slope in place, so it makes no full-size
    temporary besides dx. With no tape active nothing is kept and no slope
    is made. Each value and gradient is the same product, in the same
    order, as gelu then ``linear``.
    """
    d_in, d_out = _dense_dims("gelu_linear", x.shape[-1] if x.ndim else 0, w, b)
    x2 = x.data.reshape(-1, d_in)
    act = np.empty(x2.shape, dtype=x2.dtype)
    slope = _gelu(x2, act)
    out = Tensor._wrap(_affine(act, w.data, b.data).reshape(x.shape[:-1] + (d_out,)))
    if slope is None:
        return out
    w_data, x_key, x_shape, w_key, b_key = w.data, x.key, x.shape, w.key, b.key

    def bwd(g, acc):
        nonlocal act
        g2 = g.reshape(-1, d_out)
        acc(w_key, np.matmul(act.T, g2))
        acc(b_key, g2.sum(axis=0))
        act = None  # the output goes before dx is made
        gx = np.matmul(g2, w_data.T)
        gx *= slope
        acc(x_key, gx.reshape(x_shape))

    record_op(out, (x, w, b), bwd)
    return out


def glu_linear(y: Tensor, w: Tensor, b: Tensor, in_axes: int = 1) -> Tensor:
    """Gated linear unit on the last axis, then an affine map, as one node:
    glu(y) @ w + b, with glu(y) = y[..., :h] * sigmoid(y[..., h:]).

    The map reads the glu output's last ``in_axes`` axes as its input: with
    ``in_axes=2``, a (..., heads, 2 * width) view gates each head by its own
    half and the map reads all heads * width gated values. ``w`` is
    (in, out) and ``b`` is (out,). On a tape the node keeps the sigmoid and
    a copy of the value half (a view would keep all of ``y`` alive), not the
    glu output: its backward rebuilds that output for dw and frees it, then
    takes its gradient through w^T and builds dy from that. With no tape
    active nothing is kept, so nothing is copied. Each value and gradient is
    the same product, in the same order, as glu then ``linear``.
    """
    width = y.shape[-1] if y.ndim else 1
    if width % 2 != 0:
        raise ShapeError(f"glu needs an even last axis, got width {width}")
    if not 1 <= in_axes <= y.ndim:
        raise ShapeError(f"glu_linear: in_axes {in_axes} out of range for {y.shape}")
    half = width // 2
    feats = math.prod(y.shape[y.ndim - in_axes:-1]) * half
    d_in, d_out = _dense_dims("glu_linear", feats, w, b)
    value = y.data[..., :half]
    if _active() is not None:
        value = value.copy()
    s = _expit(y.data[..., half:])
    rows = _affine((value * s).reshape(-1, d_in), w.data, b.data)
    out = Tensor._wrap(rows.reshape(y.shape[:y.ndim - in_axes] + (d_out,)))
    w_data, y_key, y_shape, w_key, b_key = w.data, y.key, y.shape, w.key, b.key

    def bwd(g, acc):
        g2 = g.reshape(-1, d_out)
        acc(w_key, np.matmul((value * s).reshape(-1, d_in).T, g2))
        acc(b_key, g2.sum(axis=0))
        g_act = np.matmul(g2, w_data.T).reshape(s.shape)
        gy = np.empty(y_shape, dtype=np.result_type(g_act, s))
        g_value, g_gate = gy[..., :half], gy[..., half:]
        # g * value * s * (1 - s), with 1 - s parked in the value half
        np.subtract(1.0, s, out=g_value)
        np.multiply(g_act, value, out=g_gate)
        g_gate *= s
        g_gate *= g_value
        np.multiply(g_act, s, out=g_value)
        acc(y_key, gy)

    record_op(out, (y, w, b), bwd)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor._wrap(a.data.reshape(shape))
    key, a_shape = a.key, a.shape
    record_op(out, (a,), lambda g, acc: acc(key, g.reshape(a_shape)))
    return out


def narrow(a: Tensor, axis: int, start: int, size: int) -> Tensor:
    """Contiguous slice of length ``size`` along one axis."""
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)
    out = Tensor._wrap(np.ascontiguousarray(a.data[idx]))
    key, shape = a.key, a.shape

    def bwd(g, acc):
        full = np.zeros(shape, dtype=g.dtype)
        full[idx] = g
        acc(key, full)

    record_op(out, (a,), bwd)
    return out


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    tensors = list(tensors)
    out = Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    keys = [t.key for t in tensors]
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g, acc):
        for key, lo, hi in zip(keys, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            acc(key, g[tuple(idx)])

    record_op(out, tuple(tensors), bwd)
    return out


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor._wrap(a.data.sum(axis=axis, keepdims=keepdims))
    key, shape = a.key, a.shape

    def bwd(g, acc):
        if axis is None:
            acc(key, np.broadcast_to(g, shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        acc(key, np.broadcast_to(g, shape).copy())

    record_op(out, (a,), bwd)
    return out


# ---------------------------------------------------------------------------
# normalization, attention, losses


def _normalize(op: str, x: Tensor, gain: Tensor, bias: Tensor, eps: float):
    """Layer norm's forward over the last axis of ``x``: (h, xhat, inv).

    inv = 1 / sqrt(var + eps) per frame, with the population variance,
    xhat = (x - mean) * inv, and h = xhat * gain + bias (``_norm_affine``)
    in the buffer that held the squares.
    """
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"{op} affine shapes {gain.shape}/{bias.shape} do not match feature dim {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = x.data - mu
    h = xhat * xhat
    var = h.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    return _norm_affine(xhat, gain.data, bias.data, h), xhat, inv


def _norm_affine(xhat: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """h = xhat * gain + bias, into ``out`` if given. A node that rebuilds
    h in its backward calls this too, so the rebuilt h keeps its bits."""
    out = np.multiply(xhat, gain, out=out)
    out += bias
    return out


def _norm_backward(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray, gain: np.ndarray):
    """Layer norm's backward for the output gradient ``g``: (dx, dgain, dbias)."""
    lead = tuple(range(g.ndim - 1))
    buf = g * xhat
    dgain = buf.sum(axis=lead)
    dbias = g.sum(axis=lead)
    # gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain
    gx = g * gain
    np.multiply(gx, xhat, out=buf)
    proj = buf.mean(axis=-1, keepdims=True)
    np.multiply(xhat, proj, out=buf)
    gx -= gx.mean(axis=-1, keepdims=True)
    gx -= buf
    gx *= inv
    return gx, dgain, dbias


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis, then affine.

    Uses the population variance with ``eps`` inside the square root. On a
    tape the node keeps xhat and the per-frame 1/sigma (``_normalize``);
    the pre-norms of the attention and feed-forward branches run inside
    those branches' nodes by the same two rules instead.
    """
    h, xhat, inv = _normalize("layer_norm", x, gain, bias, eps)
    out = Tensor._wrap(h)
    gain_data, x_key, gain_key, bias_key = gain.data, x.key, gain.key, bias.key

    def bwd(g, acc):
        gx, dgain, dbias = _norm_backward(g, xhat, inv, gain_data)
        acc(gain_key, dgain)
        acc(bias_key, dbias)
        acc(x_key, gx)

    record_op(out, (x, gain, bias), bwd)
    return out


def feed_forward(x: Tensor, gain: Tensor, bias: Tensor, w1: Tensor, b1: Tensor,
                 w2: Tensor, b2: Tensor, eps: float = 1e-5) -> Tensor:
    """Pre-norm two-layer net as one node: gelu(h @ w1 + b1) @ w2 + b2, with
    h = layer_norm(x, gain, bias) and the gelu of ``gelu_linear``.

    ``w1`` is (dim, hidden) and ``w2`` (hidden, out). The first map's
    output becomes the gelu output in its own buffer, and the slope is
    made in Phi's, a block of rows at a time (``_gelu``), so the forward
    never holds the pre-activation beside both. On a tape the node keeps
    xhat, the per-frame 1/sigma, the gelu output and the slope: neither h
    nor the pre-activation. Its backward takes dw2 from the gelu output and
    frees it, takes the pre-activation's gradient through w2^T times the
    slope, rebuilds h from xhat (elementwise, no product) for dw1, then
    runs the norm's rule (``_norm_backward``). Each value and gradient is
    the same product, in the same order, as ``layer_norm``, ``linear`` and
    ``gelu_linear`` as three nodes.
    """
    d = x.shape[-1] if x.ndim else 0
    _, hidden = _dense_dims("feed_forward", d, w1, b1)
    _, d_out = _dense_dims("feed_forward", hidden, w2, b2)
    h, xhat, inv = _normalize("feed_forward", x, gain, bias, eps)
    act = _affine(h.reshape(-1, d), w1.data, b1.data)
    del h
    slope = _gelu(act, act)
    out = Tensor._wrap(_affine(act, w2.data, b2.data).reshape(x.shape[:-1] + (d_out,)))
    if slope is None:
        return out
    gain_data, bias_data, w1_data, w2_data = gain.data, bias.data, w1.data, w2.data
    x_key, x_shape, gain_key, bias_key = x.key, x.shape, gain.key, bias.key
    w1_key, b1_key, w2_key, b2_key = w1.key, b1.key, w2.key, b2.key

    def bwd(g, acc):
        nonlocal act, slope
        g2 = g.reshape(-1, d_out)
        acc(w2_key, np.matmul(act.T, g2))
        acc(b2_key, g2.sum(axis=0))
        act = None  # the gelu output goes before the pre-activation's gradient is made
        g_pre = np.matmul(g2, w2_data.T)
        g_pre *= slope
        slope = None  # so is the slope, before h is rebuilt
        h2 = _norm_affine(xhat, gain_data, bias_data).reshape(-1, d)
        acc(w1_key, np.matmul(h2.T, g_pre))
        acc(b1_key, g_pre.sum(axis=0))
        del h2
        gh = np.matmul(g_pre, w1_data.T).reshape(x_shape)
        del g_pre
        gx, dgain, dbias = _norm_backward(gh, xhat, inv, gain_data)
        acc(gain_key, dgain)
        acc(bias_key, dbias)
        acc(x_key, gx)

    record_op(out, (x, gain, bias, w1, b1, w2, b2), bwd)
    return out


def _attention_probs(q_h: np.ndarray, k_h: np.ndarray, factor: float) -> np.ndarray:
    """Weights of one (row, head) tile of :func:`attention`: the
    softmax over keys of q_h @ k_h^T * factor, built in one buffer."""
    p = np.matmul(q_h, k_h.T)
    p *= factor
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _attention_grads(q: np.ndarray, k: np.ndarray, v: np.ndarray, g: np.ndarray,
                     tiles, factor: float):
    """(dq, dk, dv) of :func:`attention`'s tiles for the context gradient
    ``g``, all (frames, dim): each tile's weights rebuilt by
    ``_attention_probs``, then dv = P^T @ g_h, dP = g_h @ v_h^T, softmax's
    rule in dP's buffer, the scale, dq = dS @ k_h and dk = (q_h^T @ dS)^T."""
    gq, gk, gv = (np.empty(g.shape, dtype=np.result_type(g, q)) for _ in range(3))
    for rows, cols in tiles:
        q_h, k_h, v_h, g_h = (a[rows, cols] for a in (q, k, v, g))
        p = _attention_probs(q_h, k_h, factor)
        gv[rows, cols] = np.matmul(p.T, g_h)
        gs = np.matmul(g_h, v_h.T)
        # softmax's rule, p * (gs - sum(gs * p)), in gs's buffer
        proj = gs * p
        gs -= proj.sum(axis=-1, keepdims=True)
        gs *= p
        gs *= factor
        gq[rows, cols] = np.matmul(gs, k_h)
        gk[rows, cols] = np.matmul(q_h.T, gs).T
    return gq, gk, gv


def attention(x: Tensor, gain: Tensor, bias: Tensor, wq: Tensor, bq: Tensor,
              wk: Tensor, bk: Tensor, wv: Tensor, bv: Tensor, heads: int,
              starts, eps: float = 1e-5) -> Tensor:
    """Pre-norm multi-head scaled dot-product attention as one node: the
    layer norm of ``x``, its q, k and v maps, and attention over them.

    ``x`` is (frames, dim) and holds a batch's rows one after another, as a
    packed batch does: row b is frames ``starts[b]`` to ``starts[b+1]``, at
    least one each, and its queries attend to its keys only. h =
    layer_norm(x, gain, bias) (``_normalize``); q = h @ wq + bq, and so k
    and v, each by ``linear``'s expression with a (dim, dim) weight. Head h
    reads columns h*dh to (h+1)*dh of each, with dh = dim / heads, and
    writes the same columns of the (frames, dim) result.

    The node runs one (row, head) tile at a time, sliced out of the packed
    frames: the scores q_h @ k_h^T, scaled in place by 1/sqrt(dh), the
    softmax in the same buffer (``_attention_probs``), then P @ v_h, so a
    row of n frames costs its n^2 scores. On a tape it keeps only xhat,
    the per-frame 1/sigma and the row starts, never h, q, k, v or the
    (rows, heads, n, n) weights. Its backward rebuilds h, then q, k and v
    by the same products, runs the tiles' rule (``_attention_grads``), then
    each map's, summing h's gradient v's part first, then k's, then q's,
    as a tape sums three ``linear`` nodes', and ends with the norm's rule.
    So every value and gradient keeps the bits of norm, three ``linear``
    nodes, scores, scale, softmax and weighted sum as separate nodes over
    (rows, heads, n, dh) views.
    """
    maps = ((wq, bq), (wk, bk), (wv, bv))
    dim = x.shape[-1] if x.ndim else 0
    if x.ndim != 2 or any(w.shape != (dim, dim) or b.shape != (dim,) for w, b in maps):
        raise ShapeError(
            f"attention needs (frames, dim) input and equal (dim, dim) q, k and v weights "
            f"with (dim,) biases, got {x.shape} and "
            + ", ".join(f"{w.shape}/{b.shape}" for w, b in maps)
        )
    frames = x.shape[0]
    if heads < 1 or dim % heads:
        raise ShapeError(f"attention width {dim} not divisible by {heads} heads")
    starts = [int(t) for t in starts]
    if starts[0] != 0 or starts[-1] != frames:
        raise ShapeError(f"attention row starts {starts} do not cover {frames} frames")
    if any(lo >= hi for lo, hi in zip(starts, starts[1:])):
        raise ValueError(f"attention: every row needs at least one frame, "
                         f"got row starts {starts}")
    dh = dim // heads
    factor = 1.0 / math.sqrt(dh)
    tiles = [(slice(lo, hi), slice(h * dh, (h + 1) * dh))
             for lo, hi in zip(starts, starts[1:]) for h in range(heads)]
    h, xhat, inv = _normalize("attention", x, gain, bias, eps)
    map_data = [(w.data, b.data) for w, b in maps]
    q_data, k_data, v_data = (_affine(h, w, b) for w, b in map_data)
    del h
    dtype = q_data.dtype

    ctx = np.empty((frames, dim), dtype=dtype)
    for rows, cols in tiles:
        p = _attention_probs(q_data[rows, cols], k_data[rows, cols], factor)
        ctx[rows, cols] = np.matmul(p, v_data[rows, cols])
    out = Tensor._wrap(ctx)
    gain_data, bias_data = gain.data, bias.data
    x_key, gain_key, bias_key = x.key, gain.key, bias.key
    map_keys = [(w.key, b.key) for w, b in maps]

    def bwd(g, acc):
        h2 = _norm_affine(xhat, gain_data, bias_data)
        grads = _attention_grads(*(_affine(h2, w, b) for w, b in map_data), g, tiles, factor)
        # each map's rules in the order a tape replays three linear nodes,
        # v's, k's, then q's, summing h's gradient in that order
        gh = None
        for (w, _), (w_key, b_key), g_map in zip(map_data[::-1], map_keys[::-1], grads[::-1]):
            acc(w_key, np.matmul(h2.T, g_map))
            acc(b_key, g_map.sum(axis=0))
            part = np.matmul(g_map, w.T)
            if gh is None:
                gh = part
            else:
                gh += part
        del h2, grads, g_map, part
        gx, dgain, dbias = _norm_backward(gh, xhat, inv, gain_data)
        acc(gain_key, dgain)
        acc(bias_key, dbias)
        acc(x_key, gx)

    record_op(out, (x, gain, bias, wq, bq, wk, bk, wv, bv), bwd)
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
    key = logits.key

    def bwd(g, acc):
        p = e / denom
        onehot = np.zeros_like(p)
        np.put_along_axis(onehot, safe_targets[..., None], 1.0, axis=-1)
        gx = (p - onehot) * valid[..., None] * (float(g) / n_valid)
        acc(key, gx)

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
    """Inverted dropout; identity when ``p`` is 0 or no generator is given.

    The node keeps the boolean keep mask, one byte a value, and its backward
    rebuilds the scaled mask from it by the forward's own expression.
    """
    if p <= 0.0 or rng is None:
        return x
    mask = rng.random(x.shape) >= p
    dtype, key = x.dtype, x.key
    out = Tensor._wrap(x.data * (mask.astype(dtype) / (1.0 - p)))
    record_op(out, (x,), lambda g, acc: acc(key, g * (mask.astype(dtype) / (1.0 - p))))
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
    u_data, skip_data = u.data, skip.data
    u_key, kernel_key, skip_key, kernel_dtype = u.key, kernel.key, skip.key, kernel.dtype

    def bwd(g, acc):
        gf = np.fft.rfft(np.ascontiguousarray(g.transpose(0, 2, 1)), n=m, axis=-1)
        gu = np.fft.irfft(gf * np.conj(kf), n=m, axis=-1)[:, :, :length]
        gu = np.ascontiguousarray(gu.transpose(0, 2, 1)).astype(u_data.dtype, copy=False)
        gu += g * skip_data
        acc(u_key, gu)
        gk = np.fft.irfft((gf * np.conj(uf)).sum(axis=0), n=m, axis=-1)[:, :taps]
        acc(kernel_key, gk.astype(kernel_dtype, copy=False))
        acc(skip_key, (g * u_data).sum(axis=(0, 1)))

    record_op(out, (u, kernel, skip), bwd)
    return out
