"""Diagonal time-invariant state space systems.

Each channel is an independent single-input single-output system with a
complex diagonal transition. The continuous transition eigenvalues are stored
as (log of the negated real part, imaginary part), so their real part is
negative by construction and the discrete transition magnitudes stay strictly
below one after any optimizer step. Outputs take twice the real part of the
complex readout, the usual convention when conjugate mode pairs are carried
implicitly by one half.

Two equivalent execution paths are provided: an exact sequential recurrence
(`ssm_scan`) and a causal convolution with the impulse response
(`ssm_conv`). Training uses the convolution; the scan doubles as an
independent oracle and a streaming-style evaluator.

`ssm_conv` runs one algorithm at every input length: `_chunked_conv`,
chunked state passing (Dao & Gu 2024, arXiv 2405.21060). Small GEMMs act
inside chunks of CHUNK = 32 steps and the n-mode state is carried between
them, O(L * (Q + 4n)) work per channel, with no kernel and no transform
(per-node timings in the `ssm_conv` docstring). CHUNK = 32 beat 16 and 64 at
(1, 8192), (32, 512) and (8, 800) alike. `ssm_conv_projected` runs the same
node with a stage's input projection folded in, and anti-causally for the
backward direction (as bidirectional S4D, Gu et al. 2022), on the packed
valid frames of a batch (`mhssm.seq.PackedBatch`, sequence packing, Krell
et al. 2021, arXiv 2107.02027): no padded step reaches it, and it skips
every chunk wholly past a row's length.
The node keeps only its input and the (channels, state, CHUNK + 1) powers
of each transition, with the taps and readout weights; its backward
rebuilds the GEMM weights, the projection, the chunked input and the chunk
states.

The impulse response itself (`materialize_kernel`) serves
`kernel_sum_bound`, the self-check and the tests, which convolve it by FFT
(`T.causal_conv_fft`) as the reference for `ssm_conv`. It is computed the
same way at every length: taps fall into about sqrt(L) blocks of about
sqrt(L) taps, the per-block and within-block powers of the transition are
taken in log space, and one batched complex matmul combines them (see
`_damped_response`; S4D kernel computation, Gu et al. 2022, arXiv
2206.11893).

Zero-order-hold discretization (`discretize`) is one tape node. It packs
everything the execution paths read into the rows of one (6, channels,
state) tensor: log|abar| and arg(abar), which it yields directly as dt times
the continuous eigenvalue and from which the chunked node and the kernel
take their powers; abar, for the scan and the spectral radius; and each
mode's readout weight cb = c * bbar, since every path reads the input and
readout vectors only through that product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Module
from .seq import PackedBatch, SeqBatch, row_starts
from .tensor import Tensor

INIT_SCHEMES = ("s4d_lin", "random_stable")

DT_MIN = 0.001
DT_MAX = 0.1

# chunk length of `_chunked_conv` (measurements in the module docstring),
# and the values of one batch row its layout copies move at once
CHUNK = 32
_TILE_VALUES = 16384


class DiagonalSsm(Module):
    """Continuous-time parameters for `channels` independent SISO systems.

    Shapes: eigenvalue/input/readout arrays are (channels, state_dim); the
    skip term and step size are per channel.
    """

    def __init__(self, state_dim: int, channels: int, log_neg_re, lam_im,
                 b_re, b_im, c_re, c_im, d, log_dt):
        self.state_dim = state_dim
        self.channels = channels
        self.log_neg_re = log_neg_re
        self.lam_im = lam_im
        self.b_re = b_re
        self.b_im = b_im
        self.c_re = c_re
        self.c_im = c_im
        self.d = d
        self.log_dt = log_dt


class DiscreteSsm:
    """A discretized system: the packed zero-order hold and the skip term.

    ``zoh`` is one (6, channels, state) tensor, the output of `discretize`.
    Its rows are log|abar|, arg(abar), Re abar, Im abar, Re cb and Im cb,
    where cb = c * bbar is each mode's readout weight. The convolution and
    the kernel take their powers of abar from the two logs alone, so a
    transition with abar = 0 (log|abar| = -inf) stays memoryless; the scan
    reads abar and cb. ``d`` is the per-channel skip.
    """

    __slots__ = ("zoh", "d", "channels", "state_dim")

    def __init__(self, zoh: Tensor, d: Tensor):
        self.zoh = zoh
        self.d = d
        _, self.channels, self.state_dim = zoh.shape

    def spectral_radius(self) -> float:
        _, _, abar_re, abar_im, _, _ = self.zoh.data
        return float(np.hypot(abar_re, abar_im).max())


def init_ssm_rng(state_dim: int, channels: int, rng: np.random.Generator,
                 scheme: str = "s4d_lin", dtype=np.float64) -> DiagonalSsm:
    """Draw one system's parameters from ``rng``.

    ``s4d_lin`` puts eigenvalue k of every channel at -1/2 + i*pi*k;
    ``random_stable`` draws them with real part in [-1, -0.1] and imaginary
    part in [-pi, pi]. Step sizes are log-uniform in [DT_MIN, DT_MAX].
    """
    if state_dim < 1 or channels < 1:
        raise ConfigError(f"state_dim and channels must be >= 1, got {state_dim}, {channels}")
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"unknown init scheme {scheme!r}; choose from {INIT_SCHEMES}")
    n, p = state_dim, channels
    if scheme == "s4d_lin":
        # eigenvalue_k = -1/2 + i*pi*k, identical across channels
        log_neg_re = np.full((p, n), np.log(0.5))
        lam_im = np.tile(np.pi * np.arange(n, dtype=np.float64), (p, 1))
    else:
        neg_re = rng.uniform(0.1, 1.0, (p, n))
        log_neg_re = np.log(neg_re)
        lam_im = rng.uniform(-np.pi, np.pi, (p, n))
    b_re = np.ones((p, n))
    b_im = np.zeros((p, n))
    c_scale = 1.0 / np.sqrt(2.0 * n)
    c_re = rng.standard_normal((p, n)) * c_scale
    c_im = rng.standard_normal((p, n)) * c_scale
    d = rng.standard_normal(p)
    log_dt = rng.uniform(np.log(DT_MIN), np.log(DT_MAX), p)

    def param(a):
        return Tensor(a, requires_grad=True, dtype=dtype)

    return DiagonalSsm(n, p, param(log_neg_re), param(lam_im), param(b_re),
                       param(b_im), param(c_re), param(c_im), param(d), param(log_dt))


def discretize(ssm: DiagonalSsm) -> DiscreteSsm:
    """Zero-order-hold discretization, exact for diagonal transitions, as one node.

    abar = exp(lam * dt), bbar = (abar - 1) / lam * b and cb = c * bbar,
    packed into the rows of `DiscreteSsm.zoh`. The forward is real
    arithmetic in a fixed operation order; the backward maps the six row
    gradients to the seven stored parameters in complex arithmetic, with
    the gradient of a complex quantity z written as dL/dRe z + i dL/dIm z.
    """
    inputs = (ssm.log_neg_re, ssm.lam_im, ssm.b_re, ssm.b_im, ssm.c_re, ssm.c_im, ssm.log_dt)
    log_neg_re, lam_im, b_re, b_im, c_re, c_im, log_dt = (t.data for t in inputs)
    lam_re = -np.exp(log_neg_re)
    dt = np.exp(log_dt).reshape(ssm.channels, 1)
    logmag = lam_re * dt
    angle = lam_im * dt
    mag = np.exp(logmag)
    abar_re = mag * np.cos(angle)
    abar_im = mag * np.sin(angle)
    # (abar - 1) / lam via multiplication with conj(lam)/|lam|^2
    num_re = abar_re - 1.0
    den = lam_re * lam_re + lam_im * lam_im
    inv_re = lam_re / den
    inv_im = -(lam_im / den)
    t_re = num_re * inv_re - abar_im * inv_im
    t_im = num_re * inv_im + abar_im * inv_re
    bbar_re = t_re * b_re - t_im * b_im
    bbar_im = t_re * b_im + t_im * b_re
    zoh = Tensor._wrap(np.stack([logmag, angle, abar_re, abar_im,
                                 c_re * bbar_re - c_im * bbar_im,
                                 c_re * bbar_im + c_im * bbar_re]))
    keys = [(t.key, t.dtype) for t in inputs]

    def bwd(g, acc):
        lam = lam_re + 1j * lam_im
        t = t_re + 1j * t_im                                    # bbar / b
        g_cb = g[4] + 1j * g[5]
        g_bbar = np.conj(c_re + 1j * c_im) * g_cb
        g_t = np.conj(b_re + 1j * b_im) * g_bbar
        # log abar = lam * dt feeds the logs, abar and t = (abar - 1) / lam
        g_log = (g[0] + 1j * g[1]
                 + np.conj(abar_re + 1j * abar_im) * (g[2] + 1j * g[3] + g_t / np.conj(lam)))
        g_lam = dt * g_log - np.conj(t / lam) * g_t
        g_c = np.conj(bbar_re + 1j * bbar_im) * g_cb
        g_b = np.conj(t) * g_bbar
        g_dt = (np.conj(lam) * g_log).real.sum(axis=1)
        grads = (g_lam.real * lam_re, g_lam.imag, g_b.real, g_b.imag, g_c.real, g_c.imag,
                 g_dt * dt[:, 0])
        for (key, dtype), grad in zip(keys, grads):
            acc(key, grad.astype(dtype, copy=False))

    T.record_op(zoh, inputs, bwd)
    return DiscreteSsm(zoh, ssm.d)


_SSM_FIELDS = ("log_neg_re", "lam_im", "b_re", "b_im", "c_re", "c_im", "d", "log_dt")


def stack_systems(systems: list[DiagonalSsm]) -> DiagonalSsm:
    """One system holding the given ones side by side on the channel axis.

    Channels never interact, so the result on a channel slice equals the
    matching input system. The parameters are new trainable leaves (no tape
    node); the input systems are left as they were.
    """
    if any(s.state_dim != systems[0].state_dim for s in systems):
        raise ShapeError("stacked systems must share state_dim")
    arrays = {f: np.concatenate([getattr(s, f).data for s in systems], axis=0)
              for f in _SSM_FIELDS}
    return DiagonalSsm(systems[0].state_dim, sum(s.channels for s in systems),
                       **{f: Tensor(a, requires_grad=True) for f, a in arrays.items()})


def _check_channels(d: DiscreteSsm, u: SeqBatch):
    if u.dim != d.channels:
        raise ShapeError(f"input has {u.dim} channels but the system has {d.channels}")


def ssm_scan(d: DiscreteSsm, u: SeqBatch) -> SeqBatch:
    """Exact sequential recurrence, zero initial state.

    s_t = abar*s_(t-1) + u_t per mode and y_t = 2*Re(sum_n cb_n s_(t,n)) +
    d*u_t. This is the system x_t = abar*x_(t-1) + bbar*u_t read out as
    2*Re(sum_n c_n x_(t,n)), since x = bbar*s.
    """
    _check_channels(d, u)
    bsz, horizon, p = u.data.shape
    n = d.state_dim
    abar_re, abar_im, cb_re, cb_im = (T.reshape(T.narrow(d.zoh, 0, row, 1), (p, n))
                                      for row in (2, 3, 4, 5))
    s_re = s_im = T.zeros((bsz, p, n), dtype=u.data.dtype)
    d_skip = T.reshape(d.d, (1, 1, p))
    ys = []
    for t in range(horizon):
        u_t = T.reshape(T.narrow(u.data, 1, t, 1), (bsz, p, 1))
        s_re, s_im = (T.add(T.sub(T.mul(abar_re, s_re), T.mul(abar_im, s_im)), u_t),
                      T.add(T.mul(abar_re, s_im), T.mul(abar_im, s_re)))
        proj = T.sub(T.mul(cb_re, s_re), T.mul(cb_im, s_im))
        ys.append(T.reshape(T.scale(T.tsum(proj, axis=-1), 2.0), (bsz, 1, p)))
    y = T.concat(ys, axis=1)
    y = T.add(y, T.mul(d_skip, u.data))
    return u.with_data(y)


def _zoh_grad(g_log: np.ndarray, g_cb: np.ndarray, dtype) -> np.ndarray:
    """The packed gradient from complex ones (dL/dRe + i dL/dIm) for
    log|abar| + i arg(abar) and for cb; the abar rows, unread, get zeros."""
    zero = np.zeros(g_log.shape)
    return np.stack([g_log.real, g_log.imag, zero, zero,
                     g_cb.real, g_cb.imag]).astype(dtype, copy=False)


def _damped_response(zoh: Tensor, length: int) -> Tensor:
    """K[c, k] = 2*Re(cb * exp((logmag + i*angle) * k)) summed over modes.

    One fused node on the packed rows of `discretize`. Each tap is split as
    k = chunk*i + j with chunk = ceil(sqrt(length)), so abar^k =
    abar^(chunk*i) * abar^j. Both factors are taken in log space (linear in
    the exponent, so rounding does not build up with k and a tap underflows
    only when its true value does), and the mode sum for all taps is one
    batched matmul of (channels, blocks, state) by (channels, state, chunk).
    The backward pass reuses the two factors, so the node keeps
    O(channels * state * sqrt(length)) values.
    """
    logmag, angle, _, _, cb_re, cb_im = zoh.data
    cb = cb_re + 1j * cb_im
    block_taps, taps, coarse, fine = _split_powers(logmag, angle, length)
    blocks, chunk = block_taps.size, taps.size
    # (p, blocks, n) @ (p, n, chunk): tap chunk*i + j of every channel
    blocked = np.matmul(np.swapaxes(cb[..., None] * coarse, 1, 2), fine)
    kernel = 2.0 * blocked.real.reshape(blocked.shape[0], -1)[:, :length]
    out = Tensor._wrap(kernel.astype(zoh.dtype, copy=False))
    key, dtype = zoh.key, zoh.dtype

    def bwd(g, acc):
        grid = np.zeros((g.shape[0], blocks * chunk))
        grid[:, :length] = g
        grid = grid.reshape(g.shape[0], blocks, chunk)
        fine_t = np.swapaxes(fine, 1, 2)                        # (p, chunk, n)
        # per block: sum_j g*abar^j and sum_j g*j*abar^j, then over blocks
        # against abar^(chunk*i), with k = chunk*i + j
        within = np.matmul(grid, fine_t)                        # (p, blocks, n)
        within_k = np.matmul(grid * taps, fine_t)
        coarse_t = np.swapaxes(coarse, 1, 2)
        gz = (coarse_t * within).sum(axis=1)                    # sum_k g*z
        gzk = (coarse_t * (within_k + block_taps[:, None] * within)).sum(axis=1)
        w = cb * gzk                                            # sum_k g*cb*z*k
        acc(key, _zoh_grad(2.0 * np.conj(w), 2.0 * np.conj(gz), dtype))

    T.record_op(out, (zoh,), bwd)
    return out


def _log_powers(logmag: np.ndarray, angle: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """abar^k for each tap k as exp(logmag*k) * exp(i*angle*k), shape (p, n, taps).

    ``taps`` starts at 0, whose power is 1 outright, so a transition with
    abar = 0 (logmag = -inf) gives 1 there rather than exp(-inf * 0).
    """
    mag = np.ones(logmag.shape + taps.shape)
    mag[..., 1:] = np.exp(logmag[..., None] * taps[1:])
    phase = angle[..., None] * taps
    return mag * (np.cos(phase) + 1j * np.sin(phase))


def _split_powers(logmag: np.ndarray, angle: np.ndarray, count: int):
    """The sqrt split of the powers abar^0..abar^(count-1).

    With s = ceil(sqrt(count)), power k = s*i + j is abar^(s*i) * abar^j.
    Returns the coarse taps s*i, the fine taps j < s, and their log powers,
    (p, n, blocks) and (p, n, s).
    """
    step = math.isqrt(count - 1) + 1
    block_taps = step * np.arange(-(-count // step), dtype=np.float64)
    taps = np.arange(step, dtype=np.float64)
    return (block_taps, taps, _log_powers(logmag, angle, block_taps),
            _log_powers(logmag, angle, taps))


def _powers_through(logmag: np.ndarray, angle: np.ndarray, last: int) -> np.ndarray:
    """abar^0..abar^last as (p, n, last+1), from about 2*sqrt(last) log powers.

    Each power is one complex product of the two `_split_powers` factors,
    so only those take exp, cos and sin (at 64 channels, 16 states and 33
    powers: 0.7 ms instead of 2.2 ms).
    """
    _, _, coarse, fine = _split_powers(logmag, angle, last + 1)
    powers = coarse[..., :, None] * fine[..., None, :]
    return np.ascontiguousarray(powers.reshape(logmag.shape + (-1,))[..., :last + 1])


def materialize_kernel(d: DiscreteSsm, length: int) -> Tensor:
    """Impulse response K[c, k] = 2*Re(sum_n c_n abar_n^k bbar_n)."""
    if length < 1:
        raise ShapeError(f"kernel length must be >= 1, got {length}")
    return _damped_response(d.zoh, length)


@functools.cache
def _toeplitz_select(q: int) -> np.ndarray:
    """(q*q, q) 0/1 matrix mapping tap k to the entries (s, t) with t - s = k.

    ``matrix.reshape(q*q) @ select`` sums the diagonals of a (q, q) matrix,
    as the chunked node's backward does for its Toeplitz weight. Built once
    per q and shared by every call, so it is read-only.
    """
    lag = np.arange(q)[None, :] - np.arange(q)[:, None]        # (s, t) -> t - s
    select = (lag.reshape(-1, 1) == np.arange(q)).astype(np.float64)
    select.flags.writeable = False
    return select


class _Layout:
    """Where each (chunk, row) of a batch sits in the chunked node's packed
    (channels, rows, CHUNK) layout, and each row's valid steps among the
    packed frames.

    Rows go longest first (a stable sort), so the rows still live in chunk
    c, those with c*CHUNK < length, are a prefix of that order: chunk c's
    block holds its ``counts[c]`` live rows from packed row ``offsets[c]``
    on, and a (chunk, row) wholly past its row's length has no packed row.
    With every row at full length the order is the batch's own and the
    layout is (channels, chunks, batch, CHUNK) flattened. Row b's valid
    steps are frames ``starts[b]:starts[b+1]`` (`mhssm.seq.row_starts`).
    """

    __slots__ = ("lengths", "starts", "order", "counts", "offsets", "run_end")

    def __init__(self, lengths: tuple[int, ...]):
        self.lengths = lengths
        self.starts = row_starts(lengths)
        self.order = sorted(range(len(lengths)), key=lambda b: -lengths[b])
        per_row = -(-np.asarray(lengths, dtype=np.int64) // CHUNK)
        chunks = int(per_row.max(initial=0))
        self.counts = (per_row[:, None] > np.arange(chunks)).sum(axis=0).tolist()
        self.offsets = np.concatenate([[0], np.cumsum(self.counts, dtype=np.int64)]).tolist()
        # run_end[c]: the first chunk after c that holds another number of rows
        self.run_end = [chunks] * chunks
        for c in range(chunks - 2, -1, -1):
            self.run_end[c] = (c + 1 if self.counts[c + 1] != self.counts[c]
                               else self.run_end[c + 1])

    @property
    def chunks(self) -> int:
        return len(self.counts)

    @property
    def rows(self) -> int:
        return self.offsets[-1]

    @property
    def first(self) -> int:
        """Rows of chunk 0, which no carried state enters."""
        return self.counts[0] if self.counts else 0

    @property
    def inner(self) -> int:
        """Rows of chunks 0..C-2, whose end states a next chunk reads."""
        return self.offsets[max(self.chunks - 1, 0)]

    def row_views(self, frames: np.ndarray) -> list[np.ndarray]:
        """Each row's valid steps as a view of the packed (frames, ...) array."""
        return [frames[lo:hi] for lo, hi in zip(self.starts, self.starts[1:])]


def _tile_pairs(xc: np.ndarray, rows: list[np.ndarray], layout: _Layout, reverse: bool):
    """(tile, block) views that move each row's valid steps ``rows[b]``
    (steps, channels) to and from their place in the packed chunked copy
    ``xc`` (see `_Layout`): a tile is whole chunks of one row, about
    _TILE_VALUES values within a run of chunks that hold the same number of
    rows, or the row's last, partial chunk. With ``reverse``, row b is the
    view ``rows[b][::-1]``: no reversed copy is made. One transposing copy
    of the whole array ran 3x slower at (32, 256, 64) and (1, 8192, 64); per
    node, tiles of 16384 values beat tiles of 4096 by 1-4%.
    """
    q = CHUNK
    per = max(1, _TILE_VALUES // (q * xc.shape[0]))
    counts, offsets, run_end = layout.counts, layout.offsets, layout.run_end
    for j, b in enumerate(layout.order):
        n = layout.lengths[b]
        row = rows[b][::-1] if reverse else rows[b]
        t = 0
        while t < n:
            c = t // q
            k, m = (min(per, (n - t) // q, run_end[c] - c), q) if n - t >= q else (1, n - t)
            start, stride = offsets[c] + j, counts[c]
            tile = row[t:t + k * m].reshape(k, m, -1)
            yield tile.transpose(2, 0, 1), xc[:, start:start + (k - 1) * stride + 1:stride, :m]
            t += k * m


def _to_chunks(x: np.ndarray, layout: _Layout, dtype, reverse: bool) -> np.ndarray:
    """Packed (frames, channels) -> (channels, rows, CHUNK) of ``dtype`` in
    ``layout``, zeros past each row's length; with ``reverse``, rows run
    backward within their lengths."""
    out = np.empty((x.shape[-1], layout.rows, CHUNK), dtype=dtype)
    for j, b in enumerate(layout.order):
        n = layout.lengths[b]
        if n % CHUNK:
            out[:, layout.offsets[n // CHUNK] + j, n % CHUNK:] = 0.0
    for tile, block in _tile_pairs(out, layout.row_views(x), layout, reverse):
        block[...] = tile
    return out


def _from_chunks(xc: np.ndarray, out: np.ndarray, layout: _Layout, reverse: bool) -> np.ndarray:
    """The inverse of `_to_chunks` into packed (frames, channels) ``out``."""
    for tile, block in _tile_pairs(xc, layout.row_views(out), layout, reverse):
        tile[...] = block
    return out


@functools.lru_cache(maxsize=16)
def _layout(lengths: tuple[int, ...]) -> _Layout:
    """The layout of a batch with these row lengths, built once: every
    stage of a step, forward and backward, runs on the same lengths."""
    return _Layout(lengths)


def _runs(counts: list[int], lo: int, hi: int, ahead: int = 0):
    """Chunks lo <= i < hi as (first chunk, chunks, rows) runs of regular
    stride: each i touches rows :counts[i + ahead] of chunks i - 1, i and
    i + ahead, and a run of more than one holds chunks i - 1 .. i + ahead
    of the same count, so each of those blocks is a fixed number of rows on."""
    i = lo
    while i < hi:
        m, j = counts[i + ahead], i + 1
        if counts[i - 1] == m:
            while j < hi and counts[j - 1] == counts[j + ahead] == m:
                j += 1
        yield i, j - i, m
        i = j


def _blocks(a: np.ndarray, start: int, chunks: int, rows: int) -> np.ndarray:
    """``chunks`` blocks of ``rows`` rows of (channels, rows, n) ``a`` from
    row ``start`` on, as a (chunks, channels, rows, n) view: iterating it
    yields each block's view at less cost than indexing."""
    if chunks == 1:
        return (a[:, start:start + rows],)
    blocks = a[:, start:start + chunks * rows].reshape(a.shape[0], chunks, rows, a.shape[2])
    return blocks.swapaxes(0, 1)


def _chunk_states(uc: np.ndarray, w_end: np.ndarray, z_q: np.ndarray,
                  layout: _Layout) -> np.ndarray:
    """S_i, the state entering chunk i >= 1 of ``uc`` (channels, rows, Q),
    for each row live in chunk i, laid out as chunks 1.. of ``uc`` are:
    a (channels, rows - counts[0], 2n) real view, with a (..., n) complex
    view. First E_i = sum_s z^(Q-1-s) u_s for every chunk as one GEMM, then
    in the same array S_1 = E_0 and S_i = z^Q S_(i-1) + E_(i-1), a loop
    over chunks on contiguous (channels, live rows*n) blocks. S_i goes
    where E_(i-1) is, moved down by the rows that ended before chunk i-1.
    """
    flat = np.matmul(uc, w_end)
    states = flat.view(z_q.dtype)
    offsets, first = layout.offsets, layout.first
    carry = np.empty_like(z_q)
    for i, k, m in _runs(layout.counts, 2, layout.chunks):
        z_m, carry_m = z_q[:, :m], carry[:, :m]
        for end, prev, state in zip(_blocks(states, offsets[i - 1], k, m),
                                    _blocks(states, offsets[i - 1] - first, k, m),
                                    _blocks(states, offsets[i] - first, k, m)):
            np.multiply(z_m, prev, out=carry_m)
            np.add(end, carry_m, out=state)
    return flat[:, :layout.rows - first]


def _end_state_grads(gc: np.ndarray, w_out: np.ndarray, z_q: np.ndarray,
                     layout: _Layout) -> np.ndarray:
    """d loss / d E_i for chunks i < C-1, in chunk i's rows, from the
    output gradient ``gc`` (channels, rows, Q) in ``layout``.

    First dS_i = gc_i @ w_out^T for every chunk as one GEMM, then dE_i =
    H_(i+1), with H_i = dS_i + conj(z^Q) H_(i+1) for the rows that live on
    into chunk i+1, a loop over chunks from the last; a row whose last
    chunk is i gets dE_i = 0. Everything stays in the GEMM's array: H_i
    goes ``counts[0]`` rows past chunk i-1's block, which is chunk i's own
    block when no row ended before it, and the array has the rows that a
    block moved past its end needs. Returns a (channels, offsets[C-1], 2n)
    real view.
    """
    counts, offsets, chunks, first = layout.counts, layout.offsets, layout.chunks, layout.first
    out = np.empty((gc.shape[0], layout.rows + first - (counts[-1] if chunks else 0),
                    w_out.shape[1]), gc.dtype)
    np.matmul(gc, np.swapaxes(w_out, 1, 2), out=out[:, :layout.rows])
    g = out.view(z_q.dtype)
    conj_zq = np.conj(z_q)
    carry = np.empty_like(conj_zq)
    for i, k, m in reversed(list(_runs(counts + [0], 1, chunks, ahead=1))):
        if k == 1:
            # chunk i's rows that end there, then chunk i-1's that end before it
            g_s, at = g[:, offsets[i]:offsets[i] + counts[i]], offsets[i - 1] + first
            if counts[i] > m and at != offsets[i]:
                g[:, at + m:at + counts[i]] = g_s[:, m:]
            g[:, at + counts[i]:at + counts[i - 1]] = 0.0
        zq_m, carry_m = conj_zq[:, :m], carry[:, :m]
        for g_s, h_next, h in zip(_blocks(g, offsets[i], k, m)[::-1],
                                  _blocks(g, offsets[i] + first, k, m)[::-1],
                                  _blocks(g, offsets[i - 1] + first, k, m)[::-1]):
            np.multiply(zq_m, h_next, out=carry_m)
            np.add(g_s, carry_m, out=h)
    return out[:, first:first + layout.inner]


def _gemm_weights(powers: np.ndarray, taps: np.ndarray, cb: np.ndarray, rows: int, dtype):
    """The chunked node's GEMM weights and z^Q from its (p, n, Q+1) powers
    z^0..z^Q, its (p, Q) taps (the skip added to tap 0) and the (p, n)
    readout weights cb, for a batch of ``rows`` rows, each built straight
    into its own buffer of ``dtype`` (complex for z^Q):

    * w_toe (p, Q, Q): row s holds tap t - s of the output at step t;
    * w_end (p, Q, 2n): row s holds z^(Q-1-s), columns interleaved (re, im);
    * w_out (p, 2n, Q): Re(S @ 2 cb z^(t+1)) over interleaved state columns;
    * z_q (p, rows, n): z^Q per (channel, batch row, mode), so the carry's
      inner loop spans rows*n contiguous values.

    The forward and the backward of `_chunked_conv` both call it, so every
    weight has the same bits in both.
    """
    p, n, q = powers.shape[0], powers.shape[1], powers.shape[2] - 1
    cdtype = np.result_type(dtype, np.complex64)
    # taps behind q - 1 zeros: window i of q values holds tap t - (q-1-i) at t
    padded = np.zeros((p, 2 * q - 1))
    padded[:, q - 1:] = taps
    w_toe = np.empty((p, q, q), dtype)
    w_toe[...] = np.lib.stride_tricks.sliding_window_view(padded, q, axis=1)[:, ::-1]
    w_end = np.empty((p, q, n), cdtype)
    w_end[...] = np.swapaxes(powers[..., q - 1::-1], 1, 2)
    w_c = 2.0 * cb[..., None] * powers[..., 1:]
    w_out = np.empty((p, n, 2, q), dtype)
    w_out[:, :, 0] = w_c.real
    np.negative(w_c.imag, out=w_out[:, :, 1])
    z_q = np.empty((p, rows, n), cdtype)
    z_q[...] = powers[:, None, :, q]
    return w_toe, w_end.view(dtype), w_out.reshape(p, 2 * n, q), z_q


def _chunked_conv(x: Tensor, zoh: Tensor, skip: Tensor, w: Tensor | None = None,
                  b: Tensor | None = None, lengths=None, reverse: bool = False) -> Tensor:
    """The causal convolution of u with the system's kernel, plus ``skip * u``.

    ``x`` holds the rows' valid steps one row after another on its leading
    axes, as a packed batch does: (frames, features), or (batch, length,
    features) when every row runs the full length (the default without
    ``lengths``). u is ``x``, or with an (in, channels) weight ``w`` and
    (channels,) bias ``b`` the input projection u = x @ w + b, computed as
    `T.linear` computes it; the output has x's leading axes. One fused
    node computing what ``causal_conv_fft(u, materialize_kernel)`` does on
    each row, without the L-tap kernel or any transform
    (chunked state passing, Dao & Gu 2024, arXiv 2405.21060). Time is cut
    into chunks of Q = CHUNK steps, the last one zero-padded; z = abar, and
    the powers z^0..z^Q come from log space (`_powers_through`), so abar = 0
    stays memoryless. Chunks are laid out chunk-major, (channels, rows, Q)
    (`_Layout`), so each chunk's rows are one contiguous block.

    * Within a chunk the output is the chunk times the lower-triangular
      Toeplitz matrix of taps 0..Q-1, with the skip on its diagonal, and the
      chunk's end state is E = sum_s z^(Q-1-s) u_s: two batched GEMMs over
      (channels, rows, Q).
    * The state entering chunk i is S_i = z^Q S_(i-1) + E_(i-1), S_0 = 0
      (`_chunk_states`).
    * A third GEMM adds the carried state's output Re(S_i @ 2 cb z^(t+1)) at
      step t of chunk i >= 1, as a real GEMM over interleaved (re, im)
      columns.

    The backward pass runs the transposed GEMMs and the reverse recurrence
    H_i = dS_i + conj(z^Q) H_(i+1), sums the Toeplitz weight gradient along
    its diagonals, and maps every power gradient to the logs through
    d z^k / d log z = k z^k. With a projection it ends with `T.linear`'s
    rule on u's gradient gu: dx = gu @ w^T, dw = x^T @ gu, db = sum gu.
    Every value and gradient is the same product, in the same order, as
    `T.linear` followed by the node without a projection.

    The node keeps ``x``, w and b, the (p, n, Q+1) powers, the (p, Q) taps
    and the (p, n) readout weights cb, and no spectrum. It does not keep
    the three GEMM weights or z^Q, which the backward rebuilds from the
    powers with the forward's own helper (`_gemm_weights`), so they keep
    their bits; nor u, the chunked input or the chunk states, which it
    rebuilds with the forward's GEMMs and carry loop, one (frames, in) @
    (in, channels) GEMM and one state pass more per call (recomputation in
    reverse mode, Chen et al. 2016, arXiv 1604.06174). So a stage holds its
    input once rather than three times over, and no per-channel weight
    larger than its powers.

    Row b's n = ``lengths[b]`` steps are frames ``starts[b]:starts[b+1]``
    (`_Layout`): a (chunk, row) wholly past n has no row in the layout, so
    the GEMMs, layout copies, carry loop and backward skip it. Rows go
    longest first, so each chunk's live rows are a prefix. A batch whose
    rows all run the full length takes the layout of the batch's own
    order, so it keeps the bits of a node without lengths. With
    ``reverse`` the node runs anti-causally, reading each row backward
    within its length in the layout copies. So y, dx and the system's
    gradients are, bit for bit, the causal node's between two per-row
    reversals; dw and db sum rows in another order.
    """
    if lengths is None:
        lengths = (x.shape[1],) * x.shape[0]
    p = zoh.shape[1]
    q = CHUNK
    layout = _layout(tuple(map(int, lengths)))
    first, inner = layout.first, layout.inner
    dtype = x.dtype if w is None else np.result_type(x.dtype, w.dtype)
    cdtype = np.result_type(dtype, np.complex64)
    logmag, angle, _, _, cb_re, cb_im = zoh.data
    cb = cb_re + 1j * cb_im
    powers = _powers_through(logmag, angle, q)                           # (p, n, q+1)
    taps = 2.0 * np.matmul(cb[:, None, :], powers[..., :q])[:, 0].real   # (p, q)
    taps[:, 0] += skip.data
    x_key, x_shape = x.key, x.shape
    frames = x.data.reshape(-1, x_shape[-1])
    w_data, b_data = (None, None) if w is None else (w.data, b.data)

    def chunked_input():
        # u = x @ w + b as `T.linear` computes it (one 2-d product, the bias
        # added in place); u goes as soon as its chunked copy exists
        u = frames
        if w is not None:
            u = np.matmul(frames, w_data)
            u += b_data
        return _to_chunks(u, layout, dtype, reverse)

    # the output outlives the call, so it comes before the temporaries and
    # reuses none of their space; in the other order the heap fragmented
    # and peak RSS on `asr_stateformer` rose by 7%
    y = np.empty(x_shape[:-1] + (p,), dtype=dtype)
    w_toe, w_end, w_out, z_q = _gemm_weights(powers, taps, cb, len(layout.lengths), dtype)
    uc = chunked_input()
    states = _chunk_states(uc, w_end, z_q, layout)
    yc = np.matmul(uc, w_toe)
    yc[:, first:] += np.matmul(states, w_out)
    del uc, states, w_toe, w_end, w_out, z_q
    _from_chunks(yc, y.reshape(-1, p), layout, reverse)
    out = Tensor._wrap(y)
    zoh_key, zoh_dtype = zoh.key, zoh.dtype
    skip_key, skip_dtype = skip.key, skip.dtype
    inputs = (x, zoh, skip) if w is None else (x, w, b, zoh, skip)
    w_key, b_key = (None, None) if w is None else (w.key, b.key)

    def bwd(g, acc):
        # every term that reads the rebuilt input or states comes first, so
        # each goes before the next full-size gradient buffer is made
        w_toe, w_end, w_out, z_q = _gemm_weights(powers, taps, cb, len(layout.lengths), dtype)
        uc = chunked_input()
        states = _chunk_states(uc, w_end, z_q, layout)
        gc = _to_chunks(g.reshape(-1, p), layout, dtype, reverse)
        uc_t = np.swapaxes(uc, 1, 2)
        g_taps = np.matmul(uc_t, gc).reshape(p, q * q) @ _toeplitz_select(q)   # (p, q)
        # conj of d Re(S W) / d W for W = 2 cb z^(t+1), as (p, n, q)
        g_w = 2.0 * np.conj(np.swapaxes(np.matmul(
            np.swapaxes(gc[:, first:], 1, 2), states).view(cdtype), 1, 2))
        # d loss / d S_i in chunk i's rows (chunk 0's are unread), then
        # d loss / d E_i in chunk i's rows of chunks 0..C-2
        g_ends = _end_state_grads(gc, w_out, z_q, layout).view(cdtype)
        # H_i against S_(i-1) for i >= 2: chunks 1..C-2 of both
        g_zq = (g_ends[:, first:] * np.conj(states.view(cdtype)[:, :max(inner - first, 0)])).sum(axis=1)
        del states
        g_ends = g_ends.view(dtype)
        # the end-state weights hold z^(q-1-s) as (re, im) columns
        g_end_pow = np.swapaxes(np.matmul(uc_t[..., :inner], g_ends).view(cdtype), 1, 2)
        del uc, uc_t

        gc_u = np.matmul(gc, np.swapaxes(w_toe, 1, 2))
        gc_u[:, :inner] += np.matmul(g_ends, np.swapaxes(w_end, 1, 2))
        del gc, g_ends
        gu = _from_chunks(gc_u, np.empty((len(frames), p), dtype), layout, reverse)
        del gc_u

        g_pow = np.zeros(powers.shape, dtype=np.complex128)              # (p, n, q+1)
        g_pow[..., :q] = 2.0 * np.conj(cb)[..., None] * g_taps[:, None, :]
        g_pow[..., q - 1::-1] += g_end_pow
        g_pow[..., 1:] += np.conj(cb)[..., None] * g_w
        g_pow[..., q] += g_zq
        g_cb = (2.0 * (g_taps[:, None, :] * np.conj(powers[..., :q])).sum(axis=-1)
                + (g_w * np.conj(powers[..., 1:])).sum(axis=-1))
        w_log = (np.conj(powers) * g_pow * np.arange(q + 1)).sum(axis=-1)
        acc(skip_key, g_taps[:, 0].astype(skip_dtype, copy=False))
        acc(zoh_key, _zoh_grad(w_log, g_cb, zoh_dtype))
        if w_data is None:
            acc(x_key, gu.reshape(x_shape))
            return
        acc(x_key, np.matmul(gu, w_data.T).reshape(x_shape))
        acc(w_key, np.matmul(frames.T, gu))
        acc(b_key, gu.sum(axis=0))

    T.record_op(out, inputs, bwd)
    return out


def ssm_conv(d: DiscreteSsm, u: SeqBatch) -> SeqBatch:
    """Causal convolution with the system's impulse response, plus skip.

    Same contract as :func:`ssm_scan`, computed by :func:`_chunked_conv` at
    every length as one node with the skip term ``d * u`` inside; the kernel
    is never built. Per node in ms against the FFT reference (the
    materialized kernel convolved by ``T.causal_conv_fft``), and for
    :func:`ssm_conv_projected` with a (channels, channels) projection
    inside, at the shapes the benchmark workloads run: the forward alone,
    as evaluation runs it, then forward and backward. 16 states, float64,
    one BLAS thread, 2-core x86-64 host, discretization included, median of
    61 interleaved calls with the input out of cache::

        (batch, steps, channels)  workload           FFT          chunked      projected
        (32, 256, 64)             echo_mh_ssm        25.1 / 60.0  14.3 / 48.4  17.8 / 63.8
        (8, 192, 64)              asr encoder         7.9 / 16.2   4.7 / 12.2   5.4 / 14.5
        (8, 384, 32)              asr frontend, 1/2   7.3 / 15.3   3.9 /  9.9   4.3 / 11.9
        (8, 768, 16)              asr frontend        7.8 / 16.6   3.5 /  9.4   3.9 / 10.8
        (1, 8192, 64)             echo_8k_mh_ssm     63.5 / 137   16.1 / 54.1  19.0 / 68.1

    On a padded batch ``ssm_conv_projected`` runs on the packed valid
    frames and skips each row's chunks past its length. At the ASR shapes
    with rows of 768, 712, 650, 590, 520, 455, 390 and 330 steps at full
    rate (28% padding) and their halves and quarters, projected node in
    ms, fwd / fwd+bwd, median of 101 calls on the host above, causal and
    anti-causal alternating, with the padded (batch, steps, channels) input
    that the node packed and unpacked itself against packed input, both
    loaded in one process and interleaved call by call (median per-call
    ratio 0.96-0.97 fwd, 0.94-0.97 fwd+bwd). Skipping the padded chunks
    had taken the fwd+bwd to 0.89-0.94x (float64) and 0.95-1.00x (float32)
    of a node that computes every step::

        (batch, steps, channels)  float64 padded  packed       float32 padded  packed
        (8, 192, 64)              2.20 / 6.37     2.15 / 6.16  1.81 / 4.91     1.75 / 4.74
        (8, 384, 32)              1.81 / 5.41     1.71 / 5.10  1.35 / 3.75     1.32 / 3.65
        (8, 768, 16)              1.45 / 4.60     1.41 / 4.34  1.13 / 3.29     1.11 / 3.18

    The per-call prologue (powers and GEMM weights) and epilogue (the
    power gradients), about 1.5 ms of the fwd+bwd at 64 channels timed
    alone, do not shrink with padding. The backward builds the GEMM
    weights again (`_gemm_weights`, 0.4 ms at 64 channels) rather than
    keep them: against keeping them, median of 61 interleaved calls, the
    forward took 0.96-1.01x and the backward 1.01-1.13x at the five shapes
    above (the most at (8, 192, 64) in float32), fwd+bwd 1.01-1.07x.
    """
    _check_channels(d, u)
    if u.length < 1:
        raise ShapeError(f"input length must be >= 1, got {u.length}")
    return u.with_data(_chunked_conv(u.data, d.zoh, d.d))


def ssm_conv_projected(d: DiscreteSsm, x: PackedBatch, w: Tensor, b: Tensor,
                       reverse: bool = False) -> PackedBatch:
    """``ssm_conv(d, u)`` of the projection u = x @ w + b, as one node.

    ``x`` is a packed batch and so is the result: each row's valid steps,
    row after row. ``w`` is (in, channels) and ``b`` is (channels,). At
    each row's valid steps every value equals that of `T.linear` followed
    by :func:`ssm_conv` on the unpacked batch, but the node keeps only
    ``x`` of the activations, so the gradients equal those of the two nodes
    under an upstream gradient that is zero past each length (see
    :func:`_chunked_conv`). With ``reverse`` it runs backward in time
    within each row's valid length: the output at step t reads u at steps
    t..length-1.
    """
    if w.shape != (x.dim, d.channels) or b.shape != (d.channels,):
        raise ShapeError(f"projection of {x.dim} features to {d.channels} channels needs an "
                         f"({x.dim}, {d.channels}) weight and ({d.channels},) bias, "
                         f"got {w.shape}/{b.shape}")
    if x.length < 1:
        raise ShapeError(f"input length must be >= 1, got {x.length}")
    return x.with_data(_chunked_conv(x.data, d.zoh, d.d, w, b, x.lengths, reverse))


def kernel_sum_bound(d: DiscreteSsm, length: int) -> np.ndarray:
    """Per-channel supremum of |y_t| over t < length and inputs with |u| <= 1.

    y_t = sum_k K[k] u_(t-k) + d u_t, so the supremum is sum_(k>=1) |K[k]| +
    |K[0] + d|, attained at the last step by u_(length-1-k) = sign(K[k])
    (with d added at k = 0).
    """
    kernel = materialize_kernel(d, length).data
    return np.abs(kernel[:, 1:]).sum(axis=1) + np.abs(kernel[:, 0] + d.d.data)
