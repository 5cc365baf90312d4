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
(1, 8192), (32, 512) and (8, 800) alike.

The impulse response itself (`materialize_kernel`) serves
`kernel_sum_bound`, the self-check and the tests, which convolve it by FFT
(`T.causal_conv_fft`) as the reference for `ssm_conv`. It is computed the
same way at every length: taps fall into about sqrt(L) blocks of about
sqrt(L) taps, the per-block and within-block powers of the transition are
taken in log space, and one batched complex matmul combines them (see
`_damped_response`; S4D kernel computation, Gu et al. 2022, arXiv
2206.11893).

The logs log|abar| and arg(abar) are required fields of every
`DiscreteSsm`: discretization yields them directly as dt times the
continuous eigenvalue, and the chunked node and the kernel take their
powers from them.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .errors import ConfigError, ShapeError
from .nn import Module
from .seq import SeqBatch
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

    def lam(self) -> np.ndarray:
        """Continuous eigenvalues as a complex array (inspection only)."""
        return -np.exp(self.log_neg_re.data) + 1j * self.lam_im.data


class DiscreteSsm:
    """Discrete transition/input obtained from a DiagonalSsm.

    ``logmag``/``angle`` are the polar log of the transition, log|abar| and
    arg(abar), and are required: discretization produces them directly, and
    the kernel takes its underflow-safe powers from them alone.
    """

    __slots__ = ("state_dim", "channels", "abar_re", "abar_im",
                 "bbar_re", "bbar_im", "c_re", "c_im", "d", "logmag", "angle")

    def __init__(self, state_dim, channels, abar_re, abar_im, bbar_re, bbar_im,
                 c_re, c_im, d, logmag, angle):
        self.state_dim = state_dim
        self.channels = channels
        self.abar_re = abar_re
        self.abar_im = abar_im
        self.bbar_re = bbar_re
        self.bbar_im = bbar_im
        self.c_re = c_re
        self.c_im = c_im
        self.d = d
        self.logmag = logmag
        self.angle = angle

    def spectral_radius(self) -> float:
        mags = np.hypot(self.abar_re.data, self.abar_im.data)
        return float(mags.max())


def init_ssm_rng(state_dim: int, channels: int, rng: np.random.Generator,
                 scheme: str = "s4d_lin", dtype=np.float64) -> DiagonalSsm:
    """Draw one system from a shared generator (see :func:`init_ssm`)."""
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


def init_ssm(state_dim: int, channels: int, seed: int = 0,
             scheme: str = "s4d_lin", dtype=np.float64) -> DiagonalSsm:
    """Initialize a diagonal system; identical parameters for identical seeds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return init_ssm_rng(state_dim, channels, rng, scheme, dtype)


def discretize(ssm: DiagonalSsm) -> DiscreteSsm:
    """Zero-order-hold discretization, exact for diagonal transitions.

    abar = exp(lam * dt); bbar = (abar - 1) / lam * b. Differentiable with
    respect to every stored parameter.
    """
    lam_re = T.neg(T.exp(ssm.log_neg_re))
    dt = T.reshape(T.exp(ssm.log_dt), (ssm.channels, 1))
    logmag = T.mul(lam_re, dt)
    angle = T.mul(ssm.lam_im, dt)
    mag = T.exp(logmag)
    abar_re = T.mul(mag, T.cos(angle))
    abar_im = T.mul(mag, T.sin(angle))
    # (abar - 1) / lam via multiplication with conj(lam)/|lam|^2
    num_re = T.shift(abar_re, -1.0)
    num_im = abar_im
    den = T.add(T.mul(lam_re, lam_re), T.mul(ssm.lam_im, ssm.lam_im))
    inv_re = T.div(lam_re, den)
    inv_im = T.neg(T.div(ssm.lam_im, den))
    t_re = T.sub(T.mul(num_re, inv_re), T.mul(num_im, inv_im))
    t_im = T.add(T.mul(num_re, inv_im), T.mul(num_im, inv_re))
    bbar_re = T.sub(T.mul(t_re, ssm.b_re), T.mul(t_im, ssm.b_im))
    bbar_im = T.add(T.mul(t_re, ssm.b_im), T.mul(t_im, ssm.b_re))
    return DiscreteSsm(ssm.state_dim, ssm.channels, abar_re, abar_im,
                       bbar_re, bbar_im, ssm.c_re, ssm.c_im, ssm.d,
                       logmag=logmag, angle=angle)


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

    y_t = 2*Re(sum_n c_n x_{t,n}) + d*u_t with x_t = abar*x_{t-1} + bbar*u_t.
    """
    _check_channels(d, u)
    bsz, horizon, p = u.data.shape
    n = d.state_dim
    x_re = None
    x_im = None
    c_re = T.reshape(d.c_re, (1, p, n))
    c_im = T.reshape(d.c_im, (1, p, n))
    d_skip = T.reshape(d.d, (1, 1, p))
    ys = []
    for t in range(horizon):
        u_t = T.reshape(T.narrow(u.data, 1, t, 1), (bsz, p, 1))
        drive_re = T.mul(d.bbar_re, u_t)
        drive_im = T.mul(d.bbar_im, u_t)
        if x_re is None:
            x_re, x_im = drive_re, drive_im
        else:
            x_re_new = T.add(T.sub(T.mul(d.abar_re, x_re), T.mul(d.abar_im, x_im)), drive_re)
            x_im = T.add(T.add(T.mul(d.abar_re, x_im), T.mul(d.abar_im, x_re)), drive_im)
            x_re = x_re_new
        proj = T.sub(T.mul(c_re, x_re), T.mul(c_im, x_im))
        ys.append(T.reshape(T.scale(T.tsum(proj, axis=-1), 2.0), (bsz, 1, p)))
    y = T.concat(ys, axis=1)
    y = T.add(y, T.mul(d_skip, u.data))
    return u.with_data(y)


def _damped_response(logmag: Tensor, angle: Tensor, cb_re: Tensor, cb_im: Tensor,
                     length: int) -> Tensor:
    """K[c, k] = 2*Re(cb * exp((logmag + i*angle) * k)) summed over modes.

    One fused node. Each tap is split as k = chunk*i + j with
    chunk = ceil(sqrt(length)), so abar^k = abar^(chunk*i) * abar^j. Both
    factors are taken in log space (linear in the exponent, so rounding does
    not build up with k and a tap underflows only when its true value does),
    and the mode sum for all taps is one batched matmul of (channels,
    blocks, state) by (channels, state, chunk). The backward pass reuses the
    two factors, so the node keeps O(channels * state * sqrt(length)) values.
    """
    chunk = math.isqrt(length - 1) + 1
    blocks = -(-length // chunk)
    block_taps = chunk * np.arange(blocks, dtype=np.float64)
    taps = np.arange(chunk, dtype=np.float64)
    coarse = _log_powers(logmag.data, angle.data, block_taps)   # (p, n, blocks)
    fine = _log_powers(logmag.data, angle.data, taps)           # (p, n, chunk)
    cb = cb_re.data + 1j * cb_im.data
    # (p, blocks, n) @ (p, n, chunk): tap chunk*i + j of every channel
    blocked = np.matmul(np.swapaxes(cb[..., None] * coarse, 1, 2), fine)
    kernel = 2.0 * blocked.real.reshape(blocked.shape[0], -1)[:, :length]
    out = Tensor._wrap(kernel.astype(logmag.dtype, copy=False))

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
        acc(cb_re, (2.0 * gz.real).astype(cb_re.dtype, copy=False))
        acc(cb_im, (-2.0 * gz.imag).astype(cb_im.dtype, copy=False))
        acc(logmag, (2.0 * w.real).astype(logmag.dtype, copy=False))
        acc(angle, (-2.0 * w.imag).astype(angle.dtype, copy=False))

    T.record_op(out, (logmag, angle, cb_re, cb_im), bwd)
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


def _powers_through(logmag: np.ndarray, angle: np.ndarray, last: int) -> np.ndarray:
    """abar^0..abar^last as (p, n, last+1), from about 2*sqrt(last) log powers.

    abar^(s*i + j) = abar^(s*i) * abar^j with s = ceil(sqrt(last + 1)): each
    power is one complex product of two `_log_powers` values, so only those
    take exp, cos and sin (at 64 channels, 16 states and 33 powers: 0.7 ms
    instead of 2.2 ms).
    """
    step = math.isqrt(last) + 1
    blocks = -(-(last + 1) // step)
    coarse = _log_powers(logmag, angle, step * np.arange(blocks, dtype=np.float64))
    fine = _log_powers(logmag, angle, np.arange(step, dtype=np.float64))
    powers = coarse[..., :, None] * fine[..., None, :]
    return powers.reshape(logmag.shape + (-1,))[..., :last + 1]


def _readout_weights(d: DiscreteSsm) -> tuple[Tensor, Tensor]:
    """cb = c * bbar per mode, as a (re, im) pair of (channels, state) tensors."""
    cb_re = T.sub(T.mul(d.c_re, d.bbar_re), T.mul(d.c_im, d.bbar_im))
    cb_im = T.add(T.mul(d.c_re, d.bbar_im), T.mul(d.c_im, d.bbar_re))
    return cb_re, cb_im


def materialize_kernel(d: DiscreteSsm, length: int) -> Tensor:
    """Impulse response K[c, k] = 2*Re(sum_n c_n abar_n^k bbar_n)."""
    if length < 1:
        raise ShapeError(f"kernel length must be >= 1, got {length}")
    cb_re, cb_im = _readout_weights(d)
    return _damped_response(d.logmag, d.angle, cb_re, cb_im, length)


def _toeplitz_select(q: int) -> np.ndarray:
    """(q*q, q) 0/1 matrix mapping tap k to the entries (s, t) with t - s = k.

    ``taps @ select.T`` builds the lower-triangular Toeplitz matrix of the
    first q taps; ``matrix.reshape(q*q) @ select`` sums its diagonals.
    """
    lag = np.arange(q)[None, :] - np.arange(q)[:, None]        # (s, t) -> t - s
    return (lag.reshape(-1, 1) == np.arange(q)).astype(np.float64)


def _chunk_tiles(bsz: int, length: int, p: int):
    """(batch row, first chunk, end chunk) of each tile the layout copies move
    at once: about _TILE_VALUES values of one batch row, whole chunks only.

    One transposing copy of the whole array strides through memory and ran
    3x slower at (32, 256, 64) and (1, 8192, 64). Per node, tiles of 16384
    values beat tiles of 4096 by 1-4% at every workload shape.
    """
    whole = length // CHUNK
    per = max(1, _TILE_VALUES // (CHUNK * p))
    for b in range(bsz):
        for lo in range(0, whole, per):
            yield b, lo, min(lo + per, whole)


def _to_chunks(x: np.ndarray, chunks: int, dtype) -> np.ndarray:
    """(batch, length, channels) -> (channels, chunks, batch, CHUNK) of
    ``dtype``, zeros past length."""
    bsz, length, p = x.shape
    q = CHUNK
    out = np.empty((p, chunks, bsz, q), dtype=dtype)
    for b, lo, hi in _chunk_tiles(bsz, length, p):
        out[:, lo:hi, b] = x[b, lo * q:hi * q].reshape(hi - lo, q, p).transpose(2, 0, 1)
    whole, rest = divmod(length, q)
    if rest:
        out[:, whole, :, :rest] = x[:, whole * q:].transpose(2, 0, 1)
        out[:, whole, :, rest:] = 0.0
    return out


def _from_chunks(xc: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The inverse of `_to_chunks` into ``out`` (batch, length, channels)."""
    bsz, length, p = out.shape
    q = CHUNK
    for b, lo, hi in _chunk_tiles(bsz, length, p):
        out[b, lo * q:hi * q].reshape(hi - lo, q, p)[...] = xc[:, lo:hi, b].transpose(1, 2, 0)
    whole, rest = divmod(length, q)
    if rest:
        out[:, whole * q:] = xc[:, whole, :, :rest].transpose(1, 2, 0)
    return out


def _chunked_conv(u: Tensor, logmag: Tensor, angle: Tensor, cb_re: Tensor,
                  cb_im: Tensor, skip: Tensor) -> Tensor:
    """The causal convolution of ``u`` with the system's kernel, plus ``skip * u``.

    One fused node computing what ``causal_conv_fft(u, materialize_kernel)``
    does, without the L-tap kernel or any transform (chunked state passing,
    Dao & Gu 2024, arXiv 2405.21060). Time is cut into chunks of Q = CHUNK
    steps, the last one zero-padded; z = abar, and the powers z^0..z^Q
    come from log space (`_powers_through`), so abar = 0 stays memoryless.
    Chunks are laid out chunk-major, (channels, chunks, batch, Q), so each
    chunk's rows are one contiguous block.

    * Within a chunk the output is the chunk times the lower-triangular
      Toeplitz matrix of taps 0..Q-1, with the skip on its diagonal, and the
      chunk's end state is E = sum_s z^(Q-1-s) u_s: two batched GEMMs over
      (channels, chunks*batch, Q).
    * The state entering chunk i is S_i = z^Q S_(i-1) + E_(i-1), S_0 = 0, a
      loop over chunks on contiguous (channels, batch*n) blocks that
      overwrites E_(i-1) with S_i in place.
    * A third GEMM adds the carried state's output Re(S_i @ 2 cb z^(t+1)) at
      step t of chunk i >= 1, as a real GEMM over interleaved (re, im)
      columns.

    The backward pass runs the transposed GEMMs and the reverse recurrence
    H_i = dS_i + conj(z^Q) H_(i+1), sums the Toeplitz weight gradient along
    its diagonals, and maps every power gradient to the logs through
    d z^k / d log z = k z^k. The node keeps the states and the small
    weights, and no spectrum; the chunked input is rebuilt from ``u``.
    """
    bsz, length, p = u.shape
    n = logmag.shape[1]
    q = CHUNK
    chunks = -(-length // q)
    rows = bsz * chunks
    carried = rows - bsz          # rows of chunks 1.., which have a carried state
    dtype = u.dtype
    cdtype = np.result_type(dtype, np.complex64)
    powers = _powers_through(logmag.data, angle.data, q)                 # (p, n, q+1)
    cb = cb_re.data + 1j * cb_im.data
    select = _toeplitz_select(q)
    taps = 2.0 * np.matmul(cb[:, None, :], powers[..., :q])[:, 0].real   # (p, q)
    taps[:, 0] += skip.data
    # (p, q, q): row s holds tap t - s of the output at step t
    w_toe = (taps @ select.T).reshape(p, q, q).astype(dtype, copy=False)
    # (p, q, 2n): row s holds z^(q-1-s), columns interleaved (re, im)
    w_end = np.ascontiguousarray(np.swapaxes(powers[..., q - 1::-1], 1, 2), dtype=cdtype)
    w_end = w_end.view(dtype)
    # (p, 2n, q): Re(S @ 2 cb z^(t+1)) over interleaved state columns
    w_c = 2.0 * cb[..., None] * powers[..., 1:]
    w_out = np.stack([w_c.real, -w_c.imag], axis=2).reshape(p, 2 * n, q)
    w_out = w_out.astype(dtype, copy=False)
    # z^Q per (channel, batch row, mode), so the carry's inner loop spans
    # batch*n contiguous values
    z_q = np.repeat(powers[:, None, :, q].astype(cdtype), bsz, axis=1)

    # the arrays that outlive the call come before the temporaries, so the
    # space the temporaries free is reused; in the other order the heap
    # fragmented and peak RSS on `asr_stateformer` rose by 7%
    y = np.empty((bsz, length, p), dtype=dtype)
    flat_states = np.empty((p, rows, 2 * n), dtype=dtype)
    uc = _to_chunks(u.data, chunks, dtype).reshape(p, rows, q)
    # E_i, then in place: states[:, i] = S_(i+1), the state entering chunk i+1
    states = np.matmul(uc, w_end, out=flat_states).view(cdtype).reshape(p, chunks, bsz, n)
    carry = np.empty((p, bsz, n), dtype=cdtype)
    for i in range(1, chunks - 1):
        np.multiply(z_q, states[:, i - 1], out=carry)
        states[:, i] += carry
    yc = np.matmul(uc, w_toe)
    yc[:, bsz:] += np.matmul(flat_states[:, :carried], w_out)
    out = Tensor._wrap(_from_chunks(yc.reshape(p, chunks, bsz, q), y))

    def bwd(g, acc):
        gu = np.empty((bsz, length, p), dtype=dtype)           # first, as above
        gc = _to_chunks(g, chunks, dtype).reshape(p, rows, q)
        # d loss / d S_i, then in place H_i; d loss / d E_i = H_(i+1), and
        # the last chunk's end state is unused
        g_states = np.matmul(gc, np.swapaxes(w_out, 1, 2)).view(cdtype)
        g_states = g_states.reshape(p, chunks, bsz, n)
        conj_zq = np.conj(z_q)
        carry = np.empty_like(conj_zq)
        for i in range(chunks - 2, 0, -1):
            np.multiply(conj_zq, g_states[:, i + 1], out=carry)
            g_states[:, i] += carry
        g_zq = (g_states[:, 2:] * np.conj(states[:, :-2])).sum(axis=(1, 2))
        g_ends = g_states.view(dtype).reshape(p, rows, 2 * n)[:, bsz:]

        gc_u = np.matmul(gc, np.swapaxes(w_toe, 1, 2))
        gc_u[:, :carried] += np.matmul(g_ends, np.swapaxes(w_end, 1, 2))
        acc(u, _from_chunks(gc_u.reshape(p, chunks, bsz, q), gu))
        del gc_u

        # rebuilt rather than kept: the tape already holds the input, and a
        # kept copy raised peak RSS over default-config training steps by 7%
        uc_t = np.swapaxes(_to_chunks(u.data, chunks, dtype).reshape(p, rows, q), 1, 2)
        g_taps = np.matmul(uc_t, gc).reshape(p, q * q) @ select          # (p, q)
        g_pow = np.zeros(powers.shape, dtype=np.complex128)              # (p, n, q+1)
        g_pow[..., :q] = 2.0 * np.conj(cb)[..., None] * g_taps[:, None, :]
        # the end-state weights hold z^(q-1-s) as (re, im) columns
        g_pow[..., q - 1::-1] += np.swapaxes(
            np.matmul(uc_t[..., :carried], g_ends).view(cdtype), 1, 2)
        # conj of d Re(S W) / d W for W = 2 cb z^(t+1), as (p, n, q)
        g_w = 2.0 * np.conj(np.swapaxes(np.matmul(
            np.swapaxes(gc[:, bsz:], 1, 2), flat_states[:, :carried]).view(cdtype), 1, 2))
        g_pow[..., 1:] += np.conj(cb)[..., None] * g_w
        g_pow[..., q] += g_zq
        g_cb = (2.0 * (g_taps[:, None, :] * np.conj(powers[..., :q])).sum(axis=-1)
                + (g_w * np.conj(powers[..., 1:])).sum(axis=-1))
        w = (np.conj(powers) * g_pow * np.arange(q + 1)).sum(axis=-1)
        acc(skip, g_taps[:, 0].astype(skip.dtype, copy=False))
        acc(cb_re, g_cb.real.astype(cb_re.dtype, copy=False))
        acc(cb_im, g_cb.imag.astype(cb_im.dtype, copy=False))
        acc(logmag, w.real.astype(logmag.dtype, copy=False))
        acc(angle, w.imag.astype(angle.dtype, copy=False))

    T.record_op(out, (u, logmag, angle, cb_re, cb_im, skip), bwd)
    return out


def ssm_conv(d: DiscreteSsm, u: SeqBatch) -> SeqBatch:
    """Causal convolution with the system's impulse response, plus skip.

    Same contract as :func:`ssm_scan`, computed by :func:`_chunked_conv` at
    every length as one node with the skip term ``d * u`` inside; the kernel
    is never built. Per node in ms against the FFT reference (the
    materialized kernel convolved by ``T.causal_conv_fft``), at the shapes
    the benchmark workloads run: the forward alone, as evaluation runs it,
    then forward and backward. 16 states, one BLAS thread, 2-core x86-64
    host, discretization included, median of 61 interleaved calls with the
    input out of cache::

        (batch, steps, channels)  workload           FFT          chunked
        (32, 256, 64)             echo_mh_ssm        15.1 / 46.0   8.3 / 32.8
        (8, 192, 64)              asr encoder         4.6 / 12.2   2.9 /  9.0
        (8, 384, 32)              asr frontend, 1/2   3.5 / 11.7   1.9 /  7.3
        (8, 768, 16)              asr frontend        4.1 / 12.9   1.7 /  6.7
        (1, 8192, 64)             echo_8k_mh_ssm     51.5 / 102   11.6 / 35.6
    """
    _check_channels(d, u)
    if u.length < 1:
        raise ShapeError(f"input length must be >= 1, got {u.length}")
    cb_re, cb_im = _readout_weights(d)
    return u.with_data(_chunked_conv(u.data, d.logmag, d.angle, cb_re, cb_im, d.d))


def kernel_sum_bound(d: DiscreteSsm, length: int) -> np.ndarray:
    """Per-channel bound 2*sum_k |K[k]| + |d| on the output magnitude."""
    kernel = materialize_kernel(d, length).data
    return 2.0 * np.abs(kernel).sum(axis=1) + np.abs(d.d.data)
