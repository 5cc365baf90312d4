"""Diagonal time-invariant state space systems.

Each channel is an independent single-input single-output system with a
complex diagonal transition. The continuous transition eigenvalues are stored
as (log of the negated real part, imaginary part), so their real part is
negative by construction and the discrete transition magnitudes stay strictly
below one after any optimizer step. Outputs take twice the real part of the
complex readout, the usual convention when conjugate mode pairs are carried
implicitly by one half.

Two equivalent execution paths are provided: an exact sequential recurrence
(`ssm_scan`) and a causal FFT convolution against the materialized impulse
response (`ssm_conv`). Training uses the convolution; the scan doubles as an
independent oracle and a streaming-style evaluator.

The impulse response, a Vandermonde sum over modes, is computed the same way
at every length: taps fall into about sqrt(L) blocks of about sqrt(L) taps,
the per-block and within-block powers of the transition are taken in log
space, and one batched complex matmul combines them (see `_damped_response`;
S4D kernel computation, Gu et al. 2022, arXiv 2206.11893).
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

    ``logmag``/``angle`` are the polar log of the transition (carried through
    from discretization when available) used for underflow-safe powers.
    """

    __slots__ = ("state_dim", "channels", "abar_re", "abar_im",
                 "bbar_re", "bbar_im", "c_re", "c_im", "d", "logmag", "angle")

    def __init__(self, state_dim, channels, abar_re, abar_im, bbar_re, bbar_im,
                 c_re, c_im, d, logmag=None, angle=None):
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


def fuse_diagonal(systems: list[DiagonalSsm]) -> DiagonalSsm:
    """Stack independent systems along the channel axis (taped concat).

    Channels never interact, so running the fused system equals running each
    system on its own channel slice; gradients flow back to each system's own
    parameters.
    """
    if len(systems) == 1:
        return systems[0]
    if any(s.state_dim != systems[0].state_dim for s in systems):
        raise ShapeError("fused systems must share state_dim")

    def cat(field):
        return T.concat([getattr(s, field) for s in systems], axis=0)

    return DiagonalSsm(systems[0].state_dim, sum(s.channels for s in systems),
                       cat("log_neg_re"), cat("lam_im"), cat("b_re"), cat("b_im"),
                       cat("c_re"), cat("c_im"), cat("d"), cat("log_dt"))


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


def materialize_kernel(d: DiscreteSsm, length: int) -> Tensor:
    """Impulse response K[c, k] = 2*Re(sum_n c_n abar_n^k bbar_n)."""
    if length < 1:
        raise ShapeError(f"kernel length must be >= 1, got {length}")
    if d.logmag is not None:
        logmag, angle = d.logmag, d.angle
    else:
        sq = T.add(T.mul(d.abar_re, d.abar_re), T.mul(d.abar_im, d.abar_im))
        logmag = T.scale(T.log(sq), 0.5)
        angle = T.atan2(d.abar_im, d.abar_re)
    cb_re = T.sub(T.mul(d.c_re, d.bbar_re), T.mul(d.c_im, d.bbar_im))
    cb_im = T.add(T.mul(d.c_re, d.bbar_im), T.mul(d.c_im, d.bbar_re))
    return _damped_response(logmag, angle, cb_re, cb_im, length)


def ssm_conv(d: DiscreteSsm, u: SeqBatch) -> SeqBatch:
    """Causal FFT convolution against the materialized kernel plus skip.

    Same contract as :func:`ssm_scan`; zero-padding to at least twice the
    sequence length keeps the circular transform acyclic.
    """
    _check_channels(d, u)
    kernel = materialize_kernel(d, u.length)
    y = T.causal_conv_fft(u.data, kernel)
    y = T.add(y, T.mul(T.reshape(d.d, (1, 1, d.channels)), u.data))
    return u.with_data(y)


def kernel_sum_bound(d: DiscreteSsm, length: int) -> np.ndarray:
    """Per-channel bound 2*sum_k |K[k]| + |d| on the output magnitude."""
    kernel = materialize_kernel(d, length).data
    return 2.0 * np.abs(kernel).sum(axis=1) + np.abs(d.d.data)
