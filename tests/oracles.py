"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, quadratic algorithms,
arbitrary-precision arithmetic) and shares no code with the library paths
it checks.
"""

import mpmath
import numpy as np


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_dft(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w.T


def direct_causal_conv(u: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """O(L^2) causal convolution; u is (length,), kernel is (taps,)."""
    length = len(u)
    out = np.zeros(length)
    for t in range(length):
        for k in range(min(t + 1, len(kernel))):
            out[t] += kernel[k] * u[t - k]
    return out


def direct_linear_conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution by summation, length len(a)+len(b)-1."""
    out = np.zeros(len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def mp_sigmoid(x: float, dps: int = 50) -> float:
    with mpmath.workdps(dps):
        return float(1 / (1 + mpmath.exp(-mpmath.mpf(x))))


def mp_softmax(row, dps: int = 50) -> np.ndarray:
    with mpmath.workdps(dps):
        vals = [mpmath.exp(mpmath.mpf(float(v))) for v in row]
        total = mpmath.fsum(vals)
        return np.array([float(v / total) for v in vals])


def mp_zoh(lam: complex, dt: float, b: complex, dps: int = 50):
    """High-precision zero-order-hold of one scalar mode."""
    with mpmath.workdps(dps):
        lam_mp = mpmath.mpc(lam.real, lam.imag)
        abar = mpmath.exp(lam_mp * dt)
        bbar = (abar - 1) / lam_mp * mpmath.mpc(b.real, b.imag)
        return complex(abar), complex(bbar)


def power_sum_kernel(logmag: np.ndarray, angle: np.ndarray, cb: np.ndarray,
                     length: int) -> np.ndarray:
    """K[p, k] = sum_n 2*Re(cb[p, n] * abar[p, n]**k), one tap at a time.

    ``abar = exp(logmag + i*angle)``; each power is taken directly from k
    times its complex log, with no reuse between taps.
    """
    log_abar = logmag + 1j * angle
    out = np.zeros((cb.shape[0], length))
    for k in range(length):
        out[:, k] = 2.0 * (cb * np.exp(log_abar * k)).real.sum(axis=1)
    return out


def mp_kernel_tap(logmag: np.ndarray, angle: np.ndarray, cb: np.ndarray, k: int,
                  dps: int = 50) -> list:
    """Tap k of every channel in arbitrary precision (no underflow at any k)."""
    with mpmath.workdps(dps):
        taps = []
        for p in range(cb.shape[0]):
            total = mpmath.mpf(0)
            for n in range(cb.shape[1]):
                log_abar = mpmath.mpc(float(logmag[p, n]), float(angle[p, n]))
                weight = mpmath.mpc(cb[p, n].real, cb[p, n].imag)
                total += 2 * mpmath.re(weight * mpmath.exp(log_abar * k))
            taps.append(total)
        return taps


def loop_reverse(data: np.ndarray, lengths) -> np.ndarray:
    """Per-sequence reversal with a scalar loop; padding stays in place."""
    out = data.copy()
    for b, ln in enumerate(lengths):
        for t in range(ln):
            out[b, t] = data[b, ln - 1 - t]
    return out


def loop_attention_weights(q: np.ndarray, k: np.ndarray, lengths) -> np.ndarray:
    """(batch, heads, query, key) softmax weights by per-pair loops."""
    bsz, heads, horizon, dh = q.shape
    weights = np.zeros((bsz, heads, horizon, horizon))
    for b in range(bsz):
        for h in range(heads):
            for i in range(horizon):
                scores = np.full(horizon, -np.inf)
                for j in range(int(lengths[b])):
                    scores[j] = float(q[b, h, i] @ k[b, h, j]) / np.sqrt(dh)
                m = scores.max()
                e = np.where(np.isfinite(scores), np.exp(scores - m), 0.0)
                weights[b, h, i] = e / e.sum()
    return weights


class ScalarAdam:
    """Reference Adam on a single python float."""

    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = 0.0
        self.v = 0.0
        self.t = 0

    def step(self, x: float, g: float) -> float:
        self.t += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1 ** self.t)
        vhat = self.v / (1 - self.beta2 ** self.t)
        return x - self.lr * mhat / (np.sqrt(vhat) + self.eps)
