"""Correctness checks run inside every benchmark run.

Each check compares the program against an independent computation or a
property the method must have, never against stored output. A check returns
``(name, passed, detail)``; the runner counts each one as an operation.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np

from mhssm import (DiagonalSsm, SeqBatch, Tensor, discretize, load_checkpoint,
                   save_checkpoint, ssm_conv, ssm_scan)
from mhssm.nn import Module

FD_STEP = 1e-5
FD_RTOL = 1e-4
FD_ATOL = 1e-7      # relative to the gradient norm (the direction has unit norm)
SCAN_RTOL = 1e-9    # relative to the largest output magnitude
ALONE_RTOL = 1e-9   # padded row vs. the same utterance run alone
LOSS_RTOL = 1e-12
CONV_CHUNK = 64


def finite_losses(losses) -> tuple:
    values = np.asarray(list(losses), dtype=np.float64)
    bad = int((~np.isfinite(values)).sum())
    return ("finite_losses", values.size > 0 and bad == 0,
            f"{values.size} losses, {bad} non-finite")


def numpy_cross_entropy(logits: np.ndarray, targets: np.ndarray, ignore_index: int) -> float:
    """Mean negative log-likelihood over valid targets, by a log-softmax in numpy."""
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    valid = targets != ignore_index
    picked = np.take_along_axis(logp, np.where(valid, targets, 0)[..., None], axis=-1)[..., 0]
    return float(-picked[valid].sum() / valid.sum())


def eval_loss(batches, reported: float, ignore_index: int) -> tuple:
    """Token-weighted loss over ``(logits, targets)`` batches vs. the reported one."""
    total = 0.0
    count = 0
    for logits, targets in batches:
        n = int((targets != ignore_index).sum())
        total += numpy_cross_entropy(logits, targets, ignore_index) * n
        count += n
    want = total / count if count else math.nan
    err = abs(reported - want)
    ok = bool(np.isfinite(reported)) and err <= LOSS_RTOL * max(1.0, abs(want))
    return ("eval_loss_numpy", ok, f"reported {reported!r}, numpy {want!r}")


def directional_fd(loss_at, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
                   seed: int) -> tuple:
    """Central difference of the loss along a random unit direction vs. grad . v.

    ``loss_at(arrays)`` evaluates the loss (no tape) at the given parameters;
    ``grads`` is the tape gradient at ``params``.
    """
    rng = np.random.default_rng([seed, 17])
    direction = {k: rng.standard_normal(p.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float((v * v).sum()) for v in direction.values()))
    direction = {k: v / norm for k, v in direction.items()}
    predicted = sum(float((grads[k] * v).sum()) for k, v in direction.items() if k in grads)
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    plus = loss_at({k: p + FD_STEP * direction[k] for k, p in params.items()})
    minus = loss_at({k: p - FD_STEP * direction[k] for k, p in params.items()})
    numeric = (plus - minus) / (2.0 * FD_STEP)
    err = abs(numeric - predicted)
    ok = err <= FD_ATOL * gnorm + FD_RTOL * abs(predicted)
    return ("directional_fd", bool(ok),
            f"tape {predicted:.6e}, fd {numeric:.6e}, |err| {err:.2e}, |g| {gnorm:.3e}")


def find_modules(root, cls) -> list:
    """Every instance of ``cls`` reachable through module attributes and lists."""
    found = []

    def walk(obj):
        if isinstance(obj, cls):
            found.append(obj)
        if isinstance(obj, Module):
            for value in vars(obj).values():
                walk(value)
        elif isinstance(obj, list):
            for item in obj:
                walk(item)

    walk(root)
    return found


_SSM_FIELDS = ("log_neg_re", "lam_im", "b_re", "b_im", "c_re", "c_im", "d", "log_dt")


def _stacked(systems: list[DiagonalSsm]) -> DiagonalSsm:
    # channels are independent SISO systems, so stacking them changes nothing
    arrays = {f: np.concatenate([getattr(s, f).data for s in systems], axis=0)
              for f in _SSM_FIELDS}
    return _system(systems[0].state_dim, arrays)


def _system(state_dim: int, arrays: dict) -> DiagonalSsm:
    return DiagonalSsm(state_dim, arrays["d"].shape[0],
                       **{f: Tensor(a) for f, a in arrays.items()})


def _conv_in_chunks(conv, system: DiagonalSsm, u: SeqBatch) -> np.ndarray:
    # the kernel's complex working set grows with channels x state x length;
    # chunks of CONV_CHUNK channels keep it at the size a trained stage uses
    outs = []
    for lo in range(0, system.channels, CONV_CHUNK):
        part = {f: getattr(system, f).data[lo:lo + CONV_CHUNK] for f in _SSM_FIELDS}
        sub = _system(system.state_dim, part)
        u_part = u.with_data(Tensor(u.data.data[:, :, lo:lo + CONV_CHUNK]))
        outs.append(conv(discretize(sub), u_part).data.data)
    return np.concatenate(outs, axis=-1)


def scan_matches_conv(model, length: int, seed: int, conv=ssm_conv) -> tuple:
    """The recurrence and the FFT convolution agree on every trained system.

    All systems of one state size are stacked along the channel axis and
    scanned once on a random input of ``length`` steps; the convolution runs
    on chunks of the same channels.
    """
    systems = find_modules(model, DiagonalSsm)
    if not systems:
        return ("scan_vs_conv", False, "no state space systems found")
    rng = np.random.default_rng([seed, 23])
    worst = 0.0
    channels = 0
    for state_dim in sorted({s.state_dim for s in systems}):
        group = _stacked([s for s in systems if s.state_dim == state_dim])
        u = SeqBatch(Tensor(rng.standard_normal((1, length, group.channels))), [length])
        y_scan = ssm_scan(discretize(group), u).data.data
        y_conv = _conv_in_chunks(conv, group, u)
        scale = max(float(np.abs(y_scan).max()), 1e-300)
        worst = max(worst, float(np.abs(y_scan - y_conv).max()) / scale)
        channels += group.channels
    return ("scan_vs_conv", worst <= SCAN_RTOL,
            f"{len(systems)} systems, {channels} channels, L={length}, rel err {worst:.2e}")


def padding_contract(forward, frames: np.ndarray, lengths: np.ndarray,
                     reduction: int = 4) -> list[tuple]:
    """Padded-batch contract of a subsampling encoder.

    Output lengths are ceil(len / reduction), padded outputs are exactly zero,
    and each utterance run alone matches its row of the padded batch.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    out = forward(SeqBatch(Tensor(frames), lengths))
    want_lengths = -(-lengths // reduction)
    results = [("output_lengths", bool(np.array_equal(out.lengths, want_lengths)),
                f"got {out.lengths.tolist()}, want {want_lengths.tolist()}")]
    data = out.data.data
    t = np.arange(data.shape[1])[None, :]
    pad = t >= out.lengths[:, None]
    leak = float(np.abs(data[pad]).max()) if pad.any() else 0.0
    results.append(("padding_zero", leak == 0.0, f"max |padded output| {leak!r}"))
    worst = 0.0
    scale = max(float(np.abs(data).max()), 1e-300)
    for b, n in enumerate(lengths):
        alone = forward(SeqBatch(Tensor(frames[b:b + 1, :n]), [n])).data.data[0]
        m = int(want_lengths[b])
        if alone.shape[0] < m:
            worst = math.inf
            break
        worst = max(worst, float(np.abs(alone[:m] - data[b, :m]).max()) / scale)
    results.append(("alone_matches_batch", worst <= ALONE_RTOL,
                    f"{len(lengths)} utterances, rel err {worst:.2e}"))
    return results


def checkpoint_roundtrip(path, expected: dict[str, np.ndarray]) -> tuple:
    """Loading returns the expected arrays bit for bit; re-saving is byte-stable."""
    original = Path(path).read_bytes()
    arrays, meta = load_checkpoint(path)
    mismatched = [k for k, v in expected.items()
                  if k not in arrays or arrays[k].dtype != v.dtype
                  or arrays[k].tobytes() != np.ascontiguousarray(v).tobytes()]
    with tempfile.TemporaryDirectory(dir=Path(path).parent) as tmp:
        copy = Path(tmp) / "resaved.bin"
        save_checkpoint(copy, arrays, meta)
        same = copy.read_bytes() == original
    return ("checkpoint_roundtrip", not mismatched and same,
            f"{len(original)} bytes, {len(expected)} arrays checked, "
            f"{len(mismatched)} mismatched, re-save identical: {same}")
