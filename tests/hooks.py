"""Test-only substitutions that reduce a layer to a simpler one or swap in a
reference path, probes on the tape's node dtypes, on attention weights and
on what each node's backward closure keeps, seeded systems with their
continuous eigenvalues, and the environment for tests that start a fresh
interpreter.

Each works through the layer's own parameters or attributes, or through the
library's public ``record_op`` and the attention node's per-tile weights
helper ``_attention_probs``, so the production code carries no switches for
them.
"""

import contextlib
import os
import sys
from pathlib import Path

import numpy as np

import mhssm
from mhssm import tensor as T
from mhssm.nn import Linear
from mhssm.ssm import DiagonalSsm, init_ssm_rng, materialize_kernel
from mhssm.tensor import Tensor
from oracles import loop_reverse


def identity_linear(dim: int) -> Linear:
    """A ``dim`` x ``dim`` Linear layer that maps its input to itself."""
    lin = Linear(dim, dim, np.random.default_rng(0))
    lin.set_params({"w": Tensor(np.eye(dim), requires_grad=True),
                    "b": Tensor(np.zeros(dim), requires_grad=True)})
    return lin


def set_identity_ssm(*stages):
    """Make each stage's state space system the identity map, exactly.

    A zero readout (c = 0) gives a zero kernel and a unit skip (d = 1) passes
    the input through, so the convolution returns its input bit for bit.
    """
    for stage in stages:
        shape, channels = stage.ssm.c_re.shape, stage.ssm.channels
        stage.ssm.set_params({
            "c_re": Tensor(np.zeros(shape), requires_grad=True),
            "c_im": Tensor(np.zeros(shape), requires_grad=True),
            "d": Tensor(np.ones(channels), requires_grad=True),
        })


def init_ssm(state_dim: int, channels: int, seed: int = 0,
             scheme: str = "s4d_lin", dtype=np.float64) -> DiagonalSsm:
    """A diagonal system drawn from its own seed; identical seeds give
    identical parameters."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return init_ssm_rng(state_dim, channels, rng, scheme, dtype)


def eigenvalues(ssm: DiagonalSsm) -> np.ndarray:
    """The system's continuous eigenvalues as a complex array."""
    return -np.exp(ssm.log_neg_re.data) + 1j * ssm.lam_im.data


def reversed_rows(x):
    """``x`` with each row reversed within its valid length, as a tape node."""
    out = Tensor._wrap(loop_reverse(x.data.data, x.lengths))
    key, lengths = x.data.key, x.lengths
    T.record_op(out, (x.data,), lambda g, acc: acc(key, loop_reverse(g, lengths)))
    return x.with_data(out)


def fft_ssm_conv_projected(d, x, w, b, reverse=False):
    """``ssm_conv_projected`` by the reference path on the unpacked batch:
    ``T.linear``, then the materialized kernel convolved by FFT with the
    skip term; with ``reverse``, that between two per-row reversals."""
    padded = x.unpacked()
    if reverse:
        padded = reversed_rows(padded)
    u = T.linear(padded.data, w, b)
    y = padded.with_data(T.causal_conv_fft(u, materialize_kernel(d, padded.length), d.d))
    return (reversed_rows(y) if reverse else y).packed()


def packed_call(module, x, *args):
    """``module`` run on the packed valid frames of batch ``x``, as the
    encoder runs it, with its output unpacked into a padded batch."""
    return module(x.packed(), *args).unpacked()


def tie_directions(block):
    """Copy a bidirectional block's forward-direction parameters onto its backward one."""
    block.bwd.set_params({
        name: Tensor(value.data.copy(), requires_grad=True)
        for name, value in block.fwd.named_params().items()
    })


@contextlib.contextmanager
def dtype_leaks(dtype):
    """Collect the tape nodes that leave ``dtype`` while the block runs.

    Wraps ``mhssm.tensor.record_op`` (every node, in the library or not,
    records through it) and yields a list of (recording function, "output"
    or "grad", dtype) for each node output, and each gradient a node's
    backward hands to ``acc``, of another dtype.
    """
    leaks = []
    record_op = T.record_op

    def checked_record(output, inputs, backward_fn):
        name = sys._getframe(1).f_code.co_name
        if output.dtype != dtype:
            leaks.append((name, "output", output.dtype))

        def backward(g, acc):
            def checked_acc(t, grad):
                if grad.dtype != dtype:
                    leaks.append((name, "grad", grad.dtype))
                acc(t, grad)
            backward_fn(g, checked_acc)

        record_op(output, inputs, backward)

    T.record_op = checked_record
    try:
        yield leaks
    finally:
        T.record_op = record_op


def attention_weights(attn, x) -> np.ndarray:
    """(batch, heads, query, key) weights of one ``attn.attend`` call on the
    packed valid frames of batch ``x``.

    Wraps ``mhssm.tensor._attention_probs``, which the attention node calls
    once per (batch row, head) tile, batch row by batch row, for the
    duration of that call. A tile covers its row's n valid positions; it
    fills the top-left (n, n) corner of its (length, length) slot, and the
    rest holds zeros.
    """
    kept = []
    probs = T._attention_probs

    def keeping_probs(*args):
        out = probs(*args)
        kept.append(out)
        return out

    T._attention_probs = keeping_probs
    try:
        attn.attend(x.packed())
    finally:
        T._attention_probs = probs
    weights = np.zeros((x.batch, attn.heads, x.length, x.length))
    for (b, h), tile in zip(np.ndindex(x.batch, attn.heads), kept):
        weights[b, h, :len(tile), :len(tile)] = tile
    return weights


def _base(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _cell_values(fn):
    for cell in fn.__closure__:
        try:
            yield cell.cell_contents
        except ValueError:  # a cell not yet assigned
            pass


def saved_arrays(node) -> list[np.ndarray]:
    """The distinct base arrays that a tape node's backward closure keeps.

    Walks the closure's cells, and the functions, lists and tuples found in
    them, so arrays captured by a helper closure or held in a list count
    too. A view counts as the array that owns its memory.
    """
    # an explicit stack, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep the found arrays alive
    # until the garbage collector runs
    found, seen, stack = {}, set(), [node.backward]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = _base(obj)
            found[id(base)] = base
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(_cell_values(obj))
    return list(found.values())


def node_kind(node) -> str:
    """The function that made a node's backward closure: ``linear.<locals>.bwd``
    is a ``linear``; a lambda's kind is the function it was made in."""
    return node.backward.__qualname__.split(".<locals>")[0]


def saved_bytes_by_kind(tape) -> dict[str, int]:
    """Bytes that a tape's backward closures keep, per node kind.

    Each base array counts once, for the first node in tape order that keeps
    it, so the kinds add up to what the closures hold together. Trainable
    parameters and input arrays that a node reads count too.
    """
    totals, counted = {}, set()
    for node in tape.nodes:
        kind = node_kind(node)
        for a in saved_arrays(node):
            if id(a) not in counted:
                counted.add(id(a))
                totals[kind] = totals.get(kind, 0) + a.nbytes
    return totals


def subprocess_env(**extra) -> dict:
    """This process's environment with the imported ``mhssm`` on PYTHONPATH.

    A child interpreter then imports the same package, installed or not.
    """
    src = str(Path(mhssm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)
