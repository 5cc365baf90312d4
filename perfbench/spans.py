"""Span tracing for the benchmark's traced runs.

The tracer wraps the library's public calls at the names their callers look
up (module attributes and class ``__call__``/method slots) and restores them
on :meth:`Tracer.uninstall`. It records two views of a training step:

* layer spans (``encoder.frontend``, ``blocks.stage``, ``ssm.kernel``, ...):
  a tree of timed intervals; a span's self time is its duration minus the
  time its child spans cover;
* tape-op counters: every ``mhssm.tensor`` operation is timed as its own
  nested interval (self time per op kind), and ``mhssm.tensor.record_op`` is
  wrapped so each recorded backward closure is timed and tagged with the
  layer span and op kind that recorded it.

Only steps opened with :meth:`begin_step` are recorded; checkpoint save and
load calls are timed whenever the tracer is installed. Spans stay in memory
and are written out by :meth:`write`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from collections import defaultdict

from mhssm import blocks, checkpoint, encoder, optim, ssm, tensor, training

OP_KINDS = ("matmul", "gelu", "layer_norm", "softmax", "narrow", "concat", "add",
            "mul", "sigmoid", "reverse_within", "cross_entropy", "other")

LAYERS = ("encoder.frontend", "encoder.attention", "encoder.ffn", "readout",
          "blocks.bidir", "blocks.stage", "ssm.discretize", "ssm.kernel", "ssm.conv")

# public functions of mhssm.tensor that record no tape node
_NOT_OPS = {"zeros", "constant", "record_op", "backward", "accuracy", "next_pow2",
            "pointwise"}

_FRONTEND_CLASSES = ("TimeReductionFrontend", "MultiScaleFrontend", "LinearFrontend")

_perf = time.perf_counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def patch(self, owner, attr: str, wrap):
        old = getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, wrap(old))

    def restore(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    def __init__(self):
        self.recording = False
        self.steps = 0
        self.spans: list[list] = []  # [name, start, end, parent index, step]
        self._open: list[int] = []
        self._op_child: list[float] = []
        self._tape_depth = 0
        self._patches = Patches()
        self.bwd = defaultdict(float)
        self.op_count = defaultdict(int)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.op_bytes = defaultdict(int)
        self.kernel_bytes = 0
        self.calls = defaultdict(list)

    # -- step windows -----------------------------------------------------

    def begin_step(self):
        self.recording = True

    def end_step(self):
        if self.recording:
            self.recording = False
            self.steps += 1

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _perf(), 0.0, parent, self.steps])
        self._open.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = _perf()
        self._open.pop()

    def _span_fn(self, name: str, fn, nbytes=None):
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            if nbytes is not None:
                self.kernel_bytes += nbytes(*args, **kwargs)
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def _call_timer(self, name: str, fn):
        def timed(*args, **kwargs):
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.calls[name].append(_perf() - t0)
        return timed

    # -- tape ops ---------------------------------------------------------

    def _op_fn(self, kind: str, fn):
        children = self._op_child

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            children.append(0.0)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                self.op_fwd[kind] += dt - children.pop()
                if children:
                    children[-1] += dt
        return traced

    def _record_op(self, fn):
        def traced(output, inputs, backward_fn):
            if not (self.recording and self._tape_depth):
                return fn(output, inputs, backward_fn)
            kind = sys._getframe(1).f_code.co_name
            if kind not in OP_KINDS:
                kind = "other"
            layer = self.spans[self._open[-1]][0] if self._open else "other"
            self.op_count[kind] += 1
            self.op_bytes[kind] += output.data.nbytes

            def timed_backward(g, acc):
                t0 = _perf()
                backward_fn(g, acc)
                dt = _perf() - t0
                self.bwd[layer] += dt
                self.op_bwd[kind] += dt
            return fn(output, inputs, timed_backward)
        return traced

    def _tape_enter(self, fn):
        def enter(tape):
            self._tape_depth += 1
            return fn(tape)
        return enter

    def _tape_exit(self, fn):
        def exit_(tape, *exc):
            self._tape_depth -= 1
            return fn(tape, *exc)
        return exit_

    # -- installation -----------------------------------------------------

    def install(self, readout_cls):
        """Wrap the library's public calls; ``readout_cls`` owns the readout."""
        patch = self._patches.patch
        for name, fn in list(vars(tensor).items()):
            if (inspect.isfunction(fn) and not name.startswith("_")
                    and name not in _NOT_OPS):
                kind = name if name in OP_KINDS else "other"
                patch(tensor, name, lambda f, k=kind: self._op_fn(k, f))
        patch(tensor, "record_op", self._record_op)
        patch(tensor.GradTape, "__enter__", self._tape_enter)
        patch(tensor.GradTape, "__exit__", self._tape_exit)
        patch(tensor.GradTape, "gradients", lambda f: self._span_fn("tensor.tape.backward", f))

        def span(owner, attr, name, nbytes=None):
            patch(owner, attr, lambda f: self._span_fn(name, f, nbytes))

        for cls_name in _FRONTEND_CLASSES:
            if hasattr(encoder, cls_name):
                span(getattr(encoder, cls_name), "__call__", "encoder.frontend")
        span(encoder.Encoder, "__call__", "encoder")
        span(encoder.SelfAttentionBlock, "__call__", "encoder.attention")
        span(encoder.FeedForwardBlock, "__call__", "encoder.ffn")
        span(readout_cls, "__call__", "readout")
        span(tensor, "cross_entropy", "readout")
        span(blocks.BidirMhSsmBlock, "__call__", "blocks.bidir")
        span(blocks.MhSsmStage, "__call__", "blocks.stage")
        span(blocks, "discretize", "ssm.discretize")
        span(ssm, "materialize_kernel", "ssm.kernel",
             nbytes=lambda d, length: 16 * d.channels * d.state_dim * length)
        span(tensor, "causal_conv_fft", "ssm.conv")
        span(training, "clip_grad_norm", "optim.clip")
        span(optim, "clip_grad_norm", "optim.clip")
        span(optim.Adam, "step", "optim.adam")
        for owner in (training, checkpoint):
            patch(owner, "save_checkpoint", lambda f: self._call_timer("checkpoint.save", f))
            patch(owner, "load_checkpoint", lambda f: self._call_timer("checkpoint.load", f))

    def uninstall(self):
        self._patches.restore()
        self.recording = False

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the recorded steps."""
        out = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def per_layer(self, overhead_s: float, checkpoint_bytes: int) -> dict:
        """Per-step layer metrics (name -> (value, unit))."""
        n = max(self.steps, 1)
        own = self.self_times()
        m = {"tasks.generate.s": (own["tasks.generate"] / n, "s")}
        for layer in LAYERS:
            m[f"{layer}.fwd_s"] = (own[layer] / n, "s")
            m[f"{layer}.bwd_s"] = (self.bwd[layer] / n, "s")
        m["ssm.kernel.bytes"] = (self.kernel_bytes / n, "bytes")
        m["tensor.tape.nodes"] = (sum(self.op_count.values()) / n, "count")
        m["tensor.tape.out_bytes"] = (sum(self.op_bytes.values()) / n, "bytes")
        m["tensor.tape.backward_s"] = (own["tensor.tape.backward"] / n, "s")
        for kind in OP_KINDS:
            m[f"tensor.op.{kind}.count"] = (self.op_count[kind] / n, "count")
            m[f"tensor.op.{kind}.fwd_s"] = (self.op_fwd[kind] / n, "s")
            m[f"tensor.op.{kind}.bwd_s"] = (self.op_bwd[kind] / n, "s")
            m[f"tensor.op.{kind}.out_bytes"] = (self.op_bytes[kind] / n, "bytes")
        m["optim.clip.s"] = (own["optim.clip"] / n, "s")
        m["optim.adam.s"] = (own["optim.adam"] / n, "s")

        def median_call(name):
            calls = self.calls[name]
            return statistics.median(calls) if calls else 0.0

        m["checkpoint.save_s"] = (median_call("checkpoint.save"), "s")
        m["checkpoint.load_s"] = (median_call("checkpoint.load"), "s")
        m["checkpoint.bytes"] = (checkpoint_bytes, "bytes")
        m["trace.overhead_s"] = (overhead_s, "s")
        return m

    def write(self, path):
        """Write the recorded spans as JSON lines (times relative to the first)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, step in self.spans:
                fh.write(json.dumps({"name": name, "start": start - base,
                                     "end": end - base, "parent": parent,
                                     "step": step}) + "\n")
