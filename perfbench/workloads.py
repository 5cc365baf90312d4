"""The benchmark's workloads: two echo trainings and a padded ASR Stateformer.

Every workload reports the same end-to-end metrics (``setup_s``,
``train_step_s``, ``train_tokens_per_s``, ``eval_tokens_per_s``,
``peak_rss_mb``) from an untraced run, or the per-layer metrics of
:mod:`spans` from a traced run, and runs the checks of :mod:`checks`.

The echo workloads drive ``mhssm.training.train`` and ``evaluate``. Step
boundaries are taken from thin hooks on the names ``train`` looks up
(``generate_task`` opens a step, the step's own ``save_checkpoint`` closes
it); the same hooks keep the warm-up gradient and the final evaluation's
logits for the checks. Timed evaluation batches run between
the timed training steps (see :class:`Pacer`). The ASR workload drives
``build_encoder``, ``GradTape``, ``clip_grad_norm`` and ``Adam`` directly,
because ``train`` cannot run a subsampling frontend.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from mhssm import checkpoint, optim, tensor as T, training
from mhssm.encoder import EncoderConfig, build_encoder
from mhssm.nn import Linear, Module
from mhssm.seq import SeqBatch
from mhssm.tasks import IGNORE_INDEX, generate_task
from mhssm.tensor import GradTape, Tensor
from mhssm.training import TaskModel
from spans import Patches, Tracer

SETUP_REPEATS = 3   # set-ups per run; setup_s is their median
TRAIN_SHARE = 0.6   # share of --seconds spent on timed training steps
EVAL_SHARE = 0.4    # share of --seconds spent on timed evaluation batches
MIN_STEPS = 3       # timed steps per phase, whatever --seconds says
MIN_EVALS = 3       # timed evaluation batches
EVAL_OFFSET = 1_000_000

_perf = time.perf_counter

# every step saves a checkpoint, which the paced evaluation batches load
_ECHO_COMMON = {"dropout": 0.0, "dtype": "float64", "eval_batches": 1,
                "checkpoint_every": 1, "target_acc": None}

ECHO = {
    "echo_mh_ssm": {
        "full": {},
        "tiny": {"seq_len": 32, "batch": 2, "lag": 4, "model_dim": 8, "heads": 2,
                 "stack": 1, "state_dim": 4, "ffn_dim": 16, "num_layers": 1},
    },
    "echo_8k_mh_ssm": {
        "full": {"seq_len": 8192, "batch": 1, "lag": 4096},
        # still past the 4096-tap switch in the kernel
        "tiny": {"seq_len": 4104, "batch": 1, "lag": 2052, "model_dim": 4, "heads": 2,
                 "stack": 1, "state_dim": 2, "ffn_dim": 8, "num_layers": 1},
    },
}

ASR = {
    "full": dict(
        encoder=dict(frontend="ms", input_dim=80, model_dim=64, num_layers=2,
                     block_kind="stateformer", attn_heads=4, ffn_dim=256, heads=4,
                     stack=2, state_dim=16, gating="glu", dropout=0.0),
        batch=8, min_len=300, max_len=800, classes=32, lr=1e-3),
    "tiny": dict(
        encoder=dict(frontend="ms", input_dim=80, model_dim=16, num_layers=1,
                     block_kind="stateformer", attn_heads=2, ffn_dim=32, heads=2,
                     stack=1, state_dim=4, gating="glu", dropout=0.0, fe_heads=2,
                     fe_stack=1, fe_state_dim=4),
        batch=2, min_len=13, max_len=40, classes=8, lr=1e-3),
}

WORKLOADS = tuple(ECHO) + ("asr_stateformer",)


class Tally:
    """Operations attempted and failed, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def ops(self, n: int = 1):
        self.attempted += n

    def check(self, fn, *args, **kwargs):
        """Run one check function (one result or a list of them)."""
        try:
            outcome = fn(*args, **kwargs)
        except Exception:
            self.attempted += 1
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        for name, ok, detail in outcome if isinstance(outcome, list) else [outcome]:
            self.attempted += 1
            self.correct = self.correct and bool(ok)
            print(f"check {name}: {'PASS' if ok else 'FAIL'} ({detail})", file=sys.stderr)


def _phases(trace: bool, budget: float) -> list[float]:
    """Seconds for each timed phase: untraced, then traced when tracing."""
    return [budget / 2, budget / 2] if trace else [budget]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_rate(frames, seconds) -> float:
    return statistics.median(f / s for f, s in zip(frames, seconds))


def _end_to_end(setup, steps, step_frames, evals, eval_frames) -> dict:
    for name, samples in (("setup", setup), ("step", steps), ("eval", evals)):
        print(f"{name} seconds ({len(samples)}): "
              + " ".join(f"{v:.4f}" for v in samples), file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "train_step_s": (statistics.median(steps), "s"),
        "train_tokens_per_s": (_median_rate(step_frames, steps), "tokens/s"),
        "eval_tokens_per_s": (_median_rate(eval_frames, evals), "tokens/s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }


class Pacer:
    """Timed evaluation batches that keep pace with the timed training steps.

    Between untraced steps, and once more after the last step, evaluation
    batches run until their total time reaches EVAL_SHARE / TRAIN_SHARE of
    the step time so far. Both metrics then cover the same stretch of the
    run, so a slow or fast spell of a shared host moves them together
    instead of landing on one of them alone.
    """

    def __init__(self, evaluate_once):
        self.evaluate_once = evaluate_once  # runs one batch, returns its valid frames
        self.train_s = 0.0
        self.times: list[float] = []
        self.frames: list[int] = []

    def catch_up(self, minimum: int = 0):
        while (len(self.times) < minimum
               or sum(self.times) < EVAL_SHARE / TRAIN_SHARE * self.train_s):
            t0 = _perf()
            frames = self.evaluate_once()
            self.times.append(_perf() - t0)
            self.frames.append(frames)


def _overhead(untraced, traced) -> float:
    return statistics.median(traced) - statistics.median(untraced)


# ---------------------------------------------------------------------------
# echo workloads: mhssm.training.train / evaluate


class _SetupDone(Exception):
    """Ends a set-up-only call to ``train`` at the start of its second step."""


class EchoHooks:
    """Step clock and captures on the names ``train`` looks up."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.patches = Patches()
        self.begin()
        self.in_train = False

    def begin(self, abort_at: int | None = None, trace_from: int | None = None,
              pacer: Pacer | None = None):
        """Reset the captures for the next ``train`` call."""
        self.in_train = True
        self.evaluating = False
        self.abort_at = abort_at
        self.trace_from = trace_from
        self.pacer = pacer
        self.entries: list[float] = []  # generate_task calls: the loop reaches a step
        self.starts: list[float] = []   # step starts, after any evaluation batches
        self.ends: list[float] = []     # step ends: the step's own checkpoint save
        self.ckpt_path = None
        self.loop_end = None
        self.model = None
        self.warm_params = None
        self.warm_grads = None
        self.final_batches: list[tuple] = []

    def install(self):
        self.patches.patch(training, "generate_task", self._generate)
        self.patches.patch(training, "TaskModel", self._task_model)
        self.patches.patch(training, "clip_grad_norm", self._clip)
        self.patches.patch(training, "save_checkpoint", self._save)
        self.patches.patch(T, "cross_entropy", self._cross_entropy)

    def uninstall(self):
        self.patches.restore()

    def _in_loop(self) -> bool:
        return self.in_train and self.loop_end is None and not self.evaluating

    def _untraced(self, step: int) -> bool:
        return self.trace_from is None or step < self.trace_from

    def _generate(self, fn):
        def generate(*args, **kwargs):
            if not self._in_loop():
                return fn(*args, **kwargs)
            self.entries.append(_perf())
            tracer = self.tracer
            if tracer is not None:
                tracer.end_step()
            step = len(self.entries)
            if step == self.abort_at:
                raise _SetupDone
            prev = step - 1  # step 1 is the warm-up
            if self.pacer is not None and prev > 1 and self._untraced(prev):
                self.pacer.train_s += self.ends[-1] - self.starts[-1]
                self.evaluating = True
                try:
                    self.pacer.catch_up()
                finally:
                    self.evaluating = False
            self.starts.append(_perf())
            if tracer is None or self._untraced(step):
                return fn(*args, **kwargs)
            tracer.begin_step()
            idx = tracer.open("tasks.generate")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return generate

    def _task_model(self, cls):
        def build(*args, **kwargs):
            model = cls(*args, **kwargs)
            if self._in_loop() and self.model is None:
                self.model = model
            return model
        return build

    def _clip(self, fn):
        def clip(grads, max_norm):
            if self._in_loop() and len(self.starts) == 1 and self.warm_grads is None:
                self.warm_grads = dict(grads)
                self.warm_params = {k: t.data for k, t in self.model.named_params().items()}
            return fn(grads, max_norm)
        return clip

    def _save(self, fn):
        def save(*args, **kwargs):
            if self._in_loop():
                now = _perf()
                if len(self.ends) < len(self.starts):
                    self.ends.append(now)  # every step saves (checkpoint_every 1)
                    self.ckpt_path = args[0]
                else:
                    self.loop_end = now    # the final save, after the loop
                if self.tracer is not None:
                    self.tracer.end_step()
            return fn(*args, **kwargs)
        return save

    def _cross_entropy(self, fn):
        def cross_entropy(logits, targets, *args, **kwargs):
            if self.in_train and self.loop_end is not None:
                self.final_batches.append((logits.data, np.asarray(targets)))
            return fn(logits, targets, *args, **kwargs)
        return cross_entropy


def run_echo(name: str, seed: int, seconds: float, trace: bool, tiny: bool,
             import_s: float, work: Path) -> tuple[Tally, dict, Tracer | None]:
    cfg = training.load_config(dict(_ECHO_COMMON, **ECHO[name]["tiny" if tiny else "full"],
                                    seed=seed))
    frames = cfg["batch"] * cfg["seq_len"]
    tally = Tally()
    tracer = Tracer() if trace else None
    hooks = EchoHooks(tracer)
    hooks.install()
    if tracer is not None:
        tracer.install(readout_cls=TaskModel)
    setup: list[float] = []
    warm: list[float] = []
    reports = []

    def evaluate_once():
        reports.append(training.evaluate(hooks.ckpt_path, batches=1))
        tally.ops()
        return frames

    pacer = Pacer(evaluate_once)

    def train_call(steps, tag, **kw):
        hooks.begin(**kw)
        t0 = _perf()
        try:
            result = training.train(dict(cfg, steps=steps), out_dir=work / tag)
        except _SetupDone:
            result = None
        finally:
            hooks.in_train = False
        setup.append(import_s + hooks.entries[1] - t0)
        warm.append(hooks.ends[0] - hooks.starts[0])
        return result

    try:
        for i in range(SETUP_REPEATS - 1):
            train_call(2, f"setup{i}", abort_at=2)
            tally.ops()
        counts = [max(MIN_STEPS, round(share / min(warm)))
                  for share in _phases(trace, TRAIN_SHARE * seconds)]
        trace_from = 2 + counts[0] if trace else None
        result = train_call(1 + sum(counts), "train", trace_from=trace_from, pacer=pacer)
        tally.ops(1 + sum(counts) + 1)  # warm-up, timed steps, final eval batch
        durations = [end - start for start, end in zip(hooks.starts[1:], hooks.ends[1:])]
        untraced, traced = durations[:counts[0]], durations[counts[0]:]
        pacer.train_s = sum(untraced)  # a step is paced when the next begins; the last has none
        ckpt = Path(result["checkpoint_path"])
        # at least one batch on the final checkpoint
        pacer.catch_up(minimum=max(MIN_EVALS, len(pacer.times) + 1))
    finally:
        if tracer is not None:
            tracer.uninstall()
        hooks.uninstall()

    model = hooks.model
    tally.check(checks.finite_losses,
                [h["loss"] for h in result["history"]] + [result["final_eval"]["loss"]]
                + [r["loss"] for r in reports])
    tally.check(checks.eval_loss, hooks.final_batches, result["final_eval"]["loss"],
                IGNORE_INDEX)
    probe = TaskModel(cfg)
    x, targets = generate_task(probe.spec, cfg["batch"], 0)

    def loss_at(arrays):
        probe.set_params({k: Tensor(v, requires_grad=True) for k, v in arrays.items()})
        return T.cross_entropy(probe(x), targets, IGNORE_INDEX).item()

    tally.check(checks.directional_fd, loss_at, hooks.warm_params, hooks.warm_grads, seed)
    tally.check(checks.scan_matches_conv, model, cfg["seq_len"], seed)
    tally.check(checks.checkpoint_roundtrip, ckpt,
                {f"model.{k}": t.data for k, t in model.named_params().items()})

    if tracer is None:
        metrics = _end_to_end(setup, untraced, [frames] * len(untraced),
                              pacer.times, pacer.frames)
    else:
        metrics = tracer.per_layer(_overhead(untraced, traced), ckpt.stat().st_size)
    return tally, metrics, tracer


# ---------------------------------------------------------------------------
# ASR Stateformer: build_encoder / GradTape / clip_grad_norm / Adam


class AsrData:
    """Synthetic 80-dim speech-like frames with frame labels at a quarter rate.

    Lengths are drawn in [min_len, max_len], one per stratum. Each seed
    draws one prototype per label class. An utterance's labels are runs of
    1-4 reduced frames with random classes; input frame ``t`` is the
    prototype of label ``t // 4`` plus unit-variance noise scaled by 0.5.
    Rows are zero-padded to the longest utterance of the batch; labels past
    ceil(len / 4) are ``IGNORE_INDEX``.
    """

    def __init__(self, seed: int, batch: int, min_len: int, max_len: int,
                 classes: int, dim: int):
        self.seed = seed
        self.batch = batch
        self.min_len = min_len
        self.max_len = max_len
        self.classes = classes
        self.protos = np.random.default_rng([seed, 0]).standard_normal((classes, dim))

    def __call__(self, index: int) -> tuple[SeqBatch, np.ndarray]:
        rng = np.random.default_rng([self.seed, 1 + index])
        # one length per equal-width stratum of [min_len, max_len], shuffled:
        # lengths stay uniform overall, while every batch keeps about the same
        # frame count and padding share, so steps cost the same across seeds
        width = (self.max_len - self.min_len + 1) / self.batch
        lengths = (self.min_len
                   + np.floor((np.arange(self.batch) + rng.random(self.batch)) * width)
                   ).astype(np.int64)
        rng.shuffle(lengths)
        horizon = int(lengths.max())
        out_lengths = -(-lengths // 4)
        frames = np.zeros((self.batch, horizon, self.protos.shape[1]))
        labels = np.full((self.batch, -(-horizon // 4)), IGNORE_INDEX, dtype=np.int64)
        for b, (n, m) in enumerate(zip(lengths, out_lengths)):
            classes = rng.integers(0, self.classes, size=m)
            runs = np.repeat(classes, rng.integers(1, 5, size=m))[:m]
            labels[b, :m] = runs
            noise = rng.standard_normal((n, frames.shape[2]))
            frames[b, :n] = self.protos[np.repeat(runs, 4)[:n]] + 0.5 * noise
        return SeqBatch(Tensor(frames), lengths), labels


class AsrModel(Module):
    """Encoder plus a linear readout to frame-label logits."""

    def __init__(self, enc_cfg: EncoderConfig, classes: int, seed: int):
        self.encoder = build_encoder(enc_cfg, seed=seed)
        self.readout = Linear(enc_cfg.model_dim, classes, np.random.default_rng([seed, 2]))

    def __call__(self, x: SeqBatch) -> Tensor:
        return self.readout(self.encoder(x).data)


def asr_step(model: AsrModel, opt: optim.Adam, x: SeqBatch, labels: np.ndarray,
             lr: float):
    """One training step; returns (loss, pre-clip grads, pre-step params)."""
    with GradTape() as tape:
        loss = T.cross_entropy(model(x), labels, IGNORE_INDEX)
    params = model.named_params()
    by_id = tape.gradients(loss)
    grads = {name: by_id[t] for name, t in params.items() if t in by_id}
    raw = dict(grads)
    optim.clip_grad_norm(grads, 1.0)
    model.set_params(opt.step(params, grads, lr))
    return loss.item(), raw, {k: t.data for k, t in params.items()}


def run_asr(seed: int, seconds: float, trace: bool, tiny: bool, import_s: float,
            work: Path) -> tuple[Tally, dict, Tracer | None]:
    size = ASR["tiny" if tiny else "full"]
    enc_cfg = EncoderConfig(**size["encoder"])
    data = AsrData(seed, size["batch"], size["min_len"], size["max_len"],
                   size["classes"], enc_cfg.input_dim)
    lr = size["lr"]
    tally = Tally()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(readout_cls=AsrModel)
    setup: list[float] = []
    losses: list[float] = []
    eval_batches: list[tuple] = []

    def evaluate_once():
        x, labels = data(EVAL_OFFSET + len(eval_batches))
        logits = model(x)
        loss = T.cross_entropy(logits, labels, IGNORE_INDEX).item()
        # the first batch's arrays are kept for the checks
        eval_batches.append((x, logits.data, labels, loss) if not eval_batches
                            else (None, None, None, loss))
        tally.ops()
        return int(x.lengths.sum())

    pacer = Pacer(evaluate_once)
    try:
        for _ in range(SETUP_REPEATS):
            t0 = _perf()
            model = AsrModel(enc_cfg, size["classes"], seed)
            opt = optim.Adam()
            x, labels = data(0)
            loss, warm_grads, warm_params = asr_step(model, opt, x, labels, lr)
            setup.append(import_s + _perf() - t0)
            losses.append(loss)
            tally.ops()

        phases = []
        index = 1
        for traced, share in zip((False, True), _phases(trace, TRAIN_SHARE * seconds)):
            durations, step_frames = [], []
            while len(durations) < MIN_STEPS or sum(durations) < share:
                if not traced:
                    pacer.train_s = sum(durations)
                    pacer.catch_up()
                t0 = _perf()
                if traced:
                    tracer.begin_step()
                    idx = tracer.open("tasks.generate")
                x, labels = data(index)
                if traced:
                    tracer.close(idx)
                loss, _, _ = asr_step(model, opt, x, labels, lr)
                if traced:
                    tracer.end_step()
                durations.append(_perf() - t0)
                step_frames.append(int(x.lengths.sum()))
                losses.append(loss)
                index += 1
                tally.ops()
            phases.append((durations, step_frames))

        ckpt = work / "asr.bin"
        arrays = {f"model.{k}": t.data for k, t in model.named_params().items()}
        checkpoint.save_checkpoint(ckpt, arrays, {"kind": "perfbench-asr", "steps": index})
        checkpoint.load_checkpoint(ckpt)
        pacer.train_s = sum(phases[0][0])
        pacer.catch_up(minimum=MIN_EVALS)
    finally:
        if tracer is not None:
            tracer.uninstall()

    tally.check(checks.finite_losses, losses + [b[3] for b in eval_batches])
    x0, logits0, labels0, loss0 = eval_batches[0]
    tally.check(checks.eval_loss, [(logits0, labels0)], loss0, IGNORE_INDEX)
    probe = AsrModel(enc_cfg, size["classes"], seed)
    x, labels = data(0)

    def loss_at(arrays):
        probe.set_params({k: Tensor(v, requires_grad=True) for k, v in arrays.items()})
        return T.cross_entropy(probe(x), labels, IGNORE_INDEX).item()

    tally.check(checks.directional_fd, loss_at, warm_params, warm_grads, seed)
    tally.check(checks.scan_matches_conv, model, x0.length, seed)
    tally.check(checks.padding_contract, model.encoder, x0.data.data, x0.lengths)
    tally.check(checks.checkpoint_roundtrip, ckpt, arrays)

    (untraced, untraced_frames), *rest = phases
    if tracer is None:
        metrics = _end_to_end(setup, untraced, untraced_frames, pacer.times, pacer.frames)
    else:
        metrics = tracer.per_layer(_overhead(untraced, rest[0][0]), ckpt.stat().st_size)
    return tally, metrics, tracer


# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
        import_s: float, out_root: Path) -> dict:
    """Run one workload; returns the result object the benchmark prints."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    work = out_root / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "asr_stateformer":
            tally, metrics, tracer = run_asr(seed, seconds, trace, tiny, import_s, work)
        else:
            tally, metrics, tracer = run_echo(workload, seed, seconds, trace, tiny,
                                              import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        tracer.write(out_root / f"spans-{workload}-{seed}.jsonl")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
