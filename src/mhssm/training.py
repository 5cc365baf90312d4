"""Command-line trainer internals: config handling, training loop, evaluation.

The config is a flat JSON object; every key has a default (see DEFAULTS).
Metrics stream to ``metrics.csv`` with header ``step,epoch,lr,loss,acc,seconds``;
checkpoints use the binary container from :mod:`mhssm.checkpoint` and carry
model parameters, optimizer moments, and the dropout generator state, so a
resumed run reproduces the uninterrupted one bit for bit.

Checkpoints written when every head of a stage had its own parameter arrays
(``stages.j.ssms.<h>.<field>``, ``glu_proj.<h>.w``/``.b``) or when stateformer
layers nested attention and feed-forward under ``layers.i.inner.`` still load
and resume: right after loading, their arrays are merged into the whole-width
names (``stages.j.ssm.<field>``, ``glu_w``/``glu_b``) and renamed to
``layers.i.{attn,ffn}.``, for the model and both Adam moments. The container
bytes and ``checkpoint.VERSION`` are unchanged.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
import re
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from .blocks import GATINGS
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import BLOCK_KINDS, FRONTENDS, Encoder, EncoderConfig
from .errors import ConfigError, NumericsError
from .nn import Linear, Module
from .optim import Adam, LrSchedule, clip_grad_norm
from .seq import SeqBatch
from .tasks import IGNORE_INDEX, TASK_KINDS, TaskSpec, generate_task
from .tensor import GradTape, Tensor

METRICS_HEADER = "step,epoch,lr,loss,acc,seconds"

_EVAL_STREAM_OFFSET = 1_000_000

DEFAULTS: dict = {
    # task
    "task": "delayed_echo",
    "seq_len": 256,
    "vocab": 8,
    "lag": 32,
    "num_markers": 4,
    # model
    "frontend": "linear",
    "block": "mh_ssm",
    "model_dim": 64,
    "num_layers": 2,
    "heads": 4,
    "stack": 2,
    "state_dim": 16,
    "gating": "ihg",
    "attn_heads": 4,
    "ffn_dim": 256,
    "dropout": 0.0,
    "positional": None,
    # optimization
    "batch": 32,
    "steps": 1000,
    "steps_per_epoch": 100,
    "peak_lr": 3e-3,
    "warmup_steps": 500,
    "hold_epochs": 10,
    "decay_factor": 0.96,
    "clip_norm": 1.0,
    # bookkeeping
    "seed": 0,
    "dtype": "float64",
    "eval_every": 100,
    "eval_batches": 4,
    "target_acc": None,
    "checkpoint_every": 200,
    "out": "run",
}


def _config_overrides(source) -> dict:
    """The keys a config mapping or JSON file sets, as a new dict."""
    if source is None:
        return {}
    if isinstance(source, dict):
        return dict(source)
    try:
        overrides = json.loads(Path(source).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {source}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {source} is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ConfigError(f"config file {source} must hold a JSON object")
    return overrides


# the least value of each integer key
_INT_MIN = {
    "seq_len": 1, "vocab": 2, "lag": 0, "num_markers": 1, "model_dim": 1,
    "num_layers": 0, "heads": 1, "stack": 1, "state_dim": 1, "attn_heads": 1,
    "ffn_dim": 1, "batch": 1, "steps": 0, "steps_per_epoch": 1, "warmup_steps": 0,
    "hold_epochs": 0, "seed": 0, "eval_every": 0, "eval_batches": 1,
    "checkpoint_every": 0,
}

# the range of each real-valued key; None is allowed where the default is None
_REAL_RANGE = {
    "dropout": ("in [0, 1)", lambda v: 0.0 <= v < 1.0),
    "peak_lr": ("> 0", lambda v: v > 0.0),
    "decay_factor": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "clip_norm": (">= 0", lambda v: v >= 0.0),
    "target_acc": ("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
}

_CHOICES = {
    "task": TASK_KINDS, "frontend": FRONTENDS, "block": BLOCK_KINDS,
    "gating": GATINGS, "dtype": ("float64", "float32"),
}


def _check_value(key: str, value) -> None:
    """Raise ConfigError unless ``value`` has the type and range ``key`` needs."""
    if value is None and DEFAULTS[key] is None:
        return
    if key in _INT_MIN:
        if not isinstance(value, numbers.Integral) or isinstance(value, bool) \
                or value < _INT_MIN[key]:
            raise ConfigError(
                f"{key} must be an integer >= {_INT_MIN[key]}, got {value!r}")
    elif key in _REAL_RANGE:
        text, ok = _REAL_RANGE[key]
        if not isinstance(value, numbers.Real) or isinstance(value, bool) \
                or not math.isfinite(value) or not ok(value):
            raise ConfigError(f"{key} must be a number {text}, got {value!r}")
    elif key in _CHOICES:
        if value not in _CHOICES[key]:
            raise ConfigError(f"{key} must be one of {_CHOICES[key]}, got {value!r}")
    elif key == "positional":
        if not isinstance(value, bool):
            raise ConfigError(f"positional must be true, false or null, got {value!r}")
    elif key == "out":
        if not isinstance(value, str) or not value:
            raise ConfigError(f"out must be a non-empty path string, got {value!r}")


def load_config(source) -> dict:
    """Merge a config mapping or JSON file over the defaults.

    Every value is checked for its type and range, and the task and model
    built from the merged config are validated, so a bad config raises
    :class:`ConfigError` here, before anything is written.
    """
    overrides = _config_overrides(source)
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = {**DEFAULTS, **overrides}
    for key, value in cfg.items():
        _check_value(key, value)
    encoder_config(cfg, task_spec(cfg).input_dim)
    return cfg


def task_spec(cfg: dict) -> TaskSpec:
    spec = TaskSpec(kind=cfg["task"], seq_len=cfg["seq_len"], vocab=cfg["vocab"],
                    lag=cfg["lag"], num_markers=cfg["num_markers"], seed=cfg["seed"])
    spec.validate()
    return spec


def _check_token_frontend(cfg: dict) -> None:
    # every task scores one target per input frame, which the 4x-subsampling
    # frontends cannot produce
    if cfg["frontend"] != "linear":
        raise ConfigError(
            f"frontend {cfg['frontend']!r} subsamples frames 4x, but the token tasks "
            "score every input frame; use frontend 'linear'"
        )


def encoder_config(cfg: dict, input_dim: int) -> EncoderConfig:
    enc = EncoderConfig(
        frontend=cfg["frontend"], input_dim=input_dim, model_dim=cfg["model_dim"],
        num_layers=cfg["num_layers"], block_kind=cfg["block"],
        attn_heads=cfg["attn_heads"], ffn_dim=cfg["ffn_dim"], heads=cfg["heads"],
        stack=cfg["stack"], state_dim=cfg["state_dim"], gating=cfg["gating"],
        dropout=cfg["dropout"], positional=cfg["positional"], dtype=cfg["dtype"],
    )
    enc.validate()
    return enc


class TaskModel(Module):
    """Encoder plus a linear readout to task vocabulary logits."""

    def __init__(self, cfg: dict):
        self.spec = task_spec(cfg)
        enc_cfg = encoder_config(cfg, self.spec.input_dim)
        rng = np.random.Generator(np.random.PCG64(cfg["seed"]))
        self.encoder = Encoder(enc_cfg, seed=int(rng.integers(2**31)))
        self.readout = Linear(enc_cfg.model_dim, self.spec.vocab, rng,
                              dtype=enc_cfg.np_dtype)

    def __call__(self, x: SeqBatch, train_rng: np.random.Generator | None = None) -> Tensor:
        return self.readout(self.encoder(x, train_rng).data)


def _model_arrays(model: Module) -> dict[str, np.ndarray]:
    return {f"model.{name}": t.data for name, t in model.named_params().items()}


def _save_state(path, model: TaskModel, opt: Adam, cfg: dict, step: int,
                dropout_rng: np.random.Generator):
    arrays = _model_arrays(model)
    arrays.update(opt.state_arrays())
    meta = {
        "kind": "mhssm-train-state",
        "config": cfg,
        "step": step,
        "adam_steps": opt.step_count,
        "dropout_rng": dropout_rng.bit_generator.state,
    }
    save_checkpoint(path, arrays, meta)


# per-head names of the stage layout before heads were whole-width slices
_LEGACY_SSM = re.compile(r"^(.*\.stages\.\d+\.)ssms\.(\d+)\.(\w+)$")
_LEGACY_GLU = re.compile(r"^(.*\.stages\.\d+\.)glu_proj\.(\d+)\.([wb])$")
# stateformer layers that nested their transformer blocks under ``inner``
_LEGACY_INNER = re.compile(r"^(.*\.layers\.\d+\.)inner\.")


def _upgrade_arrays(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Rename the arrays of older checkpoints to the current layout.

    ``<stage>.ssms.<h>.<field>`` arrays concatenate on the channel axis into
    ``<stage>.ssm.<field>``; ``<stage>.glu_proj.<h>.w``/``.b`` stack into
    ``<stage>.glu_w``/``glu_b``; ``layers.<i>.inner.`` becomes
    ``layers.<i>.``. Applies under any prefix (model and Adam moments alike);
    current names pass through untouched, and a merged array takes the place
    of its first head.
    """
    out: dict = {}
    heads: dict[str, dict[int, np.ndarray]] = {}
    for key, arr in arrays.items():
        key = _LEGACY_INNER.sub(r"\1", key)
        if m := _LEGACY_SSM.match(key):
            name, join = f"{m[1]}ssm.{m[3]}", np.concatenate
        elif m := _LEGACY_GLU.match(key):
            name, join = f"{m[1]}glu_{m[3]}", np.stack
        else:
            out[key] = arr
            continue
        out.setdefault(name, join)          # holds the first head's place
        heads.setdefault(name, {})[int(m[2])] = arr
    for name, parts in heads.items():
        out[name] = out[name]([parts[h] for h in sorted(parts)])
    return out


def _load_train_state(path) -> tuple[dict, dict, dict]:
    """The upgraded arrays, checked config and checked metadata of a
    training checkpoint.

    Raises :class:`ConfigError` unless the metadata holds a config object
    that passes :func:`load_config`, integer ``step`` and ``adam_steps`` of
    at least 0, and a PCG64 state as ``dropout_rng``.
    """
    arrays, meta = load_checkpoint(path)
    if meta.get("kind") != "mhssm-train-state":
        raise ConfigError(f"{path} is not a training checkpoint")
    for key in ("config", "step", "adam_steps", "dropout_rng"):
        if key not in meta:
            raise ConfigError(f"{path}: checkpoint metadata lacks {key!r}")
    if not isinstance(meta["config"], dict):
        raise ConfigError(f"{path}: checkpoint metadata 'config' is not a JSON object")
    cfg = load_config(meta["config"])
    for key in ("step", "adam_steps"):
        value = meta[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ConfigError(
                f"{path}: checkpoint metadata {key!r} must be an integer >= 0, got {value!r}")
    try:
        np.random.PCG64(0).state = meta["dropout_rng"]
    except (TypeError, ValueError, KeyError, OverflowError):
        raise ConfigError(
            f"{path}: checkpoint metadata 'dropout_rng' is not a PCG64 state") from None
    return _upgrade_arrays(arrays), cfg, meta


def _restore_model(cfg: dict, arrays: dict[str, np.ndarray]) -> TaskModel:
    model = TaskModel(cfg)
    params = model.named_params()
    updates = {}
    for name, tensor in params.items():
        key = f"model.{name}"
        if key not in arrays:
            raise ConfigError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[key]
        if arr.shape != tensor.shape:
            raise ConfigError(f"checkpoint/config mismatch for {name!r}: "
                              f"stored {arr.shape}, expected {tensor.shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint parameter {name!r} holds a non-finite value")
        updates[name] = Tensor(arr, requires_grad=True, dtype=tensor.dtype)
    model.set_params(updates)
    return model


def _eval_model(model: TaskModel, cfg: dict, batches: int) -> dict:
    """Deterministic, dropout-free evaluation on a held-out batch stream."""
    spec = model.spec
    total_loss, correct, count = 0.0, 0, 0
    for i in range(batches):
        x, targets = generate_task(spec, cfg["batch"], _EVAL_STREAM_OFFSET + i,
                                   dtype=np.dtype(cfg["dtype"]))
        logits = model(x)
        valid = targets != IGNORE_INDEX
        n = int(valid.sum())
        loss = T.cross_entropy(logits, targets, IGNORE_INDEX)
        total_loss += loss.item() * n
        pred = logits.data.argmax(axis=-1)
        correct += int((pred == targets)[valid].sum())
        count += n
    return {
        "loss": total_loss / count,
        "accuracy": correct / count,
        "tokens": count,
        "batches": batches,
    }


def _metrics_through(path: Path, step: int) -> str:
    """The header and the rows of a metrics file up to and including ``step``.

    Rows are written every step but checkpoints only every
    ``checkpoint_every`` steps, so a run stopped in between has logged steps
    its checkpoint does not hold, the last perhaps torn; a resume rewrites
    the file with this text, so those steps are not logged twice. From the
    file's first row (step 1, or a resumed checkpoint's step + 1) through
    ``step``, a step without one whole row (six fields, then a newline) is a
    `ConfigError`: the rows are on disk before each save."""
    lines = path.read_text().split("\n")[1:-1]     # after the last newline: a torn row
    first = lines[0].split(",", 1)[0] if lines else str(step + 1)
    start = int(first) if first.isdigit() else 1    # no step in the first row: refused
    kept = lines[:max(0, step + 1 - start)]
    for want, line in zip(range(start, step + 1), kept + [""] * step):
        if line.count(",") != 5 or not line.startswith(f"{want},"):
            raise ConfigError(f"{path} has no whole row for step {want}, which the "
                              f"checkpoint at step {step} has already trained")
    return "\n".join([METRICS_HEADER] + kept) + "\n"


def train(config=None, out_dir=None, seed=None, resume=None) -> dict:
    """Run the training loop; returns paths and final metrics.

    ``config`` is a dict or JSON path merged over DEFAULTS. ``seed`` and
    ``out_dir`` override the corresponding config keys. ``resume`` restores
    model, optimizer and generator state from a checkpoint and continues;
    every non-loop key the config sets, from a dict or a file alike, and
    ``seed`` must match the stored config. A resume into the directory of
    the stopped run keeps its ``metrics.csv`` rows up to the checkpoint's
    step, refusing a file that lacks one, and drops the later ones.
    """
    overrides = _config_overrides(config)
    flags = {}
    if seed is not None:
        flags["seed"] = int(seed)
    if out_dir is not None:
        flags["out"] = str(out_dir)
    cfg = load_config({**overrides, **flags})
    _check_token_frontend(cfg)
    out = Path(cfg["out"])
    metrics_path = out / "metrics.csv"
    ckpt_path = out / "checkpoint.bin"

    opt = Adam()
    start_step = 0
    if resume is not None:
        arrays, stored_cfg, meta = _load_train_state(resume)
        # loop controls may change across a resume; model/task/optimizer may not
        loop_keys = ("steps", "out", "eval_every", "eval_batches", "target_acc",
                     "checkpoint_every")
        requested = dict(overrides)
        if seed is not None:
            requested["seed"] = int(seed)
        for key, value in requested.items():
            if key not in loop_keys and stored_cfg.get(key) != value:
                raise ConfigError(
                    f"checkpoint/config mismatch for {key!r}: "
                    f"stored {stored_cfg.get(key)!r}, requested {value!r}"
                )
        for key in loop_keys:
            stored_cfg[key] = cfg[key]
        cfg = stored_cfg
        model = _restore_model(cfg, arrays)
        opt.load_state(arrays, meta["adam_steps"])
        start_step = meta["step"]
        dropout_rng = np.random.default_rng(cfg["seed"] + 1)
        dropout_rng.bit_generator.state = meta["dropout_rng"]
    else:
        model = TaskModel(cfg)
        dropout_rng = np.random.default_rng(cfg["seed"] + 1)
    # only once a resume state has loaded and passed its checks, so a
    # refused resume leaves no directory behind
    out.mkdir(parents=True, exist_ok=True)

    spec = model.spec
    schedule = LrSchedule(peak_lr=cfg["peak_lr"], warmup_steps=cfg["warmup_steps"],
                          hold_epochs=cfg["hold_epochs"], decay_factor=cfg["decay_factor"])
    dtype = np.dtype(cfg["dtype"])
    use_dropout = cfg["dropout"] > 0.0

    if resume is not None and metrics_path.exists():
        logged = _metrics_through(metrics_path, start_step)
    else:
        logged = METRICS_HEADER + "\n"
    history: list[dict] = []
    eval_acc = None
    stopped_early = False
    # line-buffered, each row reaches the file as it is logged; fsynced before each save
    with open(metrics_path, "w", buffering=1) as metrics:
        metrics.write(logged)
        t0 = time.perf_counter()
        for step in range(start_step + 1, cfg["steps"] + 1):
            epoch = (step - 1) // cfg["steps_per_epoch"]
            x, targets = generate_task(spec, cfg["batch"], step - 1, dtype=dtype)
            with GradTape() as tape:
                logits = model(x, dropout_rng if use_dropout else None)
                loss = T.cross_entropy(logits, targets, IGNORE_INDEX)
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericsError(
                    f"loss became non-finite at step {step}; "
                    f"last good checkpoint retained at {ckpt_path}"
                )
            params = model.named_params()
            by_tensor = tape.gradients(loss)
            # nothing reads the step's activations again: free them before the
            # optimizer step, the checkpoint save and any evaluation
            del tape
            # in module order, so the clip norm's sum does not depend on the
            # order in which the tape met the parameters
            grads = {name: by_tensor[t] for name, t in params.items() if t in by_tensor}
            clip_grad_norm(grads, cfg["clip_norm"])
            lr = schedule.lr_at(step, epoch)
            model.set_params(opt.step(params, grads, lr))
            acc = T.accuracy(logits.data, targets, IGNORE_INDEX)
            seconds = time.perf_counter() - t0
            metrics.write(f"{step},{epoch},{lr!r},{loss_val!r},{acc!r},{seconds:.3f}\n")
            history.append({"step": step, "epoch": epoch, "lr": lr,
                            "loss": loss_val, "acc": acc})
            if cfg["checkpoint_every"] > 0 and step % cfg["checkpoint_every"] == 0:
                os.fsync(metrics.fileno())
                _save_state(ckpt_path, model, opt, cfg, step, dropout_rng)
            if cfg["target_acc"] is not None and cfg["eval_every"] > 0 \
                    and step % cfg["eval_every"] == 0:
                eval_acc = _eval_model(model, cfg, cfg["eval_batches"])["accuracy"]
                if eval_acc >= cfg["target_acc"]:
                    stopped_early = True
                    break
        os.fsync(metrics.fileno())

    final_step = history[-1]["step"] if history else start_step
    _save_state(ckpt_path, model, opt, cfg, final_step, dropout_rng)
    final_eval = _eval_model(model, cfg, cfg["eval_batches"])
    return {
        "config": cfg,
        "metrics_path": str(metrics_path),
        "checkpoint_path": str(ckpt_path),
        "steps_run": final_step,
        "stopped_early": stopped_early,
        "history": history,
        "final_eval": final_eval,
    }


def evaluate(checkpoint_path, task=None, batches: int = 8) -> dict:
    """Deterministic accuracy/loss report for a stored model.

    ``task`` optionally overrides the stored task (dict of TaskSpec fields,
    each checked like its config key, ``kind`` like ``task``); the input
    width must stay compatible with the stored model. A forward-only process
    keeps its heap as a training one does (see :mod:`mhssm.tensor`).
    """
    T._retain_heap()
    if batches < 1:
        raise ConfigError(f"evaluation needs at least one batch, got {batches}")
    arrays, cfg, _ = _load_train_state(checkpoint_path)
    model = _restore_model(cfg, arrays)
    if task:
        unknown = set(task) - {f.name for f in dataclasses.fields(TaskSpec)}
        if unknown:
            raise ConfigError(f"unknown task keys: {sorted(unknown)}")
        for key, value in task.items():
            _check_value("task" if key == "kind" else key, value)
        merged = dataclasses.replace(model.spec, **task)
        merged.validate()
        if merged.input_dim != model.spec.input_dim or merged.vocab != model.spec.vocab:
            raise ConfigError(
                "checkpoint/task mismatch: stored model expects "
                f"{model.spec.input_dim}-dim inputs over a {model.spec.vocab}-token vocabulary"
            )
        model.spec = merged
    report = _eval_model(model, cfg, batches)
    report["checkpoint"] = str(checkpoint_path)
    report["task"] = dataclasses.asdict(model.spec)
    return report
