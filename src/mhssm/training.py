"""Command-line trainer internals: config handling, training loop, evaluation.

The config is a flat JSON object; every key has a default (see DEFAULTS).
Metrics stream to ``metrics.csv`` with header ``step,epoch,lr,loss,acc,seconds``;
checkpoints use the binary container from :mod:`mhssm.checkpoint` and carry
model parameters, optimizer moments, and the dropout generator state, so a
resumed run reproduces the uninterrupted one bit for bit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import load_checkpoint, save_checkpoint
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, NumericsError
from .nn import Linear, Module
from .optim import Adam, LrSchedule, clip_grad_norm
from .seq import SeqBatch
from .tasks import IGNORE_INDEX, TaskSpec, generate_task
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


def load_config(source) -> dict:
    """Merge a config mapping or JSON file over the defaults."""
    if source is None:
        overrides = {}
    elif isinstance(source, dict):
        overrides = dict(source)
    else:
        try:
            overrides = json.loads(Path(source).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {source}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {source} is not valid JSON: {exc}") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {source} must hold a JSON object")
    unknown = set(overrides) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    cfg = dict(DEFAULTS)
    cfg.update(overrides)
    return cfg


def task_spec(cfg: dict) -> TaskSpec:
    spec = TaskSpec(kind=cfg["task"], seq_len=cfg["seq_len"], vocab=cfg["vocab"],
                    lag=cfg["lag"], num_markers=cfg["num_markers"], seed=cfg["seed"])
    spec.validate()
    return spec


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


def _restore_model(meta: dict, arrays: dict[str, np.ndarray]) -> tuple[TaskModel, dict]:
    cfg = load_config(meta.get("config", {}))
    model = TaskModel(cfg)
    params = model.named_params()
    updates = {}
    for name, tensor in params.items():
        key = f"model.{name}"
        if key not in arrays:
            raise ConfigError(f"checkpoint is missing parameter {name!r}")
        arr = arrays[key]
        if arr.shape != tensor.shape:
            raise ConfigError(
                f"checkpoint/config mismatch for {name!r}: "
                f"stored {arr.shape}, expected {tensor.shape}"
            )
        updates[name] = Tensor(arr, requires_grad=True, dtype=tensor.dtype)
    model.set_params(updates)
    return model, cfg


def _check_eval_batches(batches: int) -> None:
    if batches < 1:
        raise ConfigError(f"evaluation needs at least one batch, got {batches}")


def _eval_model(model: TaskModel, cfg: dict, batches: int) -> dict:
    """Deterministic, dropout-free evaluation on a held-out batch stream."""
    spec = model.spec
    total_loss = 0.0
    correct = 0
    count = 0
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


def train(config=None, out_dir=None, seed=None, resume=None) -> dict:
    """Run the training loop; returns paths and final metrics.

    ``config`` is a dict or JSON path merged over DEFAULTS. ``seed`` and
    ``out_dir`` override the corresponding config keys. ``resume`` restores
    model, optimizer and generator state from a checkpoint and continues.
    """
    cfg = load_config(config)
    _check_eval_batches(cfg["eval_batches"])
    if seed is not None:
        cfg["seed"] = int(seed)
    if out_dir is not None:
        cfg["out"] = str(out_dir)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    ckpt_path = out / "checkpoint.bin"

    opt = Adam()
    start_step = 0
    if resume is not None:
        arrays, meta = load_checkpoint(resume)
        if meta.get("kind") != "mhssm-train-state":
            raise ConfigError(f"{resume} is not a training checkpoint")
        stored_cfg = load_config(meta["config"])
        # loop controls may change across a resume; model/task/optimizer may not
        loop_keys = ("steps", "out", "eval_every", "eval_batches", "target_acc",
                     "checkpoint_every")
        overrides = {k: v for k, v in (config or {}).items()} if isinstance(config, dict) else {}
        for key, value in overrides.items():
            if key not in loop_keys and stored_cfg.get(key) != value:
                raise ConfigError(
                    f"checkpoint/config mismatch for {key!r}: "
                    f"stored {stored_cfg.get(key)!r}, requested {value!r}"
                )
        for key in loop_keys:
            stored_cfg[key] = cfg[key]
        cfg = stored_cfg
        model, _ = _restore_model(meta, arrays)
        opt.load_state(arrays, meta["adam_steps"])
        start_step = int(meta["step"])
        dropout_rng = np.random.default_rng(cfg["seed"] + 1)
        dropout_rng.bit_generator.state = meta["dropout_rng"]
    else:
        model = TaskModel(cfg)
        dropout_rng = np.random.default_rng(cfg["seed"] + 1)

    spec = model.spec
    schedule = LrSchedule(peak_lr=cfg["peak_lr"], warmup_steps=cfg["warmup_steps"],
                          hold_epochs=cfg["hold_epochs"], decay_factor=cfg["decay_factor"])
    dtype = np.dtype(cfg["dtype"])
    use_dropout = cfg["dropout"] > 0.0

    mode = "a" if (resume is not None and metrics_path.exists()) else "w"
    history: list[dict] = []
    eval_acc = None
    stopped_early = False
    with open(metrics_path, mode) as metrics:
        if mode == "w":
            metrics.write(METRICS_HEADER + "\n")
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
            tensor_grads = tape.gradients(loss)
            names = {id(t): name for name, t in params.items()}
            grads = {names[id(t)]: g for t, g in tensor_grads.items() if id(t) in names}
            clip_grad_norm(grads, cfg["clip_norm"])
            lr = schedule.lr_at(step, epoch)
            model.set_params(opt.step(params, grads, lr))
            acc = T.accuracy(logits.data, targets, IGNORE_INDEX)
            seconds = time.perf_counter() - t0
            metrics.write(f"{step},{epoch},{lr!r},{loss_val!r},{acc!r},{seconds:.3f}\n")
            history.append({"step": step, "epoch": epoch, "lr": lr,
                            "loss": loss_val, "acc": acc})
            if cfg["checkpoint_every"] > 0 and step % cfg["checkpoint_every"] == 0:
                _save_state(ckpt_path, model, opt, cfg, step, dropout_rng)
            if cfg["target_acc"] is not None and cfg["eval_every"] > 0 \
                    and step % cfg["eval_every"] == 0:
                eval_acc = _eval_model(model, cfg, cfg["eval_batches"])["accuracy"]
                if eval_acc >= cfg["target_acc"]:
                    stopped_early = True
                    break

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

    ``task`` optionally overrides the stored task (dict of TaskSpec fields);
    the input width must stay compatible with the stored model.
    """
    _check_eval_batches(batches)
    arrays, meta = load_checkpoint(checkpoint_path)
    if meta.get("kind") != "mhssm-train-state":
        raise ConfigError(f"{checkpoint_path} is not a training checkpoint")
    model, cfg = _restore_model(meta, arrays)
    if task:
        unknown = set(task) - {"kind", "seq_len", "vocab", "lag", "num_markers", "seed"}
        if unknown:
            raise ConfigError(f"unknown task keys: {sorted(unknown)}")
        merged = TaskSpec(
            kind=task.get("kind", model.spec.kind),
            seq_len=task.get("seq_len", model.spec.seq_len),
            vocab=task.get("vocab", model.spec.vocab),
            lag=task.get("lag", model.spec.lag),
            num_markers=task.get("num_markers", model.spec.num_markers),
            seed=task.get("seed", model.spec.seed),
        )
        merged.validate()
        if merged.input_dim != model.spec.input_dim or merged.vocab != model.spec.vocab:
            raise ConfigError(
                "checkpoint/task mismatch: stored model expects "
                f"{model.spec.input_dim}-dim inputs over a {model.spec.vocab}-token vocabulary"
            )
        model.spec = merged
    report = _eval_model(model, cfg, batches)
    report["checkpoint"] = str(checkpoint_path)
    report["task"] = {
        "kind": model.spec.kind, "seq_len": model.spec.seq_len,
        "vocab": model.spec.vocab, "lag": model.spec.lag,
        "num_markers": model.spec.num_markers, "seed": model.spec.seed,
    }
    return report
