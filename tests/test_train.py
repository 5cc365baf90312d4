import json
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import mhssm
from mhssm import blocks
from mhssm import tensor as T
from mhssm.errors import ConfigError, NumericsError
from mhssm.optim import Adam, LrSchedule, clip_grad_norm
from mhssm.tasks import IGNORE_INDEX, TaskSpec, generate_task
from mhssm.tensor import GradTape, Tensor
from mhssm.training import (DEFAULTS, METRICS_HEADER, TaskModel, evaluate,
                            load_config, train)

from hooks import dtype_leaks, fft_ssm_conv_projected, subprocess_env
from oracles import ScalarAdam

DATA = Path(__file__).parent / "data"

TINY = {
    "task": "delayed_echo", "seq_len": 32, "vocab": 4, "lag": 4,
    "model_dim": 16, "num_layers": 1, "heads": 2, "stack": 1, "state_dim": 4,
    "ffn_dim": 32, "attn_heads": 2, "batch": 4, "steps": 12,
    "steps_per_epoch": 5, "warmup_steps": 5, "checkpoint_every": 6,
    "eval_every": 0, "eval_batches": 2, "seed": 3,
}


class TestTasks:
    def test_delayed_echo_zero_lag_is_identity(self):
        spec = TaskSpec(kind="delayed_echo", seq_len=8, vocab=4, lag=0, seed=1)
        x, targets = generate_task(spec, batch=2)
        tokens = x.data.data.argmax(axis=-1)
        np.testing.assert_array_equal(targets, tokens)

    def test_delayed_echo_lag_two(self):
        spec = TaskSpec(kind="delayed_echo", seq_len=4, vocab=8, lag=2, seed=2)
        x, targets = generate_task(spec, batch=1)
        tokens = x.data.data.argmax(axis=-1)[0]
        np.testing.assert_array_equal(targets[0, :2], [IGNORE_INDEX, IGNORE_INDEX])
        np.testing.assert_array_equal(targets[0, 2:], tokens[:2])

    def test_selective_copy_against_loop(self):
        spec = TaskSpec(kind="selective_copy", seq_len=24, vocab=5,
                        num_markers=4, seed=3)
        x, targets = generate_task(spec, batch=3)
        data = x.data.data
        assert data.shape == (3, 24, 6)
        for b in range(3):
            tokens = data[b, :, :5].argmax(axis=-1)
            flags = data[b, :, 5]
            marked = [tokens[t] for t in range(24) if flags[t] == 1.0]
            assert len(marked) == 4
            np.testing.assert_array_equal(targets[b, :20], np.full(20, IGNORE_INDEX))
            np.testing.assert_array_equal(targets[b, 20:], marked)

    def test_deterministic_per_seed_and_index(self):
        spec = TaskSpec(seq_len=16, vocab=4, lag=2, seed=9)
        a, ta = generate_task(spec, batch=2, batch_index=5)
        b, tb = generate_task(spec, batch=2, batch_index=5)
        np.testing.assert_array_equal(a.data.data, b.data.data)
        np.testing.assert_array_equal(ta, tb)
        c, _ = generate_task(spec, batch=2, batch_index=6)
        assert np.abs(a.data.data - c.data.data).max() > 0

    def test_invalid_specs(self):
        with pytest.raises(ConfigError):
            TaskSpec(kind="delayed_echo", seq_len=8, lag=8).validate()
        with pytest.raises(ConfigError):
            TaskSpec(vocab=1).validate()
        with pytest.raises(ConfigError):
            TaskSpec(kind="reverse").validate()


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        opt = Adam()
        p = {"w": Tensor([1.0, -2.0], requires_grad=True)}
        g = {"w": np.zeros(2)}
        out = opt.step(p, g, lr=0.1)
        np.testing.assert_array_equal(out["w"].data, p["w"].data)

    def test_first_step_magnitude_is_lr(self):
        opt = Adam()
        p = {"w": Tensor([0.0], requires_grad=True)}
        out = opt.step(p, {"w": np.array([3.7])}, lr=0.05)
        assert out["w"].data[0] == pytest.approx(-0.05, rel=1e-6)

    def test_hundred_steps_match_scalar_oracle(self):
        opt = Adam()
        oracle = ScalarAdam(lr=0.02)
        x_lib = Tensor([1.5], requires_grad=True)
        x_ref = 1.5
        for _ in range(100):
            g = 2.0 * x_ref  # gradient of x^2, evaluated at the oracle point
            params = {"x": x_lib}
            x_lib = opt.step(params, {"x": np.array([2.0 * x_lib.data[0]])}, lr=0.02)["x"]
            x_ref = oracle.step(x_ref, g)
        assert abs(x_lib.data[0] - x_ref) <= 1e-10

    def test_non_finite_gradient_names_parameter(self):
        opt = Adam()
        p = {"encoder.layers.0.w": Tensor([1.0], requires_grad=True)}
        with pytest.raises(NumericsError, match="encoder.layers.0.w"):
            opt.step(p, {"encoder.layers.0.w": np.array([np.nan])}, lr=0.1)

    def test_clip_grad_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        norm = clip_grad_norm(grads, 1.0)
        assert norm == pytest.approx(5.0)
        total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        assert total == pytest.approx(1.0)


class TestSchedule:
    def test_peak_reached_exactly_at_warmup(self):
        s = LrSchedule(peak_lr=2e-3, warmup_steps=100)
        assert s.lr_at(100, 0) == pytest.approx(2e-3)

    def test_linear_at_half_warmup(self):
        s = LrSchedule(peak_lr=2e-3, warmup_steps=100)
        assert s.lr_at(50, 0) == pytest.approx(1e-3)

    def test_decay_three_epochs_past_hold(self):
        s = LrSchedule(peak_lr=1e-3, warmup_steps=10, hold_epochs=10, decay_factor=0.96)
        assert s.lr_at(10_000, 13) == pytest.approx(1e-3 * 0.96 ** 3)

    def test_continuous_at_warmup_boundary(self):
        s = LrSchedule(peak_lr=1e-3, warmup_steps=200)
        assert abs(s.lr_at(199, 0) - s.lr_at(200, 0)) <= 1e-3 / 200 + 1e-15

    def test_monotone_after_hold(self):
        s = LrSchedule(peak_lr=1e-3, warmup_steps=10, hold_epochs=5)
        values = [s.lr_at(1000, e) for e in range(5, 40)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_step_must_be_positive(self):
        with pytest.raises(ValueError):
            LrSchedule().lr_at(0, 0)


class TestConfig:
    def test_defaults_complete(self):
        cfg = load_config(None)
        assert cfg == DEFAULTS

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            load_config({"learning_rate": 1.0})

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.json")

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": 7, "vocab": 5}))
        cfg = load_config(path)
        assert cfg["steps"] == 7 and cfg["vocab"] == 5
        assert cfg["batch"] == DEFAULTS["batch"]


@pytest.mark.parametrize("kind", ["mh_ssm", "transformer", "stateformer"])
def test_overfit_single_batch(kind):
    cfg = load_config({**TINY, "block": kind, "seed": 5})
    model = TaskModel(cfg)
    x, targets = generate_task(model.spec, batch=4, batch_index=0)
    opt = Adam()
    schedule = LrSchedule(peak_lr=3e-3, warmup_steps=50)
    loss_val = None
    for step in range(1, 2001):
        with GradTape() as tape:
            logits = model(x)
            loss = T.cross_entropy(logits, targets, IGNORE_INDEX)
        loss_val = loss.item()
        if loss_val < 0.01:
            break
        params = model.named_params()
        by_tensor = tape.gradients(loss)
        grads = {name: by_tensor[t] for name, t in params.items() if t in by_tensor}
        clip_grad_norm(grads, 1.0)
        model.set_params(opt.step(params, grads, schedule.lr_at(step, 0)))
    assert loss_val < 0.01, f"{kind} failed to memorize one batch: loss {loss_val}"


class TestTrainLoop:
    def test_untrained_model_is_at_chance(self):
        cfg = load_config({**TINY, "vocab": 8, "seq_len": 64, "lag": 8,
                           "batch": 16, "steps": 1})
        model = TaskModel(cfg)
        hits, count = 0, 0
        for i in range(8):
            x, targets = generate_task(model.spec, 16, 1000 + i)
            logits = model(x)
            valid = targets != IGNORE_INDEX
            hits += int((logits.data.argmax(-1) == targets)[valid].sum())
            count += int(valid.sum())
        assert abs(hits / count - 1 / 8) <= 0.05

    def test_metrics_header_and_rows(self, tmp_path):
        result = train(dict(TINY), out_dir=tmp_path / "run")
        lines = open(result["metrics_path"]).read().strip().splitlines()
        assert lines[0] == METRICS_HEADER
        assert len(lines) == 1 + TINY["steps"]
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"

    def test_two_runs_bitwise_identical(self, tmp_path):
        r1 = train(dict(TINY), out_dir=tmp_path / "a")
        r2 = train(dict(TINY), out_dir=tmp_path / "b")
        rows1 = [r.rsplit(",", 1)[0] for r in open(r1["metrics_path"])]
        rows2 = [r.rsplit(",", 1)[0] for r in open(r2["metrics_path"])]
        assert rows1 == rows2

    def test_resume_reproduces_next_step_bitwise(self, tmp_path):
        full = train({**TINY, "steps": 8, "checkpoint_every": 6},
                     out_dir=tmp_path / "full")
        part = train({**TINY, "steps": 6, "checkpoint_every": 6},
                     out_dir=tmp_path / "part")
        resumed = train({**TINY, "steps": 8, "checkpoint_every": 6},
                        out_dir=tmp_path / "resumed",
                        resume=part["checkpoint_path"])
        full_rows = [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]
        res_rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        assert res_rows[-2:] == full_rows[-2:]

    def test_resume_in_place_logs_each_step_once(self, tmp_path, monkeypatch):
        # a run stopped after step 5 has logged steps 4 and 5, but its last
        # checkpoint holds step 3; the resume must not log them twice
        from mhssm import training
        cfg = {**TINY, "steps": 8, "checkpoint_every": 3}
        full = train(dict(cfg), out_dir=tmp_path / "full")
        real_generate = training.generate_task

        def generate_until_step_5(spec, batch, index, **kwargs):
            if index == 5:
                raise KeyboardInterrupt
            return real_generate(spec, batch, index, **kwargs)

        monkeypatch.setattr(training, "generate_task", generate_until_step_5)
        with pytest.raises(KeyboardInterrupt):
            train(dict(cfg), out_dir=tmp_path / "run")
        monkeypatch.undo()
        run = tmp_path / "run"
        logged = [r.split(",")[0] for r in open(run / "metrics.csv")][1:]
        assert logged == ["1", "2", "3", "4", "5"]
        resumed = train(dict(cfg), out_dir=run, resume=run / "checkpoint.bin")
        rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        assert [r.split(",")[0] for r in rows[1:]] == [str(s) for s in range(1, 9)]
        assert rows == [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]

    def test_resume_in_place_of_a_resumed_run(self, tmp_path, monkeypatch):
        # a run resumed from step 3 into a fresh directory logs from step 4;
        # stopped after step 7 with its checkpoint at step 6, it resumes in place
        from mhssm import training
        cfg = {**TINY, "steps": 10, "checkpoint_every": 3}
        full = train(dict(cfg), out_dir=tmp_path / "full")
        part = train({**cfg, "steps": 3}, out_dir=tmp_path / "part")
        real_generate = training.generate_task

        def generate_until_step_7(spec, batch, index, **kwargs):
            if index == 7:
                raise KeyboardInterrupt
            return real_generate(spec, batch, index, **kwargs)

        monkeypatch.setattr(training, "generate_task", generate_until_step_7)
        run = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            train(dict(cfg), out_dir=run, resume=part["checkpoint_path"])
        monkeypatch.undo()
        logged = [r.split(",")[0] for r in open(run / "metrics.csv")][1:]
        assert logged == ["4", "5", "6", "7"]
        resumed = train(dict(cfg), out_dir=run, resume=run / "checkpoint.bin")
        rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        full_rows = [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]
        assert rows == full_rows[:1] + full_rows[4:]

    def test_rows_are_on_disk_at_each_save(self, tmp_path, monkeypatch):
        # a kill right after a save must find every step the checkpoint holds
        # logged on disk, or a resume would lose those rows for good
        from mhssm import training
        real_save = training.save_checkpoint
        seen = []

        def save(path, arrays, meta):
            rows = (tmp_path / "run" / "metrics.csv").read_text().splitlines()[1:]
            seen.append((meta["step"], [r.split(",")[0] for r in rows]))
            return real_save(path, arrays, meta)

        monkeypatch.setattr(training, "save_checkpoint", save)
        train({**TINY, "checkpoint_every": 3}, out_dir=tmp_path / "run")
        assert [step for step, _ in seen] == [3, 6, 9, 12, 12]
        for step, logged in seen:
            assert logged == [str(k) for k in range(1, step + 1)], step

    @pytest.mark.parametrize("damage", ["gap", "torn"])
    def test_resume_refuses_a_missing_or_torn_row(self, damage, tmp_path):
        run = tmp_path / "run"
        train({**TINY, "steps": 6, "checkpoint_every": 6}, out_dir=run)
        lines = (run / "metrics.csv").read_text().splitlines(keepends=True)
        lines[4] = "" if damage == "gap" else "4,0,2.4e-05,2.4188657261766386,0.1071\n"
        damaged = "".join(lines)
        (run / "metrics.csv").write_text(damaged)
        with pytest.raises(ConfigError, match="row for step 4"):
            train({**TINY, "steps": 8}, out_dir=run, resume=run / "checkpoint.bin")
        assert (run / "metrics.csv").read_text() == damaged

    def test_resume_drops_a_torn_row_past_the_checkpoint(self, tmp_path):
        cfg = {**TINY, "steps": 8, "checkpoint_every": 6}
        full = train(dict(cfg), out_dir=tmp_path / "full")
        run = tmp_path / "run"
        train({**cfg, "steps": 6}, out_dir=run)
        with open(run / "metrics.csv", "a") as metrics:
            metrics.write("7,1,0.0002,2.41")
        resumed = train(dict(cfg), out_dir=run, resume=run / "checkpoint.bin")
        rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        assert rows == [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]

    def test_checkpoint_evaluation_roundtrip(self, tmp_path):
        result = train(dict(TINY), out_dir=tmp_path / "run")
        a = evaluate(result["checkpoint_path"], batches=2)
        b = evaluate(result["checkpoint_path"], batches=2)
        assert a["loss"] == b["loss"] and a["accuracy"] == b["accuracy"]

    def test_evaluate_with_task_override(self, tmp_path):
        result = train(dict(TINY), out_dir=tmp_path / "run")
        report = evaluate(result["checkpoint_path"],
                          task={"lag": 6, "seed": 123}, batches=1)
        assert report["task"]["lag"] == 6

    def test_evaluate_rejects_incompatible_task(self, tmp_path):
        result = train(dict(TINY), out_dir=tmp_path / "run")
        with pytest.raises(ConfigError, match="mismatch"):
            evaluate(result["checkpoint_path"], task={"vocab": 11})

    def test_resume_rejects_changed_model(self, tmp_path):
        part = train(dict(TINY), out_dir=tmp_path / "part")
        with pytest.raises(ConfigError, match="mismatch"):
            train({**TINY, "model_dim": 32}, out_dir=tmp_path / "later",
                  resume=part["checkpoint_path"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_numerics_error(self, tmp_path):
        cfg = {**TINY, "peak_lr": 1e30, "warmup_steps": 1, "steps": 30,
               "clip_norm": 0.0}
        with pytest.raises(NumericsError):
            train(cfg, out_dir=tmp_path / "blowup")

    def test_selective_copy_beats_chance_floor(self, tmp_path):
        # uniform targets put the content-free loss floor at log(vocab); going
        # clearly below it requires carrying the marked symbols across the gap
        cfg = {"task": "selective_copy", "seq_len": 64, "vocab": 6,
               "num_markers": 3, "batch": 16, "steps": 600,
               "warmup_steps": 150, "peak_lr": 3e-3, "model_dim": 64,
               "state_dim": 16, "heads": 4, "stack": 2, "ffn_dim": 128,
               "num_layers": 2, "steps_per_epoch": 1000,
               "checkpoint_every": 0, "eval_every": 0, "seed": 3}
        result = train(cfg, out_dir=tmp_path / "copy")
        losses = [h["loss"] for h in result["history"]]
        assert np.mean(losses[-50:]) < 1.55 < np.log(6)

    def test_step_tape_released_before_checkpoint(self, tmp_path, monkeypatch):
        # a step's activations are not read once its gradients exist, so the
        # tape must not stay alive through the optimizer step, the checkpoint
        # save and any evaluation before the next step
        from mhssm import training
        tapes = []

        class RecordingTape(GradTape):
            def __init__(self):
                super().__init__()
                tapes.append(weakref.ref(self))

        alive_at_save = []
        real_save = training.save_checkpoint

        def save(*args, **kwargs):
            alive_at_save.append(sum(ref() is not None for ref in tapes))
            return real_save(*args, **kwargs)

        monkeypatch.setattr(training, "GradTape", RecordingTape)
        monkeypatch.setattr(training, "save_checkpoint", save)
        train({**TINY, "steps": 3, "checkpoint_every": 1}, out_dir=tmp_path / "run")
        assert alive_at_save == [0, 0, 0, 0]

    @pytest.mark.parametrize("block", ["mh_ssm", "stateformer"])
    def test_clip_norm_ignores_how_nodes_list_their_inputs(self, block, tmp_path,
                                                          monkeypatch):
        # the trainer names the gradients in module order, so the order in
        # which a node lists its inputs on the tape cannot reach the norm's sum
        from mhssm import training
        cfg = {**TINY, "block": block, "steps": 4}
        record_op = T.record_op

        def run(name):
            keys, norms = [], []

            def clip(grads, max_norm):
                keys.append(list(grads))
                norms.append(clip_grad_norm(grads, max_norm))
                return norms[-1]

            monkeypatch.setattr(training, "clip_grad_norm", clip)
            train(cfg, out_dir=tmp_path / name)
            return keys, norms

        keys, norms = run("listed")
        monkeypatch.setattr(T, "record_op", lambda output, inputs, bwd:
                            record_op(output, tuple(inputs)[::-1], bwd))
        reversed_keys, reversed_norms = run("reversed")
        order = list(TaskModel(load_config(cfg)).named_params())
        assert keys == reversed_keys == [order] * cfg["steps"]
        assert reversed_norms == norms

    def test_resume_allows_changed_loop_controls(self, tmp_path):
        part = train(dict(TINY), out_dir=tmp_path / "part")
        more = train({**TINY, "steps": 16, "eval_every": 2, "eval_batches": 1,
                      "target_acc": None},
                     out_dir=tmp_path / "more", resume=part["checkpoint_path"])
        assert more["steps_run"] == 16

    def test_float32_training_flag(self, tmp_path):
        result = train({**TINY, "dtype": "float32", "steps": 6},
                       out_dir=tmp_path / "f32")
        assert np.isfinite(result["final_eval"]["loss"])
        arrays, _ = mhssm.load_checkpoint(result["checkpoint_path"])
        model_arrays = [a for k, a in arrays.items() if k.startswith("model.")]
        assert all(a.dtype == np.float32 for a in model_arrays)

    def test_float32_model_computes_in_float32(self):
        model = TaskModel({**DEFAULTS, **TINY, "dtype": "float32"})
        x, targets = generate_task(model.spec, 2, 0, dtype=np.float32)
        with dtype_leaks(np.float32) as leaks:
            with GradTape() as tape:
                logits = model(x)
                loss = T.cross_entropy(logits, targets, IGNORE_INDEX)
            grads = tape.gradients(loss)
        assert leaks == []
        assert logits.dtype == np.float32 and loss.dtype == np.float32
        assert all(g.dtype == np.float32 for g in grads.values())

    def test_float32_dropout_resume_bitwise(self, tmp_path):
        cfg = {**TINY, "dtype": "float32", "dropout": 0.2, "checkpoint_every": 6}
        full = train(dict(cfg), out_dir=tmp_path / "full")
        part = train({**cfg, "steps": 6}, out_dir=tmp_path / "part")
        resumed = train(dict(cfg), out_dir=tmp_path / "resumed",
                        resume=part["checkpoint_path"])
        full_rows = [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]
        res_rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        assert res_rows[-2:] == full_rows[-2:]

    def test_loss_trend_guard(self, tmp_path):
        cfg = {**TINY, "seq_len": 64, "lag": 8, "vocab": 8, "batch": 8,
               "steps": 200, "warmup_steps": 50, "peak_lr": 3e-3,
               "checkpoint_every": 0, "model_dim": 32, "state_dim": 8}
        result = train(cfg, out_dir=tmp_path / "trend")
        losses = [h["loss"] for h in result["history"]]
        window = 50
        ma = [np.mean(losses[i:i + window]) for i in range(0, len(losses) - window)]
        upticks = max(b - a for a, b in zip(ma, ma[1:]))
        assert ma[-1] < ma[0]
        assert upticks <= 0.1 * ma[0]


# a `mhssm train` child that kills itself with SIGKILL, at a point fixed by
# wrapping ``save_checkpoint``: right after its k-th save ("after"), or
# between the row of the k-th save's step and that save ("before")
_KILLED_TRAIN = """
import os, signal, sys
from mhssm import cli, training

k, when = int(sys.argv[1]), sys.argv[2]
real_save = training.save_checkpoint
saved = []


def save(path, arrays, meta):
    if when == "before" and len(saved) + 1 == k:
        os.kill(os.getpid(), signal.SIGKILL)
    real_save(path, arrays, meta)
    saved.append(meta["step"])
    if when == "after" and len(saved) == k:
        os.kill(os.getpid(), signal.SIGKILL)


training.save_checkpoint = save
sys.exit(cli.main(sys.argv[3:]))
"""


class TestKilledRun:
    """A run killed with SIGKILL resumes in place to the rows and the final
    checkpoint of a run that was never stopped."""

    @pytest.mark.parametrize("k,when", [(2, "after"), (3, "before")])
    def test_resume_after_sigkill_matches_an_uninterrupted_run(self, k, when, tmp_path):
        from mhssm.checkpoint import load_checkpoint
        cfg = {**TINY, "checkpoint_every": 3}
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        full = train(dict(cfg), out_dir=tmp_path / "full")
        run = tmp_path / "run"
        proc = subprocess.run([sys.executable, "-c", _KILLED_TRAIN, str(k), when, "train",
                               "--config", str(config), "--out", str(run)],
                              capture_output=True, text=True, timeout=600, env=subprocess_env())
        assert proc.returncode == -9, proc.stdout + proc.stderr
        # the checkpoint holds step 3k, or 3(k-1) when killed before its save
        held = 3 * k if when == "after" else 3 * (k - 1)
        assert load_checkpoint(run / "checkpoint.bin")[1]["step"] == held
        logged = [r.split(",")[0] for r in open(run / "metrics.csv")][1:]
        assert logged == [str(s) for s in range(1, 3 * k + 1)]
        resumed = train(dict(cfg), out_dir=run, resume=run / "checkpoint.bin")
        rows = [r.rsplit(",", 1)[0] for r in open(resumed["metrics_path"])]
        assert rows == [r.rsplit(",", 1)[0] for r in open(full["metrics_path"])]
        arrays, meta = load_checkpoint(run / "checkpoint.bin")
        want_arrays, want_meta = load_checkpoint(full["checkpoint_path"])
        assert arrays.keys() == want_arrays.keys()
        for name, value in arrays.items():
            assert value.dtype == want_arrays[name].dtype, name
            np.testing.assert_array_equal(value, want_arrays[name], err_msg=name)
        for stored in (meta, want_meta):
            del stored["config"]["out"]
        assert meta == want_meta


class TestLegacyCheckpoints:
    """Checkpoints from the per-head stage layout (``ihg``, ``glu``) and from
    stateformer layers that nested attention and feed-forward under
    ``inner`` (``stateformer``); see data/make_legacy_checkpoints.py."""

    @pytest.mark.parametrize("gating", ["ihg", "glu"])
    def test_evaluates_to_recorded_values(self, gating, monkeypatch):
        # recorded while the model convolved by FFT: through that reference
        # path they hold exactly, and through the chunked node within 1e-12
        want = json.loads((DATA / "legacy_evals.json").read_text())[gating]
        report = evaluate(DATA / f"legacy_{gating}.bin", batches=2)
        assert report["loss"] == pytest.approx(want["loss"], rel=1e-12)
        assert report["accuracy"] == pytest.approx(want["accuracy"], rel=1e-12)
        monkeypatch.setattr(blocks, "ssm_conv_projected", fft_ssm_conv_projected)
        report = evaluate(DATA / f"legacy_{gating}.bin", batches=2)
        assert report["loss"] == want["loss"]
        assert report["accuracy"] == want["accuracy"]

    def test_stateformer_evaluates_to_recorded_values_exactly(self):
        want = json.loads((DATA / "legacy_evals.json").read_text())["stateformer"]
        report = evaluate(DATA / "legacy_stateformer.bin", batches=2)
        assert report["loss"] == want["loss"]
        assert report["accuracy"] == want["accuracy"]

    @pytest.mark.parametrize("case", ["ihg", "glu", "stateformer"])
    def test_resumes_with_merged_names(self, case, tmp_path):
        result = train({"steps": 8}, out_dir=tmp_path / "more",
                       resume=DATA / f"legacy_{case}.bin")
        assert [h["step"] for h in result["history"]] == [7, 8]
        assert np.isfinite(result["final_eval"]["loss"])
        arrays, _ = mhssm.load_checkpoint(result["checkpoint_path"])
        model = {k[len("model."):] for k in arrays if k.startswith("model.")}
        assert not any(".ssms." in k or ".glu_proj." in k or ".inner." in k for k in model)
        for moment in ("adam.m.", "adam.v."):
            assert {k[len(moment):] for k in arrays if k.startswith(moment)} == model


# Five training steps of a small config in a fresh process on one BLAS
# thread; prints the minor page faults each step took.
_FAULT_SCRIPT = """
import json, resource
from mhssm import tensor as T
from mhssm.optim import Adam, clip_grad_norm
from mhssm.tasks import IGNORE_INDEX, generate_task
from mhssm.tensor import GradTape
from mhssm.training import TaskModel, load_config

cfg = load_config({"batch": 4, "seq_len": 128, "lag": 16})
model, opt, faults = TaskModel(cfg), Adam(), []
for step in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    x, targets = generate_task(model.spec, cfg["batch"], step)
    with GradTape() as tape:
        loss = T.cross_entropy(model(x), targets, IGNORE_INDEX)
    params = model.named_params()
    by_tensor = tape.gradients(loss)
    grads = {name: by_tensor[t] for name, t in params.items() if t in by_tensor}
    del tape, by_tensor
    clip_grad_norm(grads, cfg["clip_norm"])
    model.set_params(opt.step(params, grads, 1e-3))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is glibc-only")
def test_warm_training_steps_take_no_page_faults():
    # freed step memory stays in the heap, so once two steps have sized it
    # the next ones reuse its pages instead of faulting fresh ones in. Without
    # the heap policy every step here takes about 5,000 minor faults; with it,
    # fragmentation still lifts the heap's high-water mark by up to ~160 pages
    # on some warm steps, hence the bound of 1,000
    env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                         MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert all(n < 1000 for n in faults[2:]), f"minor page faults per step: {faults}"


# Five one-batch evaluations of a stored default-config model in a fresh
# process that never opens a tape; prints the minor page faults each took.
_EVAL_FAULT_SCRIPT = """
import json, resource, sys
from mhssm.training import evaluate

faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate(sys.argv[1], batches=1)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is glibc-only")
def test_warm_evaluations_take_no_page_faults(tmp_path):
    # evaluation sets the heap policy itself: without it every default-config
    # forward after the first takes about 16,000 minor faults; with it, about 10
    ckpt = train({"steps": 0, "eval_batches": 1}, out_dir=tmp_path)["checkpoint_path"]
    env = subprocess_env(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                         MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _EVAL_FAULT_SCRIPT, ckpt], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = json.loads(proc.stdout.splitlines()[-1])
    assert all(n < 1000 for n in faults[1:]), f"minor page faults per evaluation: {faults}"
