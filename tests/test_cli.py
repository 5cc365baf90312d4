import json
import subprocess
import sys

import pytest

from mhssm.cli import main

CFG = {
    "task": "delayed_echo", "seq_len": 32, "vocab": 4, "lag": 4,
    "model_dim": 16, "num_layers": 1, "heads": 2, "stack": 1, "state_dim": 4,
    "ffn_dim": 32, "batch": 4, "steps": 8, "steps_per_epoch": 5,
    "warmup_steps": 5, "checkpoint_every": 4, "eval_every": 0, "seed": 1,
}


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CFG))
    return path


def test_train_writes_metrics_and_checkpoint(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["steps_run"] == 8
    assert (out / "metrics.csv").exists()
    assert (out / "checkpoint.bin").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "step,epoch,lr,loss,acc,seconds"


def test_evaluate_inline_task(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    code = main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--task", json.dumps({"lag": 5}), "--batches", "1"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["task"]["lag"] == 5
    assert 0.0 <= report["accuracy"] <= 1.0


def test_evaluate_task_file(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    task_file = tmp_path / "task.json"
    task_file.write_text(json.dumps({"seed": 77}))
    assert main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--task", str(task_file), "--batches", "1"]) == 0


def test_params_table(cfg_file, capsys):
    assert main(["params", "--config", str(cfg_file)]) == 0
    out = capsys.readouterr().out
    assert "total" in out and "frontend" in out


def test_seed_flag_changes_run(cfg_file, tmp_path, capsys):
    main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "s1"),
          "--seed", "1"])
    main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "s2"),
          "--seed", "2"])
    capsys.readouterr()
    rows1 = (tmp_path / "s1" / "metrics.csv").read_text()
    rows2 = (tmp_path / "s2" / "metrics.csv").read_text()
    assert rows1 != rows2


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense_key": 1}))
    assert main(["train", "--config", str(bad)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_missing_checkpoint_exit_code(capsys):
    assert main(["evaluate", "--checkpoint", "/nope.bin"]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exit_code(tmp_path, capsys):
    cfg = dict(CFG, peak_lr=1e30, warmup_steps=1, steps=30, clip_norm=0.0)
    path = tmp_path / "explode.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "numerical abort" in capsys.readouterr().err


def test_console_entry_point(cfg_file, tmp_path):
    out = tmp_path / "run"
    proc = subprocess.run(
        [sys.executable, "-m", "mhssm.cli", "train", "--config", str(cfg_file),
         "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("batches", ["0", "-3"])
def test_evaluate_without_batches_is_config_error(cfg_file, tmp_path, capsys, batches):
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--batches", batches]) == 1
    assert "error:" in capsys.readouterr().err


def test_train_without_eval_batches_is_config_error(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CFG, eval_batches=0)))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run" / "metrics.csv").exists()
