import json
import subprocess
import sys

import pytest

from mhssm.checkpoint import load_checkpoint, save_checkpoint
from mhssm.cli import main
from mhssm.training import train

from hooks import subprocess_env

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
        capture_output=True, text=True, env=subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert (out / "metrics.csv").exists()


@pytest.mark.parametrize("task", [
    {"lag": "x"}, {"seq_len": 40.5}, {"seed": 1.5}, {"kind": "selective_copy", "num_markers": "2"},
], ids=["lag-str", "seq_len-float", "seed-float", "num_markers-str"])
def test_evaluate_with_bad_task_value_is_config_error(cfg_file, tmp_path, capsys, task):
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_file), "--out", str(out)])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(out / "checkpoint.bin"),
                 "--task", json.dumps(task), "--batches", "1"]) == 1
    assert "error:" in capsys.readouterr().err


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


@pytest.mark.parametrize("frontend", ["tr", "ms"])
def test_train_with_subsampling_frontend_is_config_error(tmp_path, capsys, frontend):
    # token tasks score every input frame; a 4x-subsampling frontend cannot
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"frontend": frontend, "seq_len": 64, "batch": 2, "lag": 4}))
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'linear'" in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_resume_with_config_file_rejects_changed_model(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps(dict(CFG, model_dim=32, steps=10)))
    capsys.readouterr()
    code = main(["train", "--config", str(wider), "--out", str(tmp_path / "more"),
                 "--resume", str(out / "checkpoint.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'model_dim'" in err


def test_resume_with_config_file_allows_loop_controls(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps(dict(CFG, steps=10)))
    capsys.readouterr()
    assert main(["train", "--config", str(longer), "--out", str(tmp_path / "more"),
                 "--resume", str(out / "checkpoint.bin")]) == 0
    assert json.loads(capsys.readouterr().out)["steps_run"] == 10


def test_evaluate_truncated_checkpoint_is_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    main(["train", "--config", str(cfg_file), "--out", str(out)])
    blob = (out / "checkpoint.bin").read_bytes()
    cut = tmp_path / "cut.bin"
    # inside the first entry's dims, past its dtype and ndim fields
    cut.write_bytes(blob[:blob.index(b"<f8") + 4])
    capsys.readouterr()
    assert main(["evaluate", "--checkpoint", str(cut), "--batches", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_resume_with_other_seed_is_config_error(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "more"),
                 "--seed", "99", "--resume", str(out / "checkpoint.bin")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'seed'" in err
    assert main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "same"),
                 "--seed", str(CFG["seed"]), "--resume", str(out / "checkpoint.bin")]) == 0


@pytest.mark.parametrize("bad", [
    {"batch": "32"}, {"peak_lr": "x"}, {"steps_per_epoch": 0}, {"batch": 0},
    {"dropout": True}, {"steps": 8.0}, {"out": 5}, {"lag": 32}, {"heads": 3},
], ids=["batch-str", "peak_lr-str", "steps_per_epoch-0", "batch-0", "dropout-bool",
        "steps-float", "out-int", "lag-past-seq_len", "heads-not-dividing"])
def test_train_with_bad_value_fails_before_output(tmp_path, capsys, bad):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CFG, **bad)))
    out = tmp_path / "run"
    argv = ["train", "--config", str(path)] + ([] if "out" in bad else ["--out", str(out)])
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_train_with_negative_seed_flag_fails_before_output(cfg_file, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_file), "--out", str(out), "--seed", "-1"]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    out = tmp_path_factory.mktemp("meta") / "run"
    train(dict(CFG), out_dir=out)
    return out / "checkpoint.bin"


_DROP = object()


def _with_meta(src, dst, **changes):
    """Copy a checkpoint with metadata keys replaced, or dropped for _DROP."""
    arrays, meta = load_checkpoint(src)
    for key, value in changes.items():
        if value is _DROP:
            del meta[key]
        else:
            meta[key] = value
    save_checkpoint(dst, arrays, meta)
    return dst


@pytest.mark.parametrize("key,value", [
    ("config", _DROP), ("step", _DROP), ("adam_steps", _DROP), ("dropout_rng", _DROP),
    ("dropout_rng", [1, 2]), ("dropout_rng", {"bit_generator": "PCG64", "state": 5}),
    ("config", [1, 2]), ("step", "4"),
], ids=["no-config", "no-step", "no-adam_steps", "no-dropout_rng", "dropout_rng-list",
        "dropout_rng-bad-state", "config-list", "step-str"])
def test_resume_with_malformed_metadata_is_config_error(trained_checkpoint, cfg_file,
                                                        tmp_path, capsys, key, value):
    bad = _with_meta(trained_checkpoint, tmp_path / "bad.bin", **{key: value})
    code = main(["train", "--config", str(cfg_file), "--out", str(tmp_path / "more"),
                 "--resume", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and f"'{key}'" in err


@pytest.mark.parametrize("value", [_DROP, [1, 2], "delayed_echo"],
                         ids=["no-config", "config-list", "config-str"])
def test_evaluate_with_malformed_config_is_config_error(trained_checkpoint, tmp_path,
                                                        capsys, value):
    bad = _with_meta(trained_checkpoint, tmp_path / "bad.bin", config=value)
    assert main(["evaluate", "--checkpoint", str(bad), "--batches", "1"]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "'config'" in err


@pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "inf"])
def test_non_finite_parameter_is_config_error(trained_checkpoint, cfg_file, tmp_path,
                                              capsys, value):
    # a corrupt weight is refused on load, before any batch runs; evaluating
    # it used to exit 0 and print "loss": NaN, which is not JSON
    arrays, meta = load_checkpoint(trained_checkpoint)
    w = arrays["model.readout.w"].copy()
    w.flat[3] = value
    arrays["model.readout.w"] = w
    bad = tmp_path / "bad.bin"
    save_checkpoint(bad, arrays, meta)
    assert main(["evaluate", "--checkpoint", str(bad), "--batches", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "'readout.w'" in captured.err
    more = tmp_path / "more"
    assert main(["train", "--config", str(cfg_file), "--out", str(more),
                 "--resume", str(bad)]) == 1
    assert "'readout.w'" in capsys.readouterr().err
    assert not (more / "metrics.csv").exists()


@pytest.mark.parametrize("corrupt", ["bad-magic", "nan-parameter"])
def test_refused_resume_leaves_no_output_directory(trained_checkpoint, cfg_file, tmp_path,
                                                   capsys, corrupt):
    # the directory used to be made before the checkpoint was read, so a
    # resume that exits 1 left an empty --out behind
    bad = tmp_path / "bad.bin"
    if corrupt == "bad-magic":
        bad.write_bytes(b"garbage")
    else:
        arrays, meta = load_checkpoint(trained_checkpoint)
        arrays["model.readout.b"] = arrays["model.readout.b"] + float("nan")
        save_checkpoint(bad, arrays, meta)
    fresh = tmp_path / "fresh"
    assert main(["train", "--config", str(cfg_file), "--out", str(fresh),
                 "--resume", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not fresh.exists()


# path errors other than a missing file used to escape main as a traceback
@pytest.mark.parametrize("command", ["train", "params"])
def test_config_that_is_a_directory_is_error(tmp_path, capsys, command):
    flags = ["--out", str(tmp_path / "run")] if command == "train" else []
    assert main([command, "--config", str(tmp_path), *flags]) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_checkpoint_that_is_a_directory_is_error(tmp_path, capsys):
    assert main(["evaluate", "--checkpoint", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_out_below_a_file_is_error(cfg_file, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["train", "--config", str(cfg_file), "--out", str(blocker / "sub")]) == 1
    assert "error:" in capsys.readouterr().err


def test_inline_task_too_long_for_a_file_name_is_read_as_json(trained_checkpoint, capsys):
    task = json.dumps({"lag": 5}, indent=300)
    assert len(task) > 255
    assert main(["evaluate", "--checkpoint", str(trained_checkpoint),
                 "--task", task, "--batches", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["task"]["lag"] == 5


def test_long_task_that_is_not_json_is_config_error(capsys):
    assert main(["evaluate", "--checkpoint", "/nope.bin", "--task", "x" * 300]) == 1
    assert "neither a file nor valid JSON" in capsys.readouterr().err
