"""Tests of the benchmark itself: tiny end-to-end runs and check rejection.

Run with ``python -m pytest perfbench``. Every workload must complete at a
tiny size in both modes, and every correctness check must reject a
deliberately wrong input.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from mhssm import SeqBatch, Tensor, save_checkpoint  # noqa: E402
from mhssm import tensor as T  # noqa: E402
from mhssm.encoder import EncoderConfig  # noqa: E402
from mhssm.nn import Linear  # noqa: E402
from mhssm.tensor import GradTape  # noqa: E402
from mhssm.training import TaskModel, load_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_completes_at_tiny_size(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "echo_mh_ssm", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# each check rejects a wrong answer


def test_finite_losses_rejects_nan():
    assert checks.finite_losses([2.0, 1.5])[1]
    assert not checks.finite_losses([2.0, float("nan")])[1]


def test_eval_loss_rejects_offset_loss():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((2, 5, 4))
    targets = np.array([[0, 1, -1, 3, 2], [1, -1, -1, 0, 0]])
    loss = T.cross_entropy(Tensor(logits), targets, -1).item()
    assert checks.eval_loss([(logits, targets)], loss, -1)[1]
    assert not checks.eval_loss([(logits, targets)], loss + 1e-9, -1)[1]
    assert not checks.eval_loss([(logits, targets)], float("nan"), -1)[1]


def _linear_problem():
    rng = np.random.default_rng(1)
    layer = Linear(6, 3, rng)
    x = Tensor(rng.standard_normal((4, 6)))
    targets = np.array([0, 2, 1, 2])

    def loss_at(arrays):
        layer.set_params({k: Tensor(v, requires_grad=True) for k, v in arrays.items()})
        return T.cross_entropy(layer(x), targets, -1).item()

    params = layer.named_params()
    with GradTape() as tape:
        loss = T.cross_entropy(layer(x), targets, -1)
    by_id = tape.gradients(loss)
    grads = {k: by_id[t] for k, t in params.items()}
    return loss_at, {k: t.data for k, t in params.items()}, grads


def test_directional_fd_rejects_perturbed_gradient():
    loss_at, params, grads = _linear_problem()
    assert checks.directional_fd(loss_at, params, grads, seed=0)[1]
    perturbed = dict(grads, w=grads["w"] * 1.001)
    assert not checks.directional_fd(loss_at, params, perturbed, seed=0)[1]
    dropped = {k: v for k, v in grads.items() if k != "b"}
    assert not checks.directional_fd(loss_at, params, dropped, seed=0)[1]


def _tiny_task_model():
    cfg = load_config(dict(workloads.ECHO["echo_mh_ssm"]["tiny"], seed=2))
    return TaskModel(cfg)


def test_scan_vs_conv_rejects_offset_output():
    model = _tiny_task_model()
    assert checks.scan_matches_conv(model, 48, seed=0)[1]

    def offset_conv(d, u):
        y = checks.ssm_conv(d, u)
        return y.with_data(T.shift(y.data, 1e-6))

    assert not checks.scan_matches_conv(model, 48, seed=0, conv=offset_conv)[1]


def _tiny_asr():
    size = workloads.ASR["tiny"]
    cfg = EncoderConfig(**size["encoder"])
    model = workloads.AsrModel(cfg, size["classes"], seed=4)
    data = workloads.AsrData(4, 3, size["min_len"], size["max_len"], size["classes"],
                             cfg.input_dim)
    x, _ = data(0)
    return model.encoder, x.data.data, x.lengths


def _by_name(results):
    return {name: ok for name, ok, _ in results}


def test_padding_contract_holds_for_the_encoder():
    encoder, frames, lengths = _tiny_asr()
    assert len(set(lengths.tolist())) > 1
    assert all(_by_name(checks.padding_contract(encoder, frames, lengths)).values())


def test_padding_contract_rejects_padding_that_changes_a_valid_row():
    encoder, frames, lengths = _tiny_asr()

    def ignores_lengths(x):
        full = np.full_like(x.lengths, x.length)
        out = encoder(SeqBatch(x.data, full))
        return SeqBatch(out.data, -(-x.lengths // 4)).rezero()

    verdict = _by_name(checks.padding_contract(ignores_lengths, frames, lengths))
    assert verdict["padding_zero"] and verdict["output_lengths"]
    assert not verdict["alone_matches_batch"]


def test_padding_contract_rejects_nonzero_padding_and_wrong_lengths():
    encoder, frames, lengths = _tiny_asr()

    def unmasked(x):
        out = encoder(x)
        return out.with_data(T.shift(out.data, 1.0))

    def floor_lengths(x):
        out = encoder(x)
        return SeqBatch(out.data, x.lengths // 4)

    assert not _by_name(checks.padding_contract(unmasked, frames, lengths))["padding_zero"]
    assert (lengths % 4 != 0).any()
    verdict = _by_name(checks.padding_contract(floor_lengths, frames, lengths))
    assert not verdict["output_lengths"]


def test_checkpoint_roundtrip_rejects_corruption(tmp_path):
    arrays = {"model.w": np.arange(12.0).reshape(3, 4), "model.b": np.ones(3)}
    path = tmp_path / "ck.bin"
    save_checkpoint(path, arrays, {"kind": "test"})
    assert checks.checkpoint_roundtrip(path, arrays)[1]
    assert not checks.checkpoint_roundtrip(path, dict(arrays, **{"model.b": np.zeros(3)}))[1]
    good = path.read_bytes()
    path.write_bytes(good + b"\x00")  # loads the same arrays, re-saves shorter
    assert not checks.checkpoint_roundtrip(path, arrays)[1]
    flipped = bytearray(good)
    flipped[-1] ^= 0x01
    path.write_bytes(bytes(flipped))
    assert not checks.checkpoint_roundtrip(path, arrays)[1]
