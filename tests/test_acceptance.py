"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Criteria 1-6 and 8 read their lines from one ``mhssm selftest``
child, which criterion 9 checks as a whole; the learning demonstration
(criterion 7) trains three models and is the slow part.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from mhssm.training import train

from hooks import subprocess_env

LEARNING_BUDGET_SECONDS = 1800.0

LEARN_BASE = {
    "task": "delayed_echo", "seq_len": 256, "vocab": 8, "lag": 32,
    "block": "mh_ssm", "model_dim": 64, "num_layers": 2, "heads": 4,
    "stack": 2, "state_dim": 16, "gating": "ihg", "ffn_dim": 128,
    "attn_heads": 4, "batch": 8, "steps": 5000, "steps_per_epoch": 1000,
    "warmup_steps": 150, "peak_lr": 3e-3, "checkpoint_every": 0,
    "eval_every": 50, "eval_batches": 2, "target_acc": 0.995, "seed": 0,
}


def report(number, name, detail):
    print(f"PASS criterion {number} ({name}): {detail}")


@pytest.fixture(scope="session")
def selftest():
    """One ``mhssm selftest`` child for the session: it runs every criterion
    of ``mhssm.verify.CRITERIA`` once and prints one line each."""
    return subprocess.run([sys.executable, "-m", "mhssm.cli", "selftest"],
                          capture_output=True, text=True, timeout=1200,
                          env=subprocess_env())


def check_selftest_line(selftest, number, name):
    """Assert the child's line for criterion ``name`` reads PASS; report its detail."""
    for line in selftest.stdout.splitlines():
        status, _, rest = line.partition("  ")
        if rest.startswith(f"{name}: "):
            detail = rest[len(name) + 2:].rsplit(" [", 1)[0]
            assert status == "PASS", detail
            report(number, name, detail)
            return
    pytest.fail(f"no selftest line for {name!r}:\n{selftest.stdout}{selftest.stderr}")


def test_criterion_1_scan_conv_duality(selftest):
    check_selftest_line(selftest, 1, "scan/conv duality")


def test_criterion_2_gradient_correctness(selftest):
    check_selftest_line(selftest, 2, "gradient correctness")


def test_criterion_3_stability(selftest):
    check_selftest_line(selftest, 3, "stability")


def test_criterion_4_gating_identities(selftest):
    check_selftest_line(selftest, 4, "inter-head gating identities")


def test_criterion_5_frontend_contract(selftest):
    check_selftest_line(selftest, 5, "frontend contract")


def test_criterion_6_structural_reductions(selftest):
    check_selftest_line(selftest, 6, "structural reductions")


@pytest.fixture(scope="module")
def learning_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("learning")
    runs = {}
    start = time.perf_counter()
    runs["mh_ssm_ihg"] = train(dict(LEARN_BASE), out_dir=base / "mh_ssm_ihg")
    runs["stateformer"] = train({**LEARN_BASE, "block": "stateformer"},
                                out_dir=base / "stateformer")
    runs["mh_ssm_gelu"] = train({**LEARN_BASE, "gating": "gelu"},
                                out_dir=base / "mh_ssm_gelu")
    runs["elapsed"] = time.perf_counter() - start
    return runs


def _check_loss_trend(history):
    losses = [h["loss"] for h in history]
    window = min(200, max(10, len(losses) // 3))
    if len(losses) <= window:
        return
    ma = [np.mean(losses[i:i + window]) for i in range(len(losses) - window)]
    assert ma[-1] < ma[0], "moving-average loss did not decrease"
    worst_uptick = max(b - a for a, b in zip(ma, ma[1:]))
    assert worst_uptick <= 0.1 * ma[0], "moving-average loss rose sharply"


def test_criterion_7_learning_demonstration(learning_runs):
    ihg = learning_runs["mh_ssm_ihg"]
    sf = learning_runs["stateformer"]
    gelu = learning_runs["mh_ssm_gelu"]

    acc_ihg = ihg["final_eval"]["accuracy"]
    acc_sf = sf["final_eval"]["accuracy"]
    acc_gelu = gelu["final_eval"]["accuracy"]

    assert ihg["steps_run"] <= 5000
    assert acc_ihg >= 0.99, f"multi-head SSM reached only {acc_ihg:.4f}"
    assert sf["steps_run"] <= 5000
    assert acc_sf >= 0.99, f"stateformer reached only {acc_sf:.4f}"
    assert learning_runs["elapsed"] < LEARNING_BUDGET_SECONDS

    _check_loss_trend(ihg["history"])

    direction = "ihg >= gelu" if acc_ihg >= acc_gelu else "gelu > ihg"
    report(
        7, "learning demonstration",
        f"ihg {acc_ihg:.4f} in {ihg['steps_run']} steps; "
        f"stateformer {acc_sf:.4f} in {sf['steps_run']} steps; "
        f"gelu ablation {acc_gelu:.4f} in {gelu['steps_run']} steps "
        f"(accuracy direction: {direction}); "
        f"total {learning_runs['elapsed']:.0f}s",
    )


def test_criterion_8_determinism_and_persistence(selftest):
    check_selftest_line(selftest, 8, "determinism & persistence")


def test_criterion_9_selftest_cli(selftest):
    assert selftest.returncode == 0, selftest.stdout + selftest.stderr
    assert selftest.stdout.count("PASS") >= 7
    report(9, "selftest CLI", "exit code 0; " + selftest.stdout.strip().splitlines()[-1])
