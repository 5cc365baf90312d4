"""Write the per-head-layout checkpoints that test_train.py loads.

Run it from this directory against the ``src`` of commit 5bf665d, the last
one whose stages kept one parameter set per head:

    PYTHONPATH=<checkout of 5bf665d>/src python make_legacy_checkpoints.py

It trains one tiny ``ihg`` and one tiny ``glu`` model, keeps each final
checkpoint as ``legacy_<gating>.bin`` and records that commit's
``evaluate(..., batches=2)`` loss and accuracy in ``legacy_evals.json``.
"""

import json
import shutil
from pathlib import Path

from mhssm.training import evaluate, train

BASE = {
    "task": "delayed_echo", "seq_len": 32, "vocab": 4, "lag": 4,
    "model_dim": 8, "num_layers": 1, "heads": 4, "stack": 1, "state_dim": 4,
    "ffn_dim": 16, "batch": 4, "steps": 6, "steps_per_epoch": 5,
    "warmup_steps": 5, "checkpoint_every": 0, "eval_every": 0,
    "eval_batches": 2, "seed": 5,
}


def main():
    evals = {}
    for gating in ("ihg", "glu"):
        run = Path(f"run_{gating}")
        result = train(dict(BASE, gating=gating, out=run.name))
        target = Path(f"legacy_{gating}.bin")
        shutil.copyfile(result["checkpoint_path"], target)
        shutil.rmtree(run)
        report = evaluate(target.name, batches=2)
        evals[gating] = {"loss": report["loss"], "accuracy": report["accuracy"]}
    Path("legacy_evals.json").write_text(json.dumps(evals, indent=2) + "\n")


if __name__ == "__main__":
    main()
