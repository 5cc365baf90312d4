"""Write the old-layout checkpoints that test_train.py loads.

Each file is written by the last commit whose models had its layout. Run the
script from this directory against that commit's ``src``, naming the cases
to write:

    PYTHONPATH=<checkout of 5bf665d>/src python make_legacy_checkpoints.py ihg glu
    PYTHONPATH=<checkout of 717c816>/src python make_legacy_checkpoints.py stateformer

* ``legacy_ihg.bin`` and ``legacy_glu.bin`` come from commit 5bf665d, the last
  one whose stages kept one parameter set per head: one tiny ``mh_ssm`` model
  per gating.
* ``legacy_stateformer.bin`` comes from commit 717c816, the last one whose
  stateformer layers nested attention and feed-forward under ``inner``: one
  tiny ``stateformer`` model.

Each named case trains its model, keeps the final checkpoint as
``legacy_<case>.bin`` and records that commit's ``evaluate(..., batches=2)``
loss and accuracy under the case's name in ``legacy_evals.json``. Files and
entries of cases not named are left as they are.
"""

import json
import shutil
import sys
from pathlib import Path

from mhssm.training import evaluate, train

BASE = {
    "task": "delayed_echo", "seq_len": 32, "vocab": 4, "lag": 4,
    "model_dim": 8, "num_layers": 1, "heads": 4, "stack": 1, "state_dim": 4,
    "ffn_dim": 16, "batch": 4, "steps": 6, "steps_per_epoch": 5,
    "warmup_steps": 5, "checkpoint_every": 0, "eval_every": 0,
    "eval_batches": 2, "seed": 5,
}

CASES = {
    "ihg": {"gating": "ihg"},
    "glu": {"gating": "glu"},
    "stateformer": {"block": "stateformer"},
}


def main(cases):
    evals_path = Path("legacy_evals.json")
    evals = json.loads(evals_path.read_text()) if evals_path.exists() else {}
    for case in cases:
        run = Path(f"run_{case}")
        result = train(dict(BASE, **CASES[case], out=run.name))
        target = Path(f"legacy_{case}.bin")
        shutil.copyfile(result["checkpoint_path"], target)
        shutil.rmtree(run)
        report = evaluate(target.name, batches=2)
        evals[case] = {"loss": report["loss"], "accuracy": report["accuracy"]}
    evals_path.write_text(json.dumps(evals, indent=2) + "\n")


if __name__ == "__main__":
    unknown = set(sys.argv[1:]) - set(CASES)
    if unknown or len(sys.argv) < 2:
        sys.exit(f"usage: make_legacy_checkpoints.py CASE... with CASE in {sorted(CASES)}")
    main(sys.argv[1:])
