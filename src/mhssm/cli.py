"""Command-line interface.

Subcommands: ``train``, ``evaluate``, ``selftest``, ``params``.
Exit codes: 0 success, 1 configuration error, 2 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .encoder import param_count
from .errors import ConfigError, NumericsError, ShapeError
from .training import encoder_config, evaluate, load_config, task_spec, train


def _parse_task(text: str) -> dict:
    """A task spec given inline as JSON or as a path to a JSON file."""
    # os.path.exists is False, not an error, for text too long to be a path
    if os.path.exists(text):
        text = Path(text).read_text()
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"task spec is neither a file nor valid JSON: {exc}") from None
    if not isinstance(spec, dict):
        raise ConfigError("task spec must be a JSON object")
    return spec


def _cmd_train(args) -> int:
    result = train(args.config, out_dir=args.out, seed=args.seed, resume=args.resume)
    report = {
        "steps_run": result["steps_run"],
        "stopped_early": result["stopped_early"],
        "metrics": result["metrics_path"],
        "checkpoint": result["checkpoint_path"],
        "final_eval": result["final_eval"],
    }
    print(json.dumps(report, indent=2))
    return 0


def _cmd_evaluate(args) -> int:
    task = _parse_task(args.task) if args.task else None
    report = evaluate(args.checkpoint, task=task, batches=args.batches)
    print(json.dumps(report, indent=2))
    return 0


def _cmd_selftest(args) -> int:
    from .verify import run_selftest
    return 0 if run_selftest(verbose=True) else 1


def _cmd_params(args) -> int:
    cfg = load_config(args.config)
    enc_cfg = encoder_config(cfg, task_spec(cfg).input_dim)
    counts = param_count(enc_cfg)
    width = max(len(k) for k in counts)
    for key, value in counts.items():
        print(f"{key:<{width}}  {value:>12,}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mhssm",
                                     description="Multi-head state space sequence models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the trainer on a synthetic task")
    p_train.add_argument("--config", required=True, help="path to a flat JSON config")
    p_train.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_train.add_argument("--out", default=None, help="output directory for metrics/checkpoints")
    p_train.add_argument("--resume", default=None, help="checkpoint to continue from")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="report accuracy of a stored model")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--task", default=None,
                        help="task spec as inline JSON or a path to a JSON file")
    p_eval.add_argument("--batches", type=int, default=8)
    p_eval.set_defaults(fn=_cmd_evaluate)

    p_self = sub.add_parser("selftest", help="run the full invariant suite")
    p_self.set_defaults(fn=_cmd_selftest)

    p_params = sub.add_parser("params", help="print the parameter-count table")
    p_params.add_argument("--config", required=True)
    p_params.set_defaults(fn=_cmd_params)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ShapeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericsError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
