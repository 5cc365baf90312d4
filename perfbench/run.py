"""Benchmark entry point: one workload, one process, one thread.

    python3 perfbench/run.py --workload echo_mh_ssm --seed 1 --seconds 10 --trace 0

Builds nothing: it imports ``mhssm`` from the ``src`` directory of the
checkout it sits in, pins BLAS and OpenMP to one thread before numpy loads,
and prints one JSON object as the last line of standard output. Exit code 0
when every check passed, 1 when a check failed, 2 when the library is
missing.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload to a few seconds (benchmark self-test)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mhssm" / "__init__.py").is_file():
        print(f"error: no mhssm sources under {src}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import workloads  # noqa: E402  (after the thread pins and the path)
    import_s = time.perf_counter() - T0

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.tiny, import_s, HERE / "out")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
