"""Benchmark entry point: one workload, one seed, one run.

    python3 benchmarks/run.py --workload deformed-all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; spintensor is imported from its
`src/`.  Prints human-readable lines (run metadata, one line per
metric with its unit, any failed report) and, as the last line, one
JSON object with the keys correct, attempted, failed and metrics.
Exits 0 when every correctness gate passed, 1 when one failed, 2 when
the checkout has no spintensor sources.

BLAS is pinned to one thread before numpy loads: on a small machine,
default OpenBLAS threading measures the scheduler, not the program.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    from workloads import WORKLOAD_NAMES  # imports numpy: only after the BLAS pin

    parser = argparse.ArgumentParser(description="spintensor layered benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True,
                        help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time; every operation still runs at least once")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    context = {"loadavg_at_start": list(os.getloadavg())}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"  # before anything imports numpy
    context["blas_thread_pin"] = {var: os.environ[var] for var in BLAS_THREAD_VARS}
    args = parse_args(argv)
    if not (ROOT / "src" / "spintensor" / "__init__.py").is_file():
        print(f"no spintensor sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    result, lines = bench.run(args, context)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
