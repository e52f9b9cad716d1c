"""Print every end-to-end and per-layer metric of every workload.

    python3 benchmarks/report.py --seed 1 [--seconds N]

Runs benchmarks/run.py once untraced and once traced per workload, one
run at a time, and prints `<workload> <metric> <value> <unit>` lines.
Exits 1 if any run fails a correctness gate.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", trace],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                print(f"{workload} trace={trace} FAILED (exit {proc.returncode})")
                print("\n".join(lines[:-1]) + proc.stderr)
                continue
            result = json.loads(lines[-1])
            if trace == "0":
                ratio = result["failed"] / result["attempted"]
                print(f"{workload} report_fail_ratio {ratio!r} ratio")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
