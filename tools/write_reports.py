"""Write every bundled report and the benchmark operations' reports.

    python3 tools/write_reports.py OUT_DIR

Run from any directory; spintensor is imported from the `src/` of the
checkout this script belongs to, and the benchmark workloads from its
`benchmarks/` (read only).  For each of the 20 bundled reports (every
subcommand on every bundled scenario) and for each operation of the
`deformed-all`, `tetrad-grid` and `covariance-sweep` workloads at
seeds 1-3, OUT_DIR gets three files named after it:

- `<report>.json`: the JSON report, with its timestamp masked;
- `<report>.txt`: the text report;
- `<report>.exit`: the exit code of each format's run and its stderr.

Two checkouts' outputs compare with one `diff -r`: a change that keeps
every report's bytes shows no difference.  BLAS is pinned to one
thread, as in the benchmark, so that both runs sum in the same order.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before anything imports numpy

ROOT = Path(__file__).resolve().parent.parent
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
WORKLOADS = ("deformed-all", "tetrad-grid", "covariance-sweep")
WORKLOAD_SEEDS = (1, 2, 3)


def run_report(cli, subcommand, spec, seed=None):
    """{suffix: bytes} of one report: JSON, text and their exit codes."""
    files, status = {}, []
    for fmt, suffix in (("json", "json"), ("text", "txt")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.run(subcommand, spec, seed=seed, fmt=fmt, stream=out)
        files[suffix] = TIMESTAMP.sub('"timestamp": "<masked>"', out.getvalue())
        status.append(f"{fmt} exit {code}\n{err.getvalue()}")
    files["exit"] = "".join(status)
    return files


def reports():
    """(name, files) of every report, bundled ones first."""
    from spintensor import cli
    from spintensor.scenarios import bundled_scenario_names, load_scenario_spec
    from workloads import make_workload

    for name in bundled_scenario_names():
        for subcommand in cli.SUBCOMMANDS:
            yield f"{name}.{subcommand}", run_report(cli, subcommand, name)
    for workload in WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for k, op in enumerate(make_workload(workload, seed).ops):
                files = run_report(cli, op.subcommand, load_scenario_spec(op.spec), op.seed)
                yield f"{workload}.seed{seed}.op{k}", files


def main(argv):
    if len(argv) != 1:
        print("usage: write_reports.py OUT_DIR", file=sys.stderr)
        return 2
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    count = 0
    for name, files in reports():
        for suffix, text in files.items():
            (out / f"{name}.{suffix}").write_text(text, encoding="utf-8")
        count += 1
    print(f"wrote {count} reports to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
