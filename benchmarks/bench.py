"""Closed-loop measurement of spintensor residual reports.

One caller in one process runs `spintensor.cli.run(subcommand, spec,
seed=...)` back to back, cycling over the workload's operation pool,
until the run time is spent and every operation has run at least once.
Every report is gated: exit code 0, `overall_pass` true, the
workload's expected check names present, and equal (up to its
timestamp) to the first report of the same operation.

`--trace 0` gives the end-to-end metrics from an untraced loop.
`--trace 1` runs an untraced loop and then a traced loop for half the
time each; the traced reports must equal the untraced ones, which shows
that the wrappers change nothing.  Metric names and units come from
BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spintensor import cli
from spintensor.scenarios import load_scenario_spec

from tracer import PARTIAL, TARGETS, Tracer, metric_name
from workloads import SPEC_TOLERANCE_CHECKS, make_workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """One timed report."""

    op_index: int
    seconds: float
    work_units: int
    failure: str | None  # None when every gate passed
    headroom: float | None
    stats: object = None  # tracer.ReportStats in a traced loop


def _strip(payload):
    data = json.loads(payload)
    data.pop("timestamp", None)
    return data


def headroom_decades(checks):
    """Min over spec-tolerance checks of log10(tol / max(residual, 1e-16))."""
    return min(
        math.log10(entry["tolerance"] / max(entry["max_residual"], 1e-16))
        for name, entry in checks.items()
        if name in SPEC_TOLERANCE_CHECKS
    )


def closed_loop(workload, specs, seconds, reference, tracer=None):
    """Run reports until `seconds` have passed and each operation ran once.

    reference maps an operation index to its first report (minus the
    timestamp); missing entries are filled in, present ones are what
    later reports of that operation must equal.
    """
    ops = workload.ops
    outcomes = []
    start = perf_counter()
    k = 0
    while k < len(ops) or perf_counter() - start < seconds:
        i = k % len(ops)
        op = ops[i]
        stream = io.StringIO()
        error = None
        with tracer.report() if tracer is not None else nullcontext() as stats:
            t0 = perf_counter()
            try:
                code = cli.run(op.subcommand, specs[i], seed=op.seed, stream=stream)
            except Exception as exc:  # a crashing report is a counted failure
                code, error = None, exc
            elapsed = perf_counter() - t0
        failure, headroom = _judge(workload, i, code, error, stream.getvalue(), reference)
        outcomes.append(Outcome(i, elapsed, op.work_units, failure, headroom, stats))
        k += 1
    return outcomes


def _judge(workload, i, code, error, payload, reference):
    if error is not None:
        return f"raised {error!r}", None
    if code != 0:
        return f"exit code {code}", None
    data = _strip(payload)
    if data.get("overall_pass") is not True:
        return "overall_pass is not true", None
    missing = workload.expected_checks - set(data["checks"])
    if missing:
        return f"missing checks {sorted(missing)}", None
    if reference.setdefault(i, data) != data:
        return "report differs from the first report of this operation", None
    return None, headroom_decades(data["checks"])


# --- set-up -----------------------------------------------------------


def measure_setup(workload_name, seed, repeats=SETUP_REPEATS):
    """Median wall time of fresh interpreters, and their median phases."""
    walls = []
    phases = []
    for _ in range(repeats):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"),
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        walls.append(perf_counter() - start)
        phases.append(json.loads(proc.stdout.splitlines()[-1]))
    medians = {key: statistics.median(p[key] for p in phases) for key in phases[0]}
    return statistics.median(walls), medians


def scipy_linalg_import_s(repeats=IMPORTTIME_REPEATS):
    """Median cumulative import time of scipy.linalg under `-X importtime`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import spintensor"
    values = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "scipy.linalg":
                values.append(int(fields[1]) / 1e6)
                break
        else:
            values.append(0.0)  # scipy.linalg no longer imported with spintensor
    return statistics.median(values)


# --- metrics ----------------------------------------------------------


def tail(times):
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, rank, count): rank is 1-based.  With fewer than
    2 * TAIL_BEYOND samples that statistic would sit below the median,
    so the upper median is used instead.
    """
    ordered = sorted(times)
    n = len(ordered)
    index = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[index], index + 1, n


def end_to_end_metrics(outcomes, setup_s, npool):
    times = [o.seconds for o in outcomes]
    first_pass = [o.headroom for o in outcomes[:npool] if o.headroom is not None]
    return {
        "setup_s": setup_s,
        "report_s_p50": statistics.median(times),
        "report_s_tail": tail(times)[0],
        "points_per_s": sum(o.work_units for o in outcomes) / sum(times),
        "residual_headroom_decades": statistics.fmean(first_pass) if first_pass else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(untraced, traced, npool, setup_phases, linalg_s):
    """Counts per report over the first pass over the pool (repeatable
    for a seed); self seconds per report over every traced report."""
    first = [o.stats for o in traced[:npool]]
    every = [o.stats for o in traced]
    out = {}
    for module, path in TARGETS:
        name = metric_name(module, path)
        out[f"{name}.calls"] = sum(s.calls[name] for s in first) / len(first)
        out[f"{name}.self_s"] = sum(s.self_s[name] for s in every) / len(every)
    fd_calls = sum(s.fd_calls for s in first)
    partials = sum(s.calls[PARTIAL] for s in first)
    out[f"{PARTIAL}.fd_calls"] = fd_calls / len(first)
    out["frames.fd_ratio"] = fd_calls / partials if partials else 0.0
    builds = sum(s.builds for s in first)
    distinct = sum(len(s.build_keys) for s in first)
    out["cli.build_distinct_ratio"] = distinct / builds if builds else 1.0
    out["trace.overhead_ratio"] = (
        statistics.median(o.seconds for o in traced)
        / statistics.median(o.seconds for o in untraced)
    )
    out["setup.import_s"] = setup_phases["import_s"]
    out["setup.spec_load_s"] = setup_phases["spec_load_s"]
    out["setup.scenario_build_s"] = setup_phases["scenario_build_s"]
    out["setup.scipy_linalg_import_s"] = linalg_s
    return out


# --- run metadata -------------------------------------------------------


def _blas(config_module):
    try:
        blas = config_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def metadata(args, context):
    return {
        **context,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
    }


# --- entry ------------------------------------------------------------


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run(args, context):
    """Measure one workload; returns (result dict, human-readable lines)."""
    lines = ["meta " + json.dumps(metadata(args, context), sort_keys=True)]
    workload = make_workload(args.workload, args.seed)
    npool = len(workload.ops)
    setup_s, setup_phases = measure_setup(args.workload, args.seed)
    specs = [load_scenario_spec(op.spec) for op in workload.ops]
    reference = {}
    if args.trace:
        linalg_s = scipy_linalg_import_s()
        untraced = closed_loop(workload, specs, args.seconds / 2, reference)
        with Tracer() as tracer:
            traced = closed_loop(workload, specs, args.seconds / 2, reference, tracer)
        outcomes = untraced + traced
        values = per_layer_metrics(untraced, traced, npool, setup_phases, linalg_s)
        # A target the program no longer has reads 0; it is not a
        # correctness failure, so refactors can land before the table moves.
        lines += [f"trace target not found: {name}" for name in tracer.missing]
        problems = [] if tracer.all_restored() else ["a traced attribute was not restored"]
    else:
        outcomes = closed_loop(workload, specs, args.seconds, reference)
        values = end_to_end_metrics(outcomes, setup_s, npool)
        _, rank, count = tail(o.seconds for o in outcomes)
        lines.append(
            f"report_s_tail is sample {rank} of {count} in ascending order "
            f"(percentile {100.0 * rank / count:.1f}, {count - rank} samples beyond)"
        )
        problems = []
    failures = [o for o in outcomes if o.failure is not None]
    lines += [f"failed report: operation {o.op_index}: {o.failure}" for o in failures]
    lines += problems
    lines.append(
        f"report_fail_ratio {len(failures) / len(outcomes)!r} ratio "
        f"({len(failures)} of {len(outcomes)} reports)"
    )
    metrics = {}
    for name, unit in declared_metrics(args.trace):
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append(f"{name} {values[name]!r} {unit}")
    result = {
        "correct": not failures and not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, lines
