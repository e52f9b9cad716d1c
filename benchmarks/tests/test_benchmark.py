"""Self-checks of the benchmark: generator, tracer counters, span
accounting and the run.py output contract.

    python3 -m pytest benchmarks/tests -q

No test pins an absolute count, so an improvement never fails one.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.linalg

import spintensor.frames
import spintensor.scenarios
from spintensor.scenarios import load_scenario_spec

import bench
from tracer import TARGETS, Tracer, metric_name
from workloads import WORKLOAD_NAMES, make_workload

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

# Traced callables that do not fire on a workload's traced operations
# (TRACED_OPS below); every other entry of TARGETS must fire.  These are
# off that workload's path (coordinate_christoffel only runs for undeformed
# coordinate-frame specs under build-connection, which no workload has).
NOT_ON_PATH = {
    "deformed-all": {
        "scenarios.coordinate_christoffel",
        "expressions.Expression.call",  # Minkowski metric: no expressions
        "tetrads.signed_cholesky_partial",  # deformed fields carry no partials
    },
    "tetrad-grid": {
        "scenarios.expm", "scenarios.deform_scenario", "scenarios.random_transition",
        "scenarios.coordinate_christoffel", "frames.theta_parameters",
        "frames.transform_components", "chiral.transform_connection",
        "dirac_connection.restrict_to_chiral", "dirac.verify_dirac_identities",
        "cli.run_verify_identities", "cli.run_build_connection", "cli.run_covariance",
    },
    "covariance-sweep": {
        "scenarios.coordinate_christoffel", "chiral.covariant_derivative",
        "chiral.verify_chiral_concordance", "dirac_connection.verify_dirac_concordance",
        "dirac.verify_dirac_identities", "cli.run_verify_identities",
        "cli.run_build_connection", "cli.run_concordance",
    },
}
SEED = 11
# Operations traced per workload: covariance-sweep needs one pass over
# its three base scenarios (the flat one evaluates no expressions).
TRACED_OPS = {"deformed-all": 1, "tetrad-grid": 1, "covariance-sweep": 3}


# --- workload generator ----------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_generator_is_deterministic_and_seed_dependent(name):
    assert make_workload(name, SEED) == make_workload(name, SEED)
    assert make_workload(name, SEED) != make_workload(name, SEED + 1)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_generated_spec_loads(name):
    for op in make_workload(name, SEED).ops:
        load_scenario_spec(op.spec)


def test_tetrad_grid_points_keep_away_from_the_singularity():
    for op in make_workload("tetrad-grid", SEED).ops:
        assert len(op.spec["sample_points"]) == 100
        assert all(1.0 + p[0] >= 0.5 for p in op.spec["sample_points"])


# --- traced runs -------------------------------------------------------------


def first_ops(name, seed=SEED):
    workload = make_workload(name, seed)
    workload = dataclasses.replace(workload, ops=workload.ops[:TRACED_OPS[name]])
    return workload, [load_scenario_spec(op.spec) for op in workload.ops]


def traced_once(name, reference):
    workload, specs = first_ops(name)
    with Tracer() as tracer:
        outcomes = bench.closed_loop(workload, specs, 0.0, reference, tracer)
    return tracer, outcomes


@pytest.fixture(scope="module")
def runs():
    """Per workload: untraced outcomes, two traced runs and their tracers."""
    out = {}
    for name in WORKLOAD_NAMES:
        reference = {}
        workload, specs = first_ops(name)
        untraced = bench.closed_loop(workload, specs, 0.0, reference)
        first = traced_once(name, reference)
        second = traced_once(name, reference)
        out[name] = (untraced, first, second)
    return out


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_reports_pass_and_equal_untraced(runs, name):
    untraced, (_, first), (_, second) = runs[name]
    # the shared reference makes the traced loops compare against the
    # untraced report, ignoring only the timestamp
    for outcome in untraced + first + second:
        assert outcome.failure is None, outcome.failure


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_gives_identical_call_counts(runs, name):
    _, (_, first), (_, second) = runs[name]
    for a, b in zip(first, second, strict=True):
        assert a.stats.calls == b.stats.calls
        assert a.stats.fd_calls == b.stats.fd_calls
        assert a.stats.build_keys == b.stats.build_keys


def test_expm_runs_only_where_frames_are_deformed(runs):
    def expm_calls(name):
        return runs[name][1][1][0].stats.calls["scenarios.expm"]

    assert expm_calls("deformed-all") > 0
    assert expm_calls("covariance-sweep") > 0
    assert expm_calls("tetrad-grid") == 0


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_every_wrapper_on_the_path_fires(runs, name):
    tracer, outcomes = runs[name][1]
    assert tracer.missing == []
    fired = {key for o in outcomes for key, count in o.stats.calls.items() if count > 0}
    expected = {metric_name(m, p) for m, p in TARGETS} - NOT_ON_PATH[name]
    assert expected - fired == set()


def test_covariance_rebuilds_show_as_redundant_builds(runs):
    stats = runs["covariance-sweep"][1][1][0].stats
    assert len(stats.build_keys) < stats.builds
    stats = runs["tetrad-grid"][1][1][0].stats
    assert len(stats.build_keys) == stats.builds


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_span_self_times_are_nonnegative_and_fit_in_the_report(runs, name):
    for tracer, outcomes in runs[name][1:]:
        for outcome in outcomes:
            self_s = outcome.stats.self_s
            assert all(value >= 0.0 for value in self_s.values())
            assert sum(self_s.values()) <= outcome.seconds


def test_every_patched_attribute_is_restored(runs):
    tracer = runs["deformed-all"][1][0]
    assert tracer.patches
    assert tracer.all_restored()
    assert spintensor.scenarios.expm is scipy.linalg.expm
    assert not hasattr(vars(spintensor.frames.MatrixField)["__call__"], "__wrapped__")


# --- metric helpers ------------------------------------------------------------


def test_tail_keeps_ten_samples_beyond_or_falls_back_to_upper_median():
    assert bench.tail(range(40)) == (29, 30, 40)
    assert bench.tail(range(12)) == (6, 7, 12)


def test_headroom_ignores_identity_and_oracle_checks():
    checks = {
        "chiral-nabla-metric": {"tolerance": 1e-6, "max_residual": 1e-9},
        "chiral-transformation-law": {"tolerance": 1e-5, "max_residual": 0.0},
        "chiral-tangent-oracle": {"tolerance": 1e-5, "max_residual": 1e-6},
        "dirac-gamma-anticommutator": {"tolerance": 1e-12, "max_residual": 1e-12},
    }
    assert bench.headroom_decades(checks) == pytest.approx(3.0)


# --- run.py contract -------------------------------------------------------------


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_declared_metrics_as_last_line(trace, section):
    proc = run_bench(ROOT, "--workload", "covariance-sweep", "--seed", "3",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    if trace == "1":
        assert result["metrics"]["cli.build_distinct_ratio"]["value"] < 1.0


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "tetrad-grid", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
