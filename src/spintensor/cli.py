"""Command-line front end: scenario ingestion and residual reports.

STAGES maps each subcommand to its stages: verify-identities (constant
identity suites, no scenario needed), build-connection (coefficient
tables at the sample points), concordance (covariant-constancy residual
suites), covariance (seeded frame-deformation transformation-law check)
and all (the four in that order).  The stages of one run share its
report and the scenario of each mode, built once (MODES).

Exit codes: 0 every check passed, 1 a numerical check failed (a
non-finite residual fails its check; a consistency check, a singular
matrix or non-finite connection in a build, or a failing seeded frame
change of covariance fails on one stderr line), 2 the spec, a flag or an environment
override could not be read or parsed, or the scenario cannot be built
(one stderr line names the field and the point).
Flags may also be set through environment variables with the
SPINTENSOR_ prefix (SPINTENSOR_SPEC, SPINTENSOR_OUT, SPINTENSOR_SEED,
SPINTENSOR_FD_STEP, SPINTENSOR_TOL_SCALE, SPINTENSOR_FORMAT); explicit
flags win and both are validated alike.  The FD step sets only the
raw finite-difference Christoffel oracle (tangent-oracle); every other
derivative is exact.

Report schema "residual-report/1": a JSON object with schema, name,
subcommand, seed, timestamp, overall_pass and a checks object mapping
check names to {max_residual, tolerance, passed, points_evaluated}.
Reports are strict JSON: a non-finite residual is written as null (and
never passes), and a tolerance scaled past the float range is bad
input (exit 2).  Reports are deterministic for a fixed spec and seed up
to the timestamp field.

Every stage evaluates a mode's table (scenario.jets) once, at all sample
points as one batch; a failure names its own first failing point.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .chiral import (
    FieldError,
    ScenarioError,
    build_chiral_metric_connection,
    canonical_chiral_constants,
    transform_connection,
    verify_chiral_identities,
    verify_concordance,
    worst_residual,
)
from .dirac import (
    canonical_dirac_constants,
    embed_chiral_frame,
    frame_inversion,
    verify_dirac_identities,
)
from .dirac_connection import (
    build_dirac_metric_connection,
    chirality_split,
    restrict_to_chiral,
)
from .expressions import EvaluationError, ParseError
from .frames import NumericalError, check_points, theta_parameters
from .scenarios import (
    ScenarioSpec,
    SpecError,
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    coordinate_christoffel,
    dirac_scenario_from_spec,
    load_scenario_spec,
    random_transition,
    _metric_field,
)

REPORT_SCHEMA = "residual-report/1"
ENV_PREFIX = "SPINTENSOR_"
IDENTITY_TOL = 1e-12  # the constant identity suites, before --tol-scale

# mode -> (scenario loader, connection builder)
MODES = {
    "chiral": (chiral_scenario_from_spec, build_chiral_metric_connection),
    "dirac": (dirac_scenario_from_spec, build_dirac_metric_connection),
}


@dataclass
class ResidualReport:
    """Accumulated residual checks for one CLI invocation."""

    name: str
    subcommand: str
    seed: int = 0
    checks: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def record(self, check, max_residual, tolerance, points_evaluated):
        """Record one check; a non-finite residual never passes and is
        written as null."""
        finite = math.isfinite(max_residual)
        self.checks[check] = {
            "max_residual": float(max_residual) if finite else None,
            "tolerance": float(tolerance),
            "passed": bool(finite and max_residual <= tolerance),
            "points_evaluated": int(points_evaluated),
        }

    @property
    def overall_pass(self):
        return all(entry["passed"] for entry in self.checks.values())

    def failing(self):
        return [name for name, entry in self.checks.items() if not entry["passed"]]

    def to_dict(self):
        out = {
            "schema": REPORT_SCHEMA,
            "name": self.name,
            "subcommand": self.subcommand,
            "seed": self.seed,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "overall_pass": self.overall_pass,
            "checks": self.checks,
        }
        if self.tables:
            out["tables"] = self.tables
        return out

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_text(self):
        lines = [f"residual report: {self.name} [{self.subcommand}] seed={self.seed}"]
        width = max((len(k) for k in self.checks), default=0)
        for check in sorted(self.checks):
            entry = self.checks[check]
            status = "PASS" if entry["passed"] else "FAIL"
            residual = math.nan if entry["max_residual"] is None else entry["max_residual"]
            lines.append(
                f"  {status}  {check:<{width}}  max={residual:.3e}"
                f"  tol={entry['tolerance']:.1e}  points={entry['points_evaluated']}"
            )
        lines.append(f"overall: {'PASS' if self.overall_pass else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _complex_table(arr):
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        return {"re": np.real(arr).tolist(), "im": np.imag(arr).tolist()}
    return {"re": arr.tolist(), "im": np.zeros_like(arr, dtype=float).tolist()}


# --- stages -----------------------------------------------------------


@dataclass
class Run:
    """One invocation as its stages see it."""

    report: ResidualReport
    spec: ScenarioSpec = None
    seed: int = None
    fd_step: float = None
    tol_scale: float = 1.0
    scenarios: dict = field(default_factory=dict)

    def scenario(self, mode):
        """The spec's scenario for mode, built on first use in this run."""
        if mode not in self.scenarios:
            self.scenarios[mode] = MODES[mode][0](self.spec)
        return self.scenarios[mode]


def run_verify_identities(ctx: Run):
    """Constant identity suites, canonically and after P/T/PT inversions."""
    report = ctx.report
    tol = IDENTITY_TOL * ctx.tol_scale
    chiral = canonical_chiral_constants()
    for check, value in verify_chiral_identities(chiral).items():
        report.record(f"chiral-{check}", value, tol, 1)
    dirac = canonical_dirac_constants()
    for check, value in verify_dirac_identities(dirac).items():
        report.record(f"dirac-{check}", value, tol, 1)
    # chirality_split and embed_chiral_frame raise on any violated
    # identity; a clean return means residual 0 on their whole suites.
    chirality_split(dirac)
    report.record("dirac-chirality-split-suite", 0.0, tol, 1)
    embed_chiral_frame()
    report.record("dirac-chiral-embedding-suite", 0.0, tol, 1)
    origin = (0.0, 0.0, 0.0, 0.0)
    for kind in ("P", "T", "PT"):
        moved = dirac.transform(frame_inversion(kind), origin)
        for check, value in verify_dirac_identities(moved).items():
            report.record(f"dirac-after-{kind}-{check}", value, tol, 1)


def run_build_connection(ctx: Run):
    """Emit coefficient tables at every sample point.

    When the spec uses the coordinate frame, a raw finite-difference
    Christoffel table (step --fd-step, else the spec's) is emitted next
    to the tangent coefficients and their agreement is recorded as a
    check.  Each mode's connection and the oracle are built once for
    all points; the per-point tables are slices of those batches.  A
    connection that is not finite is a numerical failure.
    """
    spec = ctx.spec
    has_oracle = spec.frame is None and not spec.deform
    step = spec.fd_step if ctx.fd_step is None else ctx.fd_step
    for mode in spec.modes:
        scenario = ctx.scenario(mode)
        points = scenario.chart.points
        conn = MODES[mode][1](scenario.jets(points), points)
        check_points(~np.isfinite(conn.A).all(axis=(-3, -2, -1)), points,
                     f"{mode} connection is not finite")
        entries = [
            {
                "point": list(point),
                "tangent": np.real(conn.Gamma[k]).tolist(),
                "spinor": _complex_table(conn.A[k]),
                "conjugate-spinor": _complex_table(conn.Abar[k]),
            }
            for k, point in enumerate(scenario.chart.sample_points)
        ]
        if has_oracle:
            oracle = coordinate_christoffel(_metric_field(spec), points, step=step)
            for entry, table in zip(entries, oracle):
                entry["tangent-oracle"] = table.tolist()
            worst = worst_residual(0.0, conn.Gamma - oracle)
            ctx.report.record(f"{mode}-tangent-oracle", worst, 1e-5, len(entries))
        ctx.report.tables[f"{mode}-connection"] = entries


def run_concordance(ctx: Run):
    tol = ctx.spec.tolerances["concordance"] * ctx.tol_scale
    npoints = len(ctx.spec.sample_points)
    for mode in ctx.spec.modes:
        residuals = verify_concordance(MODES[mode][1], ctx.scenario(mode))
        for check, value in residuals.items():
            ctx.report.record(f"{mode}-{check}", value, tol, npoints)


def run_covariance(ctx: Run):
    """Transformation-law round trip under a seeded smooth deformation.

    The connection built directly in the deformed frame, mapped back
    through the transformation law with theta-parameters, must agree
    with the connection built in the original frame.  The base table is
    evaluated once; each seed offset evaluates its transition once and
    derives the deformed table, theta and the back-transform from it.
    Each covers all sample points at once.  A deformed table that fails
    its checks (FieldError) is a numerical failure: the input is valid.
    """
    spec = ctx.spec
    tol = spec.tolerances["covariance"] * ctx.tol_scale
    base_seed = spec.seed if ctx.seed is None else ctx.seed
    base = ctx.scenario("chiral")
    points = base.chart.points
    npoints = len(spec.sample_points)
    base_jets = base.jets(points)
    conn_base = build_chiral_metric_connection(base_jets, points)
    worst = 0.0
    for offset in range(3):
        seed = base_seed + offset
        try:
            moved, trans_jets = base.deform_jets(
                base_jets, random_transition(seed=seed, spinor_dim=2), points)
        except FieldError as exc:
            raise NumericalError(f"seeded deformation {seed}: {exc}") from exc
        conn_moved = build_chiral_metric_connection(moved, points)
        theta = theta_parameters(trans_jets, base_jets["frame"], points)
        back = transform_connection(conn_moved, trans_jets, theta)
        for ours, theirs in (
            (back.Gamma, conn_base.Gamma), (back.A, conn_base.A), (back.Abar, conn_base.Abar)
        ):
            worst = worst_residual(worst, ours - theirs)
    ctx.report.record("chiral-transformation-law", worst, tol, 3 * npoints)
    if "dirac" in spec.modes:
        conn = build_dirac_metric_connection(ctx.scenario("dirac").jets(points), points)
        # deformed embedded frames keep the block layout, so the
        # restriction is still exact; the restriction residual is
        # the covariance statement for the Dirac bundle here.
        restricted = restrict_to_chiral(conn, points, tol=1e-6 if spec.deform else 1e-9)
        worst = worst_residual(0.0, restricted.A - conn_base.A)
        ctx.report.record("dirac-chiral-restriction", worst, tol, npoints)


STAGES = {
    "verify-identities": (run_verify_identities,),
    "build-connection": (run_build_connection,),
    "concordance": (run_concordance,),
    "covariance": (run_covariance,),
    "all": (run_verify_identities, run_build_connection, run_concordance, run_covariance),
}
SUBCOMMANDS = tuple(STAGES)


# --- orchestration ----------------------------------------------------


def run(subcommand, spec_path=None, seed=None, fd_step=None, tol_scale=1.0,
        out=None, fmt="json", stream=None):
    """Execute one subcommand; returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    if subcommand not in STAGES:
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    for name, value in (("seed", seed), ("fd_step", fd_step), ("tol_scale", tol_scale), ("fmt", fmt)):
        _, valid, requirement = ARGUMENTS[name]
        if not valid(value):
            print(f"bad input: {name} must be {requirement}, got {value!r}", file=sys.stderr)
            return 2
    try:
        spec = None if spec_path is None else _resolve_spec(spec_path)
        if spec is None and subcommand != "verify-identities":
            raise SpecError(f"subcommand {subcommand!r} needs --spec")
        _check_tolerances(spec, tol_scale)
        ctx = Run(
            report=ResidualReport(
                name=spec.name if spec else "canonical-constants",
                subcommand=subcommand,
                seed=seed if seed is not None else (spec.seed if spec else 0),
            ),
            spec=spec,
            seed=seed,
            fd_step=fd_step,
            tol_scale=tol_scale,
        )
        with np.errstate(all="ignore"):  # a non-finite value fails its check
            for stage in STAGES[subcommand]:
                stage(ctx)
    except (SpecError, ParseError, ScenarioError, EvaluationError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    report = ctx.report
    payload = report.to_json() if fmt == "json" else report.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        stream.write(payload)
    if not report.overall_pass:
        failing = ", ".join(report.failing())
        print(f"failed checks: {failing}", file=sys.stderr)
        return 1
    return 0


def _check_tolerances(spec, tol_scale):
    """Every tolerance the stages use, scaled, must be a finite number."""
    for name, base in (("identity", IDENTITY_TOL), *(spec.tolerances.items() if spec else ())):
        if not math.isfinite(base * tol_scale):
            raise SpecError(
                f"tolerance {name} {base!r} scaled by {tol_scale!r} is not a finite number"
            )


def _resolve_spec(spec_path) -> ScenarioSpec:
    if isinstance(spec_path, ScenarioSpec):
        return spec_path
    text = str(spec_path)
    if not text.endswith(".json") and not os.path.exists(text):
        return bundled_scenario(text)
    return load_scenario_spec(text)


def _is_number(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


FORMATS = ("json", "text")

# run() argument -> (cast of a flag's text, predicate, requirement).
# The flags and run() check values with the same predicates; a seed or
# FD step of None takes the spec's.
ARGUMENTS = {
    "seed": (
        int,
        lambda v: v is None or isinstance(v, numbers.Integral) and _is_number(v) and v >= 0,
        "a non-negative integer",
    ),
    "fd_step": (float, lambda v: v is None or _is_number(v) and 0.0 < v <= 0.1,
                "a number in (0, 0.1]"),
    "tol_scale": (float, lambda v: _is_number(v) and 0.0 < v < math.inf,
                  "a positive finite number"),
    "fmt": (str, lambda v: isinstance(v, str) and v in FORMATS, "json or text"),
}


def _flag_type(argument, env):
    """argparse type of a flag for one run() argument, which
    SPINTENSOR_<env> may also set.

    argparse passes an environment default through the same type, so a
    bad override fails exactly like a bad flag.
    """
    cast, valid, requirement = ARGUMENTS[argument]

    def convert(text):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {requirement} (flag or {ENV_PREFIX}{env})"
            )
        return value

    return convert


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Bad flags and overrides: one stderr line, exit 2."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="spintensor",
        description="Build metric spinor connections and report identity residuals.",
        epilog=(
            "Bundled scenarios: " + ", ".join(bundled_scenario_names()) + ". "
            "Environment overrides: SPINTENSOR_SPEC, SPINTENSOR_OUT, "
            "SPINTENSOR_SEED, SPINTENSOR_FD_STEP, SPINTENSOR_TOL_SCALE, "
            "SPINTENSOR_FORMAT."
        ),
    )

    def env(name, fallback=None):
        return os.environ.get(ENV_PREFIX + name, fallback)

    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument(
        "--spec",
        default=env("SPEC"),
        help="scenario spec path or bundled scenario name",
    )
    parser.add_argument("--out", default=env("OUT"),
                        help="write the report here instead of stdout")
    parser.add_argument("--seed", default=env("SEED"), type=_flag_type("seed", "SEED"))
    parser.add_argument(
        "--fd-step", default=env("FD_STEP"), type=_flag_type("fd_step", "FD_STEP"),
        help="step of the raw finite-difference Christoffel oracle only",
    )
    parser.add_argument(
        "--tol-scale", default=env("TOL_SCALE", "1.0"), type=_flag_type("tol_scale", "TOL_SCALE"),
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=env("FORMAT", "json"),
        type=_flag_type("fmt", "FORMAT"),
    )
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return run(
        args.subcommand,
        spec_path=args.spec,
        seed=args.seed,
        fd_step=args.fd_step,
        tol_scale=args.tol_scale,
        out=args.out,
        fmt=args.format,
    )


if __name__ == "__main__":
    sys.exit(main())
