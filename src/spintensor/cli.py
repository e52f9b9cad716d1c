"""Command-line front end: scenario ingestion and residual reports.

STAGES maps each subcommand to its stages: verify-identities (constant
identity suites, no scenario needed), build-connection (coefficient
tables at the sample points), concordance (covariant-constancy residual
suites), covariance (seeded frame-deformation transformation-law check)
and all (the four in that order).  The stages of one run share its
report and, for each mode, its scenario, table and connection (MODES,
Run.mode), and read the seed, FD step and scaled tolerances that Run
resolves once from run()'s overrides and the spec.  A spec is checked
when it is made (ScenarioSpec), whether loaded or built in code.

Exit codes: 0 every check passed, 1 a numerical check failed (a
non-finite residual fails its check; a consistency check, a singular
matrix or non-finite connection in a build, a tangent oracle whose
finite-difference steps leave the metric's domain, or a failing seeded
frame change of covariance fails on one stderr line), 2 the spec, a
flag or an environment override could not be read or parsed, the
scenario cannot be built (one stderr line names the field and the
point) or the report cannot be written to --out.
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
to the timestamp field.  The per-point coefficient tables of
build-connection hold float arrays until the report is written, and
one writer (dump_json) produces exactly the bytes of json.dumps(report,
indent=2, sort_keys=True, allow_nan=False) with each array as its
nested list, at the cost of formatting its floats.

Each run evaluates a mode's table (scenario.jets) once, at all sample
points as one batch, and builds its connection once; every stage reads
them.  The tangent half of those tables (the frame, the frame metric
and its orthonormal factor, the torsion, g^-1, the tangent
coefficients Gamma and the spec's transition jets;
ChiralScenario.tangent_jets) is evaluated once per run, by the first
mode (Run.tangent): the chiral and Dirac tables hold the same tangent
entries, the Dirac table lifts the held chiral transition, and both
builders read the same Gamma.  Concordance computes the tangent part
of its residuals, nabla g, once for both modes.  The tables are also
where the scenario is checked: constructing a scenario evaluates
nothing.  A failure names its first failing point once.
"""

from __future__ import annotations

import argparse
import functools
import math
import numbers
import os
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from .chiral import (
    ScenarioError,
    build_chiral_metric_connection,
    canonical_chiral_constants,
    concordance_residuals,
    tangent_concordance,
    transform_connection,
    verify_chiral_identities,
    worst_residual,
)
from .dirac import (
    canonical_dirac_constants,
    embed_chiral_frame,
    frame_inversion,
    transform_table,
    verify_dirac_identities,
)
from .dirac_connection import (
    build_dirac_metric_connection,
    chirality_split,
    restrict_to_chiral,
)
from .expressions import EvaluationError, ParseError
from .frames import NumericalError, check_points, point_label, theta_parameters
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
    """Accumulated residual checks for one CLI invocation.

    tables maps a table name to its per-point entries, whose coefficient
    tables stay float64 arrays until to_json writes them (dump_json):
    the bytes are those of json.dumps(indent=2, sort_keys=True) on the
    report with every array as its nested list.
    """

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
        return dump_json(self.to_dict()) + "\n"

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
    return {"re": arr.real, "im": arr.imag}


# --- report writer ----------------------------------------------------


def dump_json(value):
    """json.dumps(value, indent=2, sort_keys=True, allow_nan=False), where
    value may also hold float64 arrays, written as their nested lists.

    Dicts, lists and scalars are written directly into one list of
    parts, in json's type order; an array's elements (ndarray.tolist)
    fill the template of its shape (_layout) in one pass.  The errors
    are json's: a non-finite float raises ValueError, and an array that
    is not float64, a key that is not a string or a value of any other
    type raises TypeError.
    """
    parts = []
    _write(value, 0, parts)
    return "".join(parts)


def _write(value, level, parts):
    if isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        parts.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        inner = "\n" + "  " * (level + 1)
        mark = "["
        for item in value:
            parts += (mark, inner)
            _write(item, level + 1, parts)
            mark = ","
        parts.append("[]" if mark == "[" else "\n" + "  " * level + "]")
    elif isinstance(value, dict):
        # a key that is not a string fails sorted or encode_basestring_ascii
        inner = "\n" + "  " * (level + 1)
        mark = "{"
        for key in sorted(value):
            parts += (mark, inner, encode_basestring_ascii(key), ": ")
            _write(value[key], level + 1, parts)
            mark = ","
        parts.append("{}" if mark == "{" else "\n" + "  " * level + "}")
    elif isinstance(value, np.ndarray):
        if value.dtype != np.float64:
            raise TypeError(f"Object of type ndarray of {value.dtype} is not JSON serializable")
        flat = value.ravel()
        finite = np.isfinite(flat)
        if not finite.all():
            raise ValueError("Out of range float values are not JSON compliant: "
                             f"{float(flat[np.argmin(finite)])!r}")
        parts.append(_layout(value.shape, level) % tuple(flat.tolist()))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@functools.lru_cache(maxsize=256)
def _layout(shape, level):
    """%-template of an array of shape written at indentation level: its
    nested lists in json.dumps(indent=2)'s layout, one %r (float.__repr__,
    as json writes a float) per element in C order.  The lists along an
    axis of length 0 are written []."""
    dims = shape[:shape.index(0)] if 0 in shape else shape
    items = ["[]" if 0 in shape else "%r"] * math.prod(dims)
    for axis in reversed(range(len(dims))):
        inner = "\n" + "  " * (level + axis + 1)
        start, mark, end = "[" + inner, "," + inner, "\n" + "  " * (level + axis) + "]"
        n = dims[axis]
        items = [start + mark.join(items[i:i + n]) + end for i in range(0, len(items), n)]
    return items[0]


# --- stages -----------------------------------------------------------


@dataclass
class Run:
    """One invocation as its stages see it.

    seed and fd_step are the override, else the spec's; tolerances are
    IDENTITY_TOL ("identity") and the spec's, each scaled by tol_scale
    (a SpecError if one is not finite).  Each is resolved once, when
    the run is made, and the stages read it.
    tangent is the run's tangent half at the sample points
    (ChiralScenario.tangent_jets: the frame, the frame metric, its
    factor, the torsion, g^-1, Gamma and the spec's transition jets),
    made once by the first mode.  held maps a mode to the spec's
    scenario for it, its table at the sample points, read from the
    tangent half, and the connection built from that table, all made on
    first use (mode) and read by every later stage of the run.
    """

    report: ResidualReport
    spec: ScenarioSpec = None
    seed: int = None
    fd_step: float = None
    tol_scale: float = 1.0
    tangent: dict = None
    held: dict = field(default_factory=dict)
    tolerances: dict = field(init=False)

    def __post_init__(self):
        spec = self.spec
        if self.seed is None:
            self.seed = spec.seed if spec else 0
        if self.fd_step is None and spec:
            self.fd_step = spec.fd_step
        self.tolerances = {}
        for name, base in {"identity": IDENTITY_TOL, **(spec.tolerances if spec else {})}.items():
            self.tolerances[name] = base * self.tol_scale
            if not math.isfinite(self.tolerances[name]):
                raise SpecError(f"tolerance {name} {base!r} scaled by {self.tol_scale!r} "
                                "is not a finite number")

    def mode(self, mode):
        """(scenario, table, connection) of mode, made once per run."""
        if mode not in self.held:
            loader, build = MODES[mode]
            scenario = loader(self.spec)
            points = scenario.points
            if self.tangent is None:
                self.tangent = scenario.tangent_jets(points)
            jets = scenario.jets(points, self.tangent)
            self.held[mode] = (scenario, jets, build(jets, points))
        return self.held[mode]


INVERSIONS = ("P", "T", "PT")


def run_verify_identities(ctx: Run):
    """Constant identity suites, canonically and after P/T/PT inversions.

    Each canonical table is built once and the chiral suite runs once on
    it.  The Dirac tables of the canonical frame and of the three
    inverted frames are one stack, made by one transform_table of the
    stacked spinor matrices (identity, P, T, PT), and the Dirac suite
    runs once over that stack.  The chirality split of the canonical
    Dirac table and the chiral embedding each record the NaN-keeping
    maximum of their residuals as one check.
    """
    report = ctx.report
    tol = ctx.tolerances["identity"]
    for check, value in verify_chiral_identities(canonical_chiral_constants()).items():
        report.record(f"chiral-{check}", value, tol, 1)
    dirac = canonical_dirac_constants()
    spins = np.stack([np.eye(4)] + [frame_inversion(kind) for kind in INVERSIONS])
    suite = verify_dirac_identities(transform_table(dirac, spins))
    for check, values in suite.items():
        report.record(f"dirac-{check}", values[0], tol, 1)
    for check, residuals in (("chirality-split", chirality_split(dirac)),
                             ("chiral-embedding", embed_chiral_frame())):
        worst = worst_residual(0.0, list(residuals.values()))
        report.record(f"dirac-{check}-suite", worst, tol, 1)
    for frame, kind in enumerate(INVERSIONS, start=1):
        for check, values in suite.items():
            report.record(f"dirac-after-{kind}-{check}", values[frame], tol, 1)


def run_build_connection(ctx: Run):
    """Emit coefficient tables at every sample point.

    When the spec uses the coordinate frame, no deformation and no
    torsion, a raw finite-difference Christoffel table (step
    Run.fd_step; torsion-free and independent of the builders) is
    emitted next to the tangent coefficients and their agreement is
    recorded as a check.  Each mode's connection is the run's
    (Run.mode) and the oracle is built once per run, for all points,
    from the first mode's coordinate metric (scenario.g) after that
    mode's connection is checked; the per-point tables are slices of
    those batches, with every exact zero written as 0.0, never -0.0.  A
    connection that is not finite, or an oracle whose finite-difference
    steps leave the metric's domain, is a numerical failure.
    """
    spec = ctx.spec
    has_oracle = spec.frame is None and not spec.deform and spec.torsion is None
    oracle = None
    for mode in spec.modes:
        scenario, _, conn = ctx.mode(mode)
        points = scenario.points
        check_points(~np.isfinite(conn.A).all(axis=(-3, -2, -1)), points,
                     f"{mode} connection is not finite")
        # + 0.0 writes an exact zero as 0.0, whichever sign its terms left
        gamma, a, abar = conn.Gamma + 0.0, conn.A + 0.0, conn.Abar + 0.0
        entries = [
            {
                "point": point,
                "tangent": gamma[k],
                "spinor": _complex_table(a[k]),
                "conjugate-spinor": _complex_table(abar[k]),
            }
            for k, point in enumerate(points.tolist())
        ]
        if has_oracle:
            if oracle is None:
                try:
                    oracle = coordinate_christoffel(scenario.g, points, step=ctx.fd_step)
                except EvaluationError as exc:
                    raise NumericalError(
                        f"tangent-oracle at {point_label(points, exc.index)}: {exc}") from exc
            for entry, table in zip(entries, oracle + 0.0):
                entry["tangent-oracle"] = table
            worst = worst_residual(0.0, conn.Gamma - oracle)
            ctx.report.record(f"{mode}-tangent-oracle", worst, 1e-5, len(entries))
        ctx.report.tables[f"{mode}-connection"] = entries


def run_concordance(ctx: Run):
    """Concordance residual suites of each mode.  The tangent part,
    nabla g, is the same for both modes: it is computed once, from the
    first mode's table and connection."""
    tol = ctx.tolerances["concordance"]
    npoints = len(ctx.spec.sample_points)
    nabla_g = None
    for mode in ctx.spec.modes:
        scenario, jets, conn = ctx.mode(mode)
        if nabla_g is None:
            nabla_g = tangent_concordance(jets, conn)
        residuals = concordance_residuals(scenario, jets, conn, nabla_g)
        for check, value in residuals.items():
            ctx.report.record(f"{mode}-{check}", value, tol, npoints)


def run_covariance(ctx: Run):
    """Transformation-law round trip under seeded smooth deformations.

    The connection built directly in the deformed frame, mapped back
    through the transformation law with theta-parameters, must agree
    with the connection built in the original frame.  The base table and
    connection, and the Dirac connection, are the run's (Run.mode).  The
    three seed offsets are one stack of transitions (random_transition
    of three seeds), evaluated once at the sample points broadcast to a
    (3, N) batch: the base table is deformed, the moved connection
    built, theta derived and the back-transform taken once over that
    batch.  A failing check of a moved table, connection or theta is a
    numerical failure naming the seed of its batch index: the input is
    valid.  Of several failures, the first check in that order fails,
    at its first seed offset, then its first point.  With the Dirac
    mode, dirac-chiral-restriction compares the chiral block of the
    run's base-frame Dirac connection (restrict_to_chiral) with the
    base chiral connection: no Dirac table is moved, so this stage does
    not check the Dirac transformation law.
    """
    spec = ctx.spec
    tol = ctx.tolerances["covariance"]
    base, base_jets, conn_base = ctx.mode("chiral")
    points = base.points
    npoints = len(spec.sample_points)
    seeds = [ctx.seed + offset for offset in range(3)]
    stacked = np.broadcast_to(points, (len(seeds),) + points.shape)
    try:
        moved, trans_jets = base.deform_jets(base_jets, random_transition(seeds), stacked)
        conn_moved = build_chiral_metric_connection(moved, stacked)
        theta = theta_parameters(trans_jets, base_jets["frame"], stacked)
    except (ScenarioError, NumericalError) as exc:
        raise NumericalError(f"seeded deformation {seeds[exc.index[0]]}: {exc}") from exc
    back = transform_connection(conn_moved, trans_jets, theta)
    worst = 0.0
    for ours, theirs in (
        (back.Gamma, conn_base.Gamma), (back.A, conn_base.A), (back.Abar, conn_base.Abar)
    ):
        worst = worst_residual(worst, ours - theirs)
    ctx.report.record("chiral-transformation-law", worst, tol, len(seeds) * npoints)
    if "dirac" in spec.modes:
        _, _, conn = ctx.mode("dirac")
        # the base-frame Dirac connection, restricted to its chiral
        # block, against the base chiral connection; nothing is moved
        restricted = restrict_to_chiral(conn, points)
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
        ctx = Run(
            report=ResidualReport(spec.name if spec else "canonical-constants", subcommand),
            spec=spec,
            seed=seed,
            fd_step=fd_step,
            tol_scale=tol_scale,
        )
        ctx.report.seed = ctx.seed
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
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(payload)
        except OSError as exc:
            print(f"bad input: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        stream.write(payload)
    if not report.overall_pass:
        failing = ", ".join(report.failing())
        print(f"failed checks: {failing}", file=sys.stderr)
        return 1
    return 0


def _resolve_spec(spec_path) -> ScenarioSpec:
    """The spec of a ScenarioSpec, a bundled scenario's name or a spec
    file's path (a str or a PathLike).  Any other value raises a
    SpecError that names its type, not its repr, which may be a whole
    spec's."""
    if isinstance(spec_path, ScenarioSpec):
        return spec_path
    text = os.fspath(spec_path) if isinstance(spec_path, (str, os.PathLike)) else None
    if not isinstance(text, str):
        raise SpecError("spec must be a bundled scenario name, a path or a ScenarioSpec, "
                        f"not {type(spec_path).__name__}")
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
