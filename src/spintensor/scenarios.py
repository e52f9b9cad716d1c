"""Scenario catalog: spec files, deformations and oracles.

A scenario spec is a JSON document describing a chart, a coordinate
metric, an optional tangent frame and torsion (all as expression
grids), sample points, tolerances and an optional seeded frame
deformation.  Loaders turn specs into ChiralScenario / DiracScenario
objects; the deformation helpers produce smooth seeded transitions as
matrix exponentials of low-degree polynomial matrix fields.  A deformed
scenario is its base scenario plus one transition: its table is the
base table moved entry by entry with one evaluation of the transition.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .chiral import ChiralScenario
from .dirac_connection import DiracScenario
from .expressions import ParseError
from .frames import (
    Chart,
    FrameField,
    FrameTransition,
    MatrixField,
    check_frame,
    einsum,
    einsum_field,
    inverse_jet,
)

SPEC_SCHEMA = "scenario-spec/1"

DEFAULT_TOLERANCES = {"concordance": 1e-6, "covariance": 1e-5}


class SpecError(ValueError):
    """Malformed scenario spec (bad file, schema, field or expression)."""


@dataclass
class ScenarioSpec:
    """Validated scenario description."""

    name: str
    mode: str  # "chiral" | "dirac" | "both"
    metric: object  # "minkowski" or 4x4 grid of expression strings
    frame: object = None  # None (identity) or 4x4 grid of expressions
    torsion: object = None
    sample_points: list = field(default_factory=list)
    fd_step: float = 1e-4
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 0
    deform: dict = None

    @property
    def modes(self):
        return ("chiral", "dirac") if self.mode == "both" else (self.mode,)


def load_scenario_spec(source) -> ScenarioSpec:
    """Load and validate a spec from a path, JSON text or dict."""
    if isinstance(source, dict):
        data = source
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise SpecError(f"cannot read spec: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    if data.get("schema") != SPEC_SCHEMA:
        raise SpecError(f"spec schema must be {SPEC_SCHEMA!r}, got {data.get('schema')!r}")
    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise SpecError("spec needs a non-empty 'name'")
    mode = data.get("mode", "both")
    if mode not in ("chiral", "dirac", "both"):
        raise SpecError("mode must be 'chiral', 'dirac' or 'both'")
    metric = data.get("metric", "minkowski")
    if metric != "minkowski":
        _require_grid(metric, (4, 4), "metric")
    frame = data.get("frame")
    if frame is not None:
        _require_grid(frame, (4, 4), "frame")
    torsion = data.get("torsion")
    if torsion is not None:
        _require_grid(torsion, (4, 4, 4), "torsion")
    points = data.get("sample_points")
    if not isinstance(points, list) or not points:
        raise SpecError("spec needs a non-empty 'sample_points' list")
    for p in points:
        if not (isinstance(p, list) and len(p) == 4 and all(map(_is_finite, p))):
            raise SpecError(f"each sample point must be a list of 4 finite numbers, got {p!r}")
    fd_step = data.get("fd_step", 1e-4)
    _check("fd_step", fd_step, _is_finite(fd_step) and 0 < fd_step <= 0.1, "a number in (0, 0.1]")
    tolerances = _object(data, "tolerances", DEFAULT_TOLERANCES)
    for key, value in tolerances.items():
        _check(f"tolerances.{key}", value, _is_finite(value) and value > 0, "a finite number > 0")
    deform = _object(data, "deform", ("seed", "scale", "tangent"))
    scale = deform.get("scale", 0.15)
    _check("deform.scale", scale, _is_finite(scale) and scale > 0, "a finite number > 0")
    tangent = deform.get("tangent", True)
    _check("deform.tangent", tangent, isinstance(tangent, bool), "true or false")
    for label, seed in (("seed", data.get("seed", 0)), ("deform.seed", deform.get("seed", 0))):
        is_int = isinstance(seed, int) and not isinstance(seed, bool)
        _check(label, seed, is_int and seed >= 0, "a non-negative integer")
    spec = ScenarioSpec(
        name=name,
        mode=mode,
        metric=metric,
        frame=frame,
        torsion=torsion,
        sample_points=[[float(c) for c in p] for p in points],
        fd_step=fd_step,
        tolerances={**DEFAULT_TOLERANCES, **tolerances},
        seed=data.get("seed", 0),
        deform=deform or None,
    )
    # fail fast on bad expressions
    try:
        _metric_field(spec)
        _frame_field(spec)
        _torsion_field(spec)
    except ParseError as exc:
        raise SpecError(f"bad expression in spec: {exc}") from exc
    return spec


def _is_finite(value):
    """A JSON number (not a boolean) that converts to a finite float."""
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return is_number and abs(value) <= sys.float_info.max


def _check(label, value, ok, requirement):
    if not ok:
        raise SpecError(f"{label} must be {requirement}, got {value!r}")


def _object(data, key, known):
    """The optional object data[key] ({} when absent), with only known keys."""
    value = data.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise SpecError(f"'{key}' must be an object")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise SpecError(f"unknown {key} key(s) {unknown}; have {sorted(known)}")
    return value


def _require_grid(grid, shape, label):
    arr = np.asarray(grid, dtype=object)
    if arr.shape != shape:
        raise SpecError(f"{label} must be a {'x'.join(map(str, shape))} array")
    for cell in arr.ravel():
        if not (isinstance(cell, str) or _is_finite(cell)):
            raise SpecError(f"{label} entries must be finite numbers or expression strings")


def bundled_scenario_names():
    package = resources.files("spintensor") / "scenarios"
    return sorted(p.name[:-5] for p in package.iterdir() if p.name.endswith(".json"))


def bundled_scenario(name) -> ScenarioSpec:
    package = resources.files("spintensor") / "scenarios"
    target = package / f"{name}.json"
    if not target.is_file():
        raise SpecError(
            f"unknown bundled scenario {name!r}; have {bundled_scenario_names()}"
        )
    return load_scenario_spec(json.loads(target.read_text(encoding="utf-8")))


# --- fields from specs -----------------------------------------------


def _metric_field(spec: ScenarioSpec) -> MatrixField:
    if spec.metric == "minkowski":
        return MatrixField.constant(np.diag([1.0, -1.0, -1.0, -1.0]))
    return MatrixField.from_expressions(spec.metric)


def _frame_field(spec: ScenarioSpec) -> FrameField:
    if spec.frame is None:
        return FrameField.coordinate()
    return FrameField.from_expressions(spec.frame)


def _torsion_field(spec: ScenarioSpec):
    if spec.torsion is None:
        return None
    return MatrixField.from_expressions(spec.torsion)


def frame_metric_field(g_coord: MatrixField, frame: FrameField) -> MatrixField:
    """Frame components of a coordinate metric: U^T g U."""
    u = frame.components
    return einsum_field("ai,ab,bj->ij", u, g_coord, u)


def chiral_scenario_from_spec(spec: ScenarioSpec) -> ChiralScenario:
    scenario = _base_scenario(spec, ChiralScenario)
    if spec.deform:
        trans = spec_transition(spec, spinor_dim=2)
        scenario = deform_scenario(scenario, trans)
    return scenario


def dirac_scenario_from_spec(spec: ScenarioSpec) -> DiracScenario:
    scenario = _base_scenario(spec, DiracScenario)
    if spec.deform:
        chiral_trans = spec_transition(spec, spinor_dim=2)
        trans = embedded_dirac_transition(chiral_trans)
        scenario = deform_scenario(scenario, trans)
    return scenario


def _base_scenario(spec: ScenarioSpec, cls):
    chart = Chart(sample_points=spec.sample_points, fd_step=spec.fd_step)
    frame = _frame_field(spec)
    g = frame_metric_field(_metric_field(spec), frame)
    return cls(chart, frame, g, torsion=_torsion_field(spec))


def spec_transition(spec: ScenarioSpec, spinor_dim=2) -> FrameTransition:
    deform = spec.deform or {}
    return random_transition(
        seed=deform.get("seed", spec.seed),
        spinor_dim=spinor_dim,
        scale=float(deform.get("scale", 0.15)),
        tangent=deform.get("tangent", True),
    )


# --- seeded smooth transitions ---------------------------------------


def expm(a):
    """scipy.linalg.expm over the last two axes of a.

    scipy.linalg is imported on the first call: it is most of the
    package's import time and only seeded transitions need it.
    """
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


def _polynomial_exp_field(rng, dim, scale, real):
    """exp of a seeded degree-1 polynomial matrix field: smooth, invertible."""

    def draw():
        raw = rng.standard_normal((dim, dim))
        if not real:
            raw = raw + 1j * rng.standard_normal((dim, dim))
        return scale * raw

    const = draw()
    return exp_linear_field(const, [0.5 * draw() for _ in range(4)])


def exp_linear_field(const, linear) -> MatrixField:
    """The field exp(C + sum_a x^a L_a) with its exact partials.

    One stacked expm call serves a whole batch of points.  An overflow
    leaves non-finite values, which FrameTransition.jets rejects.
    """
    dim = const.shape[0]

    @np.errstate(all="ignore")
    def jet(points, deriv=True):
        x = np.asarray(points, dtype=float)
        mat = np.broadcast_to(const, x.shape[:-1] + const.shape)
        for a in range(4):
            mat = mat + x[..., a, None, None] * linear[a]
        if not deriv:
            return expm(mat), None
        # The exponential of the block upper-triangular matrix with M on
        # the diagonal and L_0..L_3 in the first block row has the top
        # block row [e^M, L(M, L_0), ..., L(M, L_3)]: the value and the
        # exact Frechet derivatives along every coordinate in one call
        # (Van Loan, IEEE TAC 23(3), 1978).
        block = np.zeros(mat.shape[:-2] + (5 * dim, 5 * dim), dtype=mat.dtype)
        for k in range(5):
            block[..., k * dim:(k + 1) * dim, k * dim:(k + 1) * dim] = mat
        block[..., :dim, dim:] = np.hstack(linear)
        top = expm(block)[..., :dim, :]
        d = top[..., dim:].reshape(mat.shape[:-2] + (dim, 4, dim))
        return top[..., :dim], np.moveaxis(d, -2, -3)

    return MatrixField(jet)


def random_transition(seed, spinor_dim=2, scale=0.15, tangent=True) -> FrameTransition:
    """Seeded smooth frame transition (tangent + spinor parts)."""
    rng = np.random.default_rng(seed)
    spin = _polynomial_exp_field(rng, spinor_dim, scale, real=False)
    if tangent:
        tan = _polynomial_exp_field(rng, 4, scale, real=True)
    else:
        tan = MatrixField.constant(np.eye(4))
    return FrameTransition(tan, spin, spinor_dim=spinor_dim)


def embedded_dirac_transition(chiral: FrameTransition) -> FrameTransition:
    """Lift a chiral transition to the Dirac bundle.

    The spinor part becomes blockdiag(Ss, (Ss^dagger)^-1): the last two
    Dirac frame vectors are the barred dual co-frame, which transforms
    with the conjugate inverse transpose.  This keeps the canonical
    spin-metric block layout, the chirality operator and the pairing
    intact, so the deformed frame stays canonically chiral.
    """
    if chiral.spinor_dim != 2:
        raise ValueError("expected a chiral transition")

    def spin(points, deriv=True):
        top, dtop = check_frame(chiral.Ss.jet(points, deriv), points)
        dual, ddual = inverse_jet(
            (_adjoint(top), None if dtop is None else _adjoint(dtop))
        )
        out = np.zeros(top.shape[:-2] + (4, 4), dtype=complex)
        out[..., :2, :2] = top
        out[..., 2:, 2:] = dual
        if not deriv:
            return out, None
        d = np.zeros(dtop.shape[:-2] + (4, 4), dtype=complex)
        d[..., :2, :2] = dtop
        d[..., 2:, 2:] = ddual
        return out, d

    return FrameTransition(chiral.S, MatrixField(spin), spinor_dim=4)


def _adjoint(mat):
    """Conjugate transpose over the last two axes."""
    return np.conj(np.swapaxes(mat, -1, -2))


# --- scenario deformation --------------------------------------------


def deform_scenario(scenario, trans: FrameTransition):
    """Scenario as seen from the frame deformed by the transition.

    The same scenario with the transition appended to its transitions,
    validated at its sample points: its table is the base table moved
    by ChiralScenario.deform_jets (the frame picks up S on the right,
    every other entry, the torsion included, is re-expressed with
    transform_components) from one evaluation of the transition.
    """
    if trans.spinor_dim != scenario.spinor_dim:
        raise ValueError("transition spinor dimension does not match scenario")
    moved = copy.copy(scenario)
    moved.transitions = scenario.transitions + (trans,)
    moved.validate()
    return moved


# --- independent cross-check -----------------------------------------


def coordinate_christoffel(g_coord: MatrixField, points, step=1e-4):
    """Plain finite-difference Christoffel symbols of a coordinate metric.

    Gamma[..., i, k, j] with derivative direction i at every point;
    deliberately computed from raw central differences of the metric
    entries, independent of the frame/Lie-derivative machinery, to
    serve as an oracle.
    """
    x = np.asarray(points, dtype=float)
    ginv = np.linalg.inv(np.real(np.asarray(g_coord(x))))
    dg = np.stack(
        [
            (np.real(np.asarray(g_coord(x + offset))) - np.real(np.asarray(g_coord(x - offset))))
            / (2.0 * step)
            for offset in step * np.eye(4)
        ],
        axis=-3,
    )
    return 0.5 * einsum("kr,ijr->ikj", ginv, dg) + 0.5 * einsum(
        "kr,jri->ikj", ginv, dg
    ) - 0.5 * einsum("kr,rij->ikj", ginv, dg)
