"""Scenario catalog: spec files, deformations and oracles.

A scenario spec is a JSON document describing a coordinate metric,
an optional tangent frame and torsion (all as expression grids),
sample points, tolerances and an optional seeded frame deformation.
load_scenario_spec parses the grids once, to fail fast, and the spec
holds the parsed fields; loaders turn a spec into ChiralScenario /
DiracScenario objects on those same fields, so the two modes of a spec
share them and parse nothing again.  The deformation
helpers produce smooth seeded transitions as matrix exponentials of
low-degree polynomial matrix fields.  Transitions are chiral: a
deformed scenario is its base plus one (ChiralScenario.transition),
whose spinor part a Dirac table lifts (DiracScenario.spinor_transition),
and ChiralScenario.deform_jets moves a held table by another.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .chiral import ChiralScenario
from .dirac_connection import DiracScenario
from .expressions import ParseError
from .frames import FrameField, FrameTransition, MatrixField, einsum

SPEC_SCHEMA = "scenario-spec/1"

DEFAULT_TOLERANCES = {"concordance": 1e-6, "covariance": 1e-5}


class SpecError(ValueError):
    """Malformed scenario spec (bad file, schema, field or expression)."""


@dataclass
class ScenarioSpec:
    """Validated scenario description.

    metric_field, frame_field and torsion_field are the metric, frame
    and torsion grids parsed once, by load_scenario_spec, and every
    scenario of the spec evaluates those fields; a spec's grids are not
    reassigned after it is loaded, so the two never disagree.
    """

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
    metric_field: MatrixField = field(default=None, repr=False, compare=False)
    frame_field: FrameField = field(default=None, repr=False, compare=False)
    torsion_field: MatrixField = field(default=None, repr=False, compare=False)

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
        except UnicodeDecodeError as exc:
            raise SpecError(f"spec is not UTF-8 text: {exc}") from exc
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested past the decoder's depth
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
    # fail fast on bad expressions; the spec keeps the parsed fields
    try:
        metric_field, frame_field = _metric_field(metric), _frame_field(frame)
        torsion_field = _torsion_field(torsion)
    except ParseError as exc:
        raise SpecError(f"bad expression in spec: {exc}") from exc
    return ScenarioSpec(
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
        metric_field=metric_field,
        frame_field=frame_field,
        torsion_field=torsion_field,
    )


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


def _metric_field(grid) -> MatrixField:
    if grid == "minkowski":
        return MatrixField.constant(np.diag([1.0, -1.0, -1.0, -1.0]))
    return MatrixField.from_expressions(grid)


def _frame_field(grid) -> FrameField:
    if grid is None:
        return FrameField.coordinate()
    return FrameField.from_expressions(grid)


def _torsion_field(grid):
    if grid is None:
        return None
    return MatrixField.from_expressions(grid)


def chiral_scenario_from_spec(spec: ScenarioSpec) -> ChiralScenario:
    return _spec_scenario(spec, ChiralScenario)


def dirac_scenario_from_spec(spec: ScenarioSpec) -> DiracScenario:
    return _spec_scenario(spec, DiracScenario)


def _spec_scenario(spec: ScenarioSpec, cls):
    """The spec's scenario on its parsed fields, deformed by the spec's
    chiral transition if it has one (random_transition of its deform
    seed, else the spec's seed; a Dirac table lifts it).  Nothing
    is evaluated here: its first table's tangent half
    (ChiralScenario.tangent_jets) evaluates and checks the base entries,
    then the transition."""
    transition = None
    if spec.deform:
        transition = random_transition(seed=spec.deform.get("seed", spec.seed),
                                       scale=float(spec.deform.get("scale", 0.15)),
                                       tangent=spec.deform.get("tangent", True))
    return cls(spec.sample_points, spec.frame_field, spec.metric_field,
               torsion=spec.torsion_field, transition=transition)


# --- seeded smooth transitions ---------------------------------------


# Higham (2005), Table 2.3: the largest 1-norm at which the degree-m
# Padé approximant of exp meets double-precision unit roundoff
PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
              7: 9.504178996162932e-1, 9: 2.097847961257068e0,
              13: 5.371920351148152e0}


def _pade_coefficients(m):
    """b_0..b_m of the degree-m diagonal Padé approximant of exp, b_m = 1."""
    return [float(math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j)))
            for j in range(m + 1)]


PADE_COEFFICIENTS = {m: _pade_coefficients(m) for m in PADE_THETA}
# matrices per Padé evaluation: its temporaries are about ten times its
# input, so a large stack is evaluated in parts of this many
EXPM_CHUNK = 256


def _pade(a, m):
    """r_m(a) = (V - U)^-1 (V + U) for a stack a of shape (k, n, n)."""
    b = PADE_COEFFICIENTS[m]
    ident = np.eye(a.shape[-1])
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    else:
        powers = [ident, a2]  # a^0, a^2, ..., a^(m - 1)
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * j + 1] * p for j, p in enumerate(powers))
        v = sum(b[2 * j] * p for j, p in enumerate(powers))
    return np.linalg.solve(v - u, v + u)


def expm(a):
    """The matrix exponential over the last two axes of a, by scaling
    and squaring (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).

    Each matrix picks its own Padé degree m in 3, 5, 7, 9, 13 from its
    own 1-norm, and is scaled by 2^-s only at degree 13; the matrices
    that share (m, s) are evaluated as one stack.  So each entry of a
    stack is exactly the exponential of that matrix alone, whatever
    its stack-mates are.  A matrix whose 1-norm is not finite (a
    non-finite entry, or one past the float range) has an all-NaN
    exponential; one whose exponential overflows leaves non-finite
    values, with numpy's overflow warnings unless errstate silences
    them.
    """
    a = np.asarray(a)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=False)
    flat = a.reshape((-1,) + a.shape[-2:])
    norm = np.abs(flat).sum(axis=-2).max(axis=-1)
    degree = np.full(norm.shape, 13)
    for m in (9, 7, 5, 3):
        degree[norm <= PADE_THETA[m]] = m
    # s = ceil(log2(norm / theta_13)) from norm / theta_13 = f 2^e, 0.5 <= f < 1
    fraction, exponent = np.frexp(norm / PADE_THETA[13])
    scale = np.where(degree == 13, np.maximum(exponent - (fraction == 0.5), 0), 0)
    finite = np.isfinite(norm)
    out = np.full(flat.shape, np.nan, dtype=flat.dtype)
    for m, s in sorted(set(zip(degree[finite].tolist(), scale[finite].tolist()))):
        index = np.flatnonzero(finite & (degree == m) & (scale == s))
        for start in range(0, len(index), EXPM_CHUNK):
            part = index[start:start + EXPM_CHUNK]
            r = _pade(flat[part] * 2.0 ** -s, m)
            for _ in range(s):
                r = r @ r
            out[part] = r
    return out.reshape(a.shape)


def _polynomial_draws(rng, dim, scale, real):
    """Seeded coefficients (C, [L_0..L_3]) of a degree-1 polynomial matrix
    field, whose exponential is smooth and invertible."""

    def draw():
        raw = rng.standard_normal((dim, dim))
        if not real:
            raw = raw + 1j * rng.standard_normal((dim, dim))
        return scale * raw

    const = draw()
    return const, [0.5 * draw() for _ in range(4)]


def exp_linear_field(const, linear) -> MatrixField:
    """The field exp(C + sum_a x^a L_a) with its exact partials.

    One stacked expm call serves a whole batch of points.  C and each
    L_a may carry leading stack axes K, shape (*K, n, n): the field is
    then a stack of fields, entry k evaluated at the points whose batch
    index starts with k (points of batch shape (*K, ...)).  An overflow
    leaves non-finite values, which FrameTransition.jets rejects.
    """
    dim = const.shape[-1]
    stack = const.shape[:-2]

    @np.errstate(all="ignore")
    def jet(points, deriv=True):
        x = np.asarray(points, dtype=float)
        # the stack axes lead the batch; the coefficients broadcast over the rest
        lead = stack + (1,) * (x.ndim - 1 - len(stack)) + (dim, dim)
        coeffs = [np.reshape(c, lead) for c in linear]
        mat = np.broadcast_to(np.reshape(const, lead), x.shape[:-1] + (dim, dim))
        for a in range(4):
            mat = mat + x[..., a, None, None] * coeffs[a]
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
        block[..., :dim, dim:] = np.concatenate(coeffs, axis=-1)
        top = expm(block)[..., :dim, :]
        d = top[..., dim:].reshape(mat.shape[:-2] + (dim, 4, dim))
        return top[..., :dim], np.moveaxis(d, -2, -3)

    return MatrixField(jet)


def random_transition(seed, scale=0.15, tangent=True) -> FrameTransition:
    """Seeded smooth chiral frame transition (tangent + 2x2 spinor parts).

    seed is one seed, or a sequence of seeds: then S and Ss stack the
    transition of each seed along a leading axis (exp_linear_field),
    each drawn from its own default_rng(seed) exactly as alone.
    """
    stacked = not isinstance(seed, numbers.Integral)
    spin, tan = [], []
    for one in (seed if stacked else (seed,)):
        rng = np.random.default_rng(one)
        spin.append(_polynomial_draws(rng, 2, scale, real=False))
        if tangent:
            tan.append(_polynomial_draws(rng, 4, scale, real=True))

    def exp_field(draws):
        combine = np.stack if stacked else (lambda arrays: arrays[0])
        consts, linears = zip(*draws)
        return exp_linear_field(combine(consts), [combine([l[a] for l in linears])
                                                  for a in range(4)])

    tan = exp_field(tan) if tangent else MatrixField.constant(np.eye(4))
    return FrameTransition(tan, exp_field(spin))


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
