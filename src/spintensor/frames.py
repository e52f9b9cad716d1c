"""Charts, frame fields, jets and frame transitions.

A Chart fixes coordinates x0..x3, sample points and the step of the
raw finite-difference Christoffel oracle.  Array-valued fields carry
their value together with its four coordinate partials as one jet;
every composition propagates jets exactly (the product rule over an
einsum, the inverse rule, ...), and only a field built from a plain
callable falls back to central differences.  Frame fields give the
expansion of a tangent frame in the coordinate frame; transitions
between frames carry the tangent pair (S, T) and the spinor pair
(Ss, Ts) together with their theta-parameters.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .expressions import EvaluationError, Expression, Num
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    SpinTensorValue,
)

DEFAULT_FD_STEP = 1e-4


class NumericalError(ValueError):
    """A consistency check failed: the data is too ill-conditioned for its tolerance."""


@dataclass(frozen=True)
class Chart:
    """Coordinate chart with sample points and the oracle's FD step."""

    sample_points: tuple = ()
    fd_step: float = DEFAULT_FD_STEP

    def __post_init__(self):
        if not 0.0 < self.fd_step <= 1e-1:
            raise ValueError("fd_step must lie in (0, 0.1]")
        points = tuple(tuple(float(c) for c in p) for p in self.sample_points)
        for p in points:
            if len(p) != 4:
                raise ValueError("sample points must be 4-vectors")
        object.__setattr__(self, "sample_points", points)


class MatrixField:
    """Array-valued field (any shape, scalars included) evaluated as a jet.

    jet(point) returns (value, d) with d[a] the partial of value along
    coordinate a, so d.shape == (4, *value.shape); jet(point,
    deriv=False) returns (value, None) and computes no partials.  A
    field built from a plain callable gets central-difference partials
    with step DEFAULT_FD_STEP; compositions pass an exact jet function
    (point, deriv) -> (value, d) instead.
    """

    def __init__(self, func=None, *, jet=None):
        self._jet = jet if jet is not None else _central_difference_jet(func)

    @classmethod
    def constant(cls, array):
        array = np.asarray(array)
        zero = np.zeros((4, *array.shape), dtype=np.result_type(array, float))
        return cls(jet=lambda point, deriv=True: (array, zero if deriv else None))

    @classmethod
    def from_expressions(cls, grid):
        """Build from a (nested list of) DSL strings / Expressions / numbers."""
        grid = np.asarray(grid, dtype=object)
        shape = grid.shape
        flat = [
            cell if isinstance(cell, Expression)
            else Expression.parse(cell) if isinstance(cell, str)
            else Expression(Num(float(cell)))
            for cell in grid.ravel()
        ]

        def jet(point, deriv=True):
            value = np.array([cell(point) for cell in flat]).reshape(shape)
            if not deriv:
                return value, None
            try:
                d = [[cell.partial(a)(point) for cell in flat] for a in range(4)]
            except EvaluationError as exc:
                raise EvaluationError(f"partial derivative at {tuple(point)}: {exc}") from exc
            return value, np.array(d).reshape((4, *shape))

        return cls(jet=jet)

    def jet(self, point, deriv=True):
        return self._jet(point, deriv)

    def __call__(self, point):
        return self._jet(point, False)[0]


def _central_difference_jet(func):
    def jet(point, deriv=True):
        value = np.asarray(func(point))
        if not deriv:
            return value, None
        base = np.asarray(point, dtype=float)
        steps = DEFAULT_FD_STEP * np.eye(4)
        d = np.stack(
            [np.asarray(func(base + h)) - np.asarray(func(base - h)) for h in steps]
        ) / (2.0 * DEFAULT_FD_STEP)
        return value, d

    return jet


def einsum_jet(subscripts, *jets, deriv=True):
    """Jet of einsum(subscripts, *values) by the product rule.

    Each operand is a (value, d) jet; d None marks a constant factor.
    subscripts must name its output explicitly ("...->...").
    """
    value = np.einsum(subscripts, *(v for v, _ in jets))
    if not deriv:
        return value, None
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    a = next(c for c in string.ascii_letters if c not in subscripts)
    terms = [
        np.einsum(
            ",".join(a + s if i == k else s for i, s in enumerate(inputs)) + "->" + a + output,
            *(d if i == k else v for i, (v, _) in enumerate(jets)),
        )
        for k, (_, d) in enumerate(jets)
        if d is not None
    ]
    return value, (sum(terms) if terms else np.zeros((4, *value.shape), value.dtype))


def einsum_field(subscripts, *operands) -> MatrixField:
    """Field of einsum(subscripts, ...) over MatrixFields and constant arrays.

    A field passed more than once is evaluated once per point.
    """

    fields = {id(op): op for op in operands if isinstance(op, MatrixField)}

    def jet(point, deriv=True):
        jets = {key: field.jet(point, deriv) for key, field in fields.items()}
        return einsum_jet(
            subscripts,
            *(jets.get(id(op), (op, None)) for op in operands),
            deriv=deriv,
        )

    return MatrixField(jet=jet)


def matmul_fields(left: MatrixField, right: MatrixField) -> MatrixField:
    """Pointwise matrix product."""
    return einsum_field("ij,jk->ik", left, right)


def inverse_jet(jet):
    """Jet of a matrix inverse: d(M^-1) = -M^-1 (dM) M^-1."""
    value, d = jet
    inv = np.linalg.inv(value)
    return inv, (None if d is None else -(inv @ d @ inv))


def inverse_field(mat: MatrixField) -> MatrixField:
    """Pointwise matrix inverse."""
    return MatrixField(jet=lambda point, deriv=True: inverse_jet(mat.jet(point, deriv)))


class FrameField:
    """Expansion U[j, i] of frame vector i in the coordinate frame.

    Column i holds the coordinate components of the i-th frame vector.
    """

    def __init__(self, components: MatrixField, det_floor=1e-8):
        self.components = components
        self.det_floor = det_floor

    @classmethod
    def coordinate(cls):
        return cls(MatrixField.constant(np.eye(4)))

    @classmethod
    def from_expressions(cls, grid):
        return cls(MatrixField.from_expressions(grid))

    def __call__(self, point):
        return self.jet(point, deriv=False)[0]

    def jet(self, point, deriv=True):
        mat, d = self.components.jet(point, deriv)
        mat = np.asarray(mat, dtype=float)
        if abs(np.linalg.det(mat)) <= self.det_floor:
            raise ValueError(f"frame is singular at {tuple(point)}")
        return mat, d


@dataclass(frozen=True)
class StructuralConstants:
    """Commutator coefficients c[k, i, j] of a frame at one point."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)
        if np.max(np.abs(arr + arr.transpose(0, 2, 1))) != 0.0:
            raise ValueError("structural constants must be antisymmetric in i, j")


def along_frame(u, d):
    """Frame derivatives L_r = sum_j U[j, r] d_j from coordinate partials d."""
    return np.einsum("jr,j...->r...", u, d)


def lie_matrix(mat: MatrixField, frame: FrameField, point):
    """Value of an array field and its derivatives along every frame vector.

    Returns (value, lie) with lie[r] the entrywise derivative along
    frame vector r, both from one jet of the field.
    """
    value, d = mat.jet(point)
    return value, along_frame(frame(point), d)


def structural_constants(frame: FrameField, point) -> StructuralConstants:
    """Commutator coefficients of the frame at one point.

    [U_i, U_j]^m = sum_a (U^a_i d_a U^m_j - U^a_j d_a U^m_i), expanded
    back in the frame itself.
    """
    u, du = frame.jet(point)  # du[a, m, i]
    bracket = np.einsum("ai,amj->mij", u, du) - np.einsum("aj,ami->mij", u, du)
    u_inv = np.linalg.inv(u)
    c = np.einsum("km,mij->kij", u_inv, bracket)
    c = 0.5 * (c - c.transpose(0, 2, 1))  # antisymmetric to the last bit
    return StructuralConstants(c)


class FrameTransition:
    """Tangent and spinor transition matrix fields between two frames.

    S maps tilde frame labels to untilde expansions (tilde frame vector
    i is sum_j S[j, i] times untilde frame vector j); T is its pointwise
    inverse.  Ss/Ts are the spinor analogues of dimension spinor_dim.
    """

    def __init__(self, S: MatrixField, Ss: MatrixField, spinor_dim=2, T=None, Ts=None):
        self.S = S
        self.T = inverse_field(S) if T is None else T
        self.Ss = Ss
        self.Ts = inverse_field(Ss) if Ts is None else Ts
        self.spinor_dim = spinor_dim
        self._given_inverses = (T, Ts)

    def jets(self, point, deriv=True):
        """Jets of (S, T, Ss, Ts) at one point from one evaluation each of S
        and Ss; T and Ts are their inverses unless passed explicitly."""
        given_t, given_ts = self._given_inverses
        s = self.S.jet(point, deriv)
        ss = self.Ss.jet(point, deriv)
        t = inverse_jet(s) if given_t is None else given_t.jet(point, deriv)
        ts = inverse_jet(ss) if given_ts is None else given_ts.jet(point, deriv)
        return s, t, ss, ts

    @classmethod
    def constant(cls, S=None, Ss=None, spinor_dim=None):
        if Ss is None and spinor_dim is None:
            spinor_dim = 2
        if Ss is None:
            Ss = np.eye(spinor_dim, dtype=complex)
        Ss = np.asarray(Ss, dtype=complex)
        if spinor_dim is None:
            spinor_dim = Ss.shape[0]
        if S is None:
            S = np.eye(4)
        return cls(
            MatrixField.constant(np.asarray(S, dtype=float)),
            MatrixField.constant(Ss),
            spinor_dim=spinor_dim,
        )

    def check_inverses(self, point, tol=1e-10):
        (s, _), (t, _), (ss, _), (ts, _) = self.jets(point, deriv=False)
        for a, b, dim in ((s, t, 4), (ss, ts, self.spinor_dim)):
            if np.max(np.abs(a @ b - np.eye(dim))) > tol:
                raise NumericalError(f"transition inverse pair is inconsistent at {tuple(point)}")


@dataclass(frozen=True)
class ThetaParameters:
    """Inhomogeneous connection-transformation terms at one point.

    theta[i, k, j] is the tangent parameter with upper index k and
    lower indices (i, j); vartheta is the spinor analogue.
    """

    theta: np.ndarray
    vartheta: np.ndarray


def theta_parameters(trans: FrameTransition, frame: FrameField, point) -> ThetaParameters:
    """Theta-parameters of a transition relative to a frame.

    theta^k_ij = sum_a S^k_a L_i(T^a_j); the equivalent form
    -sum_a L_i(S^k_a) T^a_j must agree to 1e-6 (it does exactly for
    exact inverse pairs; the check guards inconsistent inputs).
    """
    trans.check_inverses(point)
    u = frame(point)
    jets = trans.jets(point)
    out = []
    for (s, ds), (t, dt) in (jets[:2], jets[2:]):
        first = np.einsum("ka,iaj->ikj", s, along_frame(u, dt))
        second = -np.einsum("ika,aj->ikj", along_frame(u, ds), t)
        if np.max(np.abs(first - second)) > 1e-6:
            raise NumericalError(f"theta-parameter forms disagree at {tuple(point)}")
        out.append(first)
    return ThetaParameters(theta=out[0], vartheta=out[1])


def transform_components(
    x: SpinTensorValue, trans: FrameTransition, point, direction="forward", dx=None
):
    """Re-express spin-tensor components in the other frame.

    forward: from untilde to tilde components (Ts on contravariant
    spinor slots, Ss on covariant, conjugates on barred slots, T on
    contravariant tangent, S on covariant tangent).  backward is the
    inverse map.  With dx, the coordinate partials of x's components
    (partial index first), the result is the pair (value, partials),
    the partials by the product rule over x and every slot factor.
    """
    if x.signature.spinor_dim != trans.spinor_dim:
        raise ValueError("signature and transition spinor dimensions differ")
    deriv = dx is not None
    s, t, ss, ts = trans.jets(point, deriv)
    if direction == "backward":
        s, t = t, s
        ss, ts = ts, ss
    elif direction != "forward":
        raise ValueError("direction must be 'forward' or 'backward'")
    factors = {
        (SPINOR, True): ts,
        (SPINOR, False): ss,
        (BARRED, True): _conj(ts),
        (BARRED, False): _conj(ss),
        (TANGENT, True): t,
        (TANGENT, False): s,
    }
    # one multilinear map: slot k is contracted with its factor, from
    # the left on contravariant slots and from the right on covariant
    slots = x.signature.slots
    old = string.ascii_letters[: len(slots)]
    new = string.ascii_letters[len(slots): 2 * len(slots)]
    inputs = [old] + [n + o if up else o + n for (_, up), o, n in zip(slots, old, new)]
    value, d = einsum_jet(
        ",".join(inputs) + "->" + new,
        (x.components, dx),
        *(factors[slot] for slot in slots),
        deriv=deriv,
    )
    moved = SpinTensorValue(x.signature, value)
    return (moved, d) if deriv else moved


def _conj(jet):
    value, d = jet
    return np.conj(value), (None if d is None else np.conj(d))
