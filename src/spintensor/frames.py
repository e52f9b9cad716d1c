"""Charts, frame fields, jets and frame transitions.

A Chart fixes coordinates x0..x3, sample points and the step of the
raw finite-difference Christoffel oracle.  Array-valued fields carry
their value together with its four coordinate partials as one jet;
every composition propagates jets exactly (the product rule over an
einsum, the inverse rule, ...).  Frame fields give the expansion of a
tangent frame in the coordinate frame; transitions between frames
carry the tangent pair (S, T) and the spinor pair (Ss, Ts).  Their
theta-parameters, the frame change of components and the structural
constants of a frame all work on jets the caller already holds.

Points carry a leading batch shape: an array of shape (..., 4) holds
one point per batch index, and every value computed from it carries
the same leading axes (a single (4,) point has batch shape ()).  A
check that fails at some points names the first of them in batch
order (check_points).
"""

from __future__ import annotations

import functools
import string
from dataclasses import dataclass

import numpy as np

from .expressions import EvaluationError, Expression, Num, first_index, values_at
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    SpinTensorValue,
)

DEFAULT_FD_STEP = 1e-4


class NumericalError(ValueError):
    """A consistency check failed: the data is too ill-conditioned for its tolerance."""


def point_label(points, index=()):
    """The point at a batch index as a tuple of floats, for messages."""
    return tuple(np.asarray(points, dtype=float)[index].tolist())


def check_points(bad, points, message, error=NumericalError):
    """Raise error(message at <point>) for the first point where bad holds.

    bad has the batch shape of points (..., 4); without points the
    message names no point.  The error's index is that point's.
    """
    index = first_index(bad)
    if index is not None:
        exc = error(message if points is None else f"{message} at {point_label(points, index)}")
        exc.index = index
        raise exc


def einsum(subscripts, *operands):
    """np.einsum over leading batch axes ("...") shared by every operand.

    subscripts names the per-point axes only ("ij,jk->ik"); operands
    without batch axes broadcast.  Operands are contracted pair by pair
    along numpy's greedy path, each pair as one batched matrix product,
    with the plan made once per subscripts and operand shapes.
    """
    operands = list(operands)
    for positions, step in _plan(subscripts, tuple(np.shape(op) for op in operands)):
        operands.append(step(*[operands.pop(k) for k in positions]))
    return operands[0]


def _batched(inputs, output):
    return ",".join("..." + s for s in inputs) + "->..." + output


@functools.lru_cache(maxsize=1024)
def _plan(subscripts, shapes):
    """Steps (operand positions, function) of one contraction; each step
    pops its operands and appends its result.

    The path is numpy's greedy one with no cap on intermediate size:
    the default cap (the largest operand) would leave one slow
    multi-operand loop, because a batch axis scales every operand alike.
    """
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    if len(inputs) == 1:
        return (((0,), functools.partial(np.einsum, _batched(inputs, output))),)
    sizes, batches = {}, []
    for letters, shape in zip(inputs, shapes):
        batches.append(shape[: len(shape) - len(letters)])
        sizes.update(zip(letters, shape[len(shape) - len(letters):]))
    path = [(0, 1)]
    if len(inputs) > 2:
        path = np.einsum_path(
            _batched(inputs, output),
            *(np.broadcast_to(0.0, shape) for shape in shapes),
            optimize=("greedy", 2**62),
        )[0][1:]
    steps = []
    for contract in path:
        positions = tuple(sorted(contract, reverse=True))
        picked = [inputs.pop(k) for k in positions]
        batch = [batches.pop(k) for k in positions]
        rest = output + "".join(inputs)
        if len(picked) == 2:
            step, letters = _matmul_step(*picked, *batch, rest, sizes)
        else:
            letters = "".join(dict.fromkeys(c for c in "".join(picked) if c in rest))
            step = functools.partial(np.einsum, _batched(picked, letters))
        steps.append((positions, step))
        inputs.append(letters)
        batches.append(np.broadcast_shapes(*batch))
    if inputs[0] != output:
        steps.append(((0,), functools.partial(np.einsum, _batched(inputs, output))))
    return tuple(steps)


def _matmul_step(left, right, left_batch, right_batch, rest, sizes):
    """One pairwise contraction as a batched matrix product; returns
    (function, letters of its result).  Letters shared by both operands
    and still needed later become matmul batch axes, the other shared
    ones are summed."""
    shared = [c for c in left if c in right]
    if any(c not in rest for c in left + right if c not in shared) or \
            len(set(left)) < len(left) or len(set(right)) < len(right):
        # a letter summed within one operand, or a diagonal: plain einsum
        letters = "".join(dict.fromkeys(c for c in left + right if c in rest))
        return functools.partial(np.einsum, _batched([left, right], letters)), letters
    kept = [c for c in shared if c in rest]
    summed = [c for c in shared if c not in rest]
    left_free = [c for c in left if c not in right]
    right_free = [c for c in right if c not in left]

    def size(letters):
        return int(np.prod([sizes[c] for c in letters], dtype=int))

    def arrange(letters, batch, order, shape):
        perm = tuple(range(len(batch))) + tuple(len(batch) + letters.index(c) for c in order)
        return perm, batch + shape

    perm_l, shape_l = arrange(left, left_batch, kept + left_free + summed,
                              (size(kept), size(left_free), size(summed)))
    perm_r, shape_r = arrange(right, right_batch, kept + summed + right_free,
                              (size(kept), size(summed), size(right_free)))
    result = kept + left_free + right_free
    out_shape = np.broadcast_shapes(left_batch, right_batch) + tuple(sizes[c] for c in result)

    def step(a, b):
        product = a.transpose(perm_l).reshape(shape_l) @ b.transpose(perm_r).reshape(shape_r)
        return product.reshape(out_shape)

    return step, "".join(result)


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

    @property
    def points(self):
        """The sample points as one (N, 4) batch."""
        return np.array(self.sample_points, dtype=float).reshape(-1, 4)


class MatrixField:
    """Array-valued field (any shape, scalars included) evaluated as a jet.

    jet(points) returns (value, d) with value.shape == (*batch, *shape)
    and d.shape == (*batch, 4, *shape), d[..., a, :] the partial along
    coordinate a, for points of shape (*batch, 4); jet(points,
    deriv=False) returns (value, None) and computes no partials.  The
    field is made from an exact jet function (points, deriv) -> (value,
    d).
    """

    def __init__(self, jet):
        self._jet = jet

    @classmethod
    def constant(cls, array):
        return cls(functools.partial(constant_jet, np.asarray(array)))

    @classmethod
    def from_expressions(cls, grid):
        """Build from a (nested list of) DSL strings / Expressions / numbers.

        An EvaluationError carries the batch index of the first failing
        point: of the values, else of the partials.
        """
        grid = np.asarray(grid, dtype=object)
        shape = grid.shape
        flat = [
            cell if isinstance(cell, Expression)
            else Expression.parse(cell) if isinstance(cell, str)
            else Expression(Num(float(cell)))
            for cell in grid.ravel()
        ]

        partials = [cell.partial(a) for a in range(4) for cell in flat]

        def jet(points, deriv=True):
            x = np.asarray(points, dtype=float)
            value = values_at(flat, x).reshape(x.shape[:-1] + shape)
            if not deriv:
                return value, None
            try:
                d = values_at(partials, x).reshape(x.shape[:-1] + (4, *shape))
            except EvaluationError as exc:
                raise EvaluationError(f"partial derivative: {exc}", exc.index) from exc
            return value, d

        return cls(jet)

    def jet(self, points, deriv=True):
        return self._jet(points, deriv)

    def __call__(self, points):
        return self._jet(points, False)[0]


def constant_jet(array, points, deriv=True):
    """Jet of a constant array at points: its value broadcast over the
    batch and, with deriv, exactly zero partials."""
    batch = np.shape(points)[:-1]
    value = np.broadcast_to(array, batch + array.shape)
    if not deriv:
        return value, None
    zero = np.zeros((4, *array.shape), dtype=np.result_type(array, float))
    return value, np.broadcast_to(zero, batch + zero.shape)


def einsum_jet(subscripts, *jets, deriv=True):
    """Jet of einsum(subscripts, *values) by the product rule.

    Each operand is a (value, d) jet; d None marks a constant factor.
    subscripts names the per-point axes and its output explicitly
    ("ij,jk->ik"); values carry leading batch axes (constants may
    omit them) and d carries the partial index after them.
    """
    value = einsum(subscripts, *(v for v, _ in jets))
    if not deriv:
        return value, None
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    a = next(c for c in string.ascii_letters if c not in subscripts)
    terms = [
        einsum(
            ",".join(a + s if i == k else s for i, s in enumerate(inputs)) + "->" + a + output,
            *(d if i == k else v for i, (v, _) in enumerate(jets)),
        )
        for k, (_, d) in enumerate(jets)
        if d is not None
    ]
    if terms:
        return value, sum(terms)
    batch = value.shape[: value.ndim - len(output)]
    return value, np.zeros(batch + (4,) + value.shape[len(batch):], value.dtype)


def einsum_field(subscripts, *operands) -> MatrixField:
    """Field of einsum(subscripts, ...) over MatrixFields and constant arrays.

    A field passed more than once is evaluated once per batch.
    """

    fields = {id(op): op for op in operands if isinstance(op, MatrixField)}

    def jet(points, deriv=True):
        jets = {key: field.jet(points, deriv) for key, field in fields.items()}
        return einsum_jet(
            subscripts,
            *(jets.get(id(op), (op, None)) for op in operands),
            deriv=deriv,
        )

    return MatrixField(jet)


def inverse_jet(jet):
    """Jet of a matrix inverse: d(M^-1) = -M^-1 (dM) M^-1."""
    value, d = jet
    inv = np.linalg.inv(value)
    if d is None:
        return inv, None
    inv_a = inv[..., None, :, :]  # broadcast over the partial index
    return inv, -(inv_a @ d @ inv_a)


FRAME_DET_FLOOR = 1e-8


def check_frame(jet, points):
    """The jet of a frame expansion or a transition matrix, checked to be
    non-singular (|det| > FRAME_DET_FLOOR, finite) at every point."""
    det = np.abs(np.linalg.det(jet[0]))
    check_points(~(np.isfinite(det) & (det > FRAME_DET_FLOOR)), points,
                 "frame is singular", error=ValueError)
    return jet


class FrameField:
    """Expansion U[j, i] of frame vector i in the coordinate frame.

    Column i holds the coordinate components of the i-th frame vector.
    """

    def __init__(self, components: MatrixField):
        self.components = components

    @classmethod
    def coordinate(cls):
        return cls(MatrixField.constant(np.eye(4)))

    @classmethod
    def from_expressions(cls, grid):
        return cls(MatrixField.from_expressions(grid))

    def jet(self, points, deriv=True):
        return check_frame(self.components.jet(points, deriv), points)


@dataclass(frozen=True)
class StructuralConstants:
    """Commutator coefficients c[..., k, i, j] of a frame at each point."""

    c: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.c, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "c", arr)
        if np.max(np.abs(arr + np.swapaxes(arr, -1, -2))) != 0.0:
            raise ValueError("structural constants must be antisymmetric in i, j")


def along_frame(u, d):
    """Frame derivatives L_r = sum_j U[j, r] d_j from coordinate partials d.

    u is (..., 4, 4) and d (..., 4, *shape) with the same batch axes;
    the result has d's shape with the frame index r in place of j.
    """
    batch = u.shape[:-2]
    flat = np.reshape(d, batch + (4, -1))
    return np.reshape(np.swapaxes(u, -1, -2) @ flat, d.shape)


def structural_constants(frame_jet) -> StructuralConstants:
    """Commutator coefficients of a frame from its jet (U, dU) at points.

    [U_i, U_j]^m = sum_a (U^a_i d_a U^m_j - U^a_j d_a U^m_i), expanded
    back in the frame itself.
    """
    u, du = frame_jet  # du[..., a, m, i]
    bracket = einsum("ai,amj->mij", u, du) - einsum("aj,ami->mij", u, du)
    c = einsum("km,mij->kij", np.linalg.inv(u), bracket)
    c = 0.5 * (c - np.swapaxes(c, -1, -2))  # antisymmetric to the last bit
    return StructuralConstants(c)


class FrameTransition:
    """Tangent and spinor transition matrix fields between two frames.

    S maps tilde frame labels to untilde expansions (tilde frame vector
    i is sum_j S[j, i] times untilde frame vector j); T is its pointwise
    inverse.  Ss/Ts are the spinor analogues of dimension spinor_dim.
    T and Ts, when given, replace the computed inverses.
    """

    def __init__(self, S: MatrixField, Ss: MatrixField, spinor_dim=2, T=None, Ts=None):
        self.S = S
        self.Ss = Ss
        self.spinor_dim = spinor_dim
        self._given_inverses = (T, Ts)

    def jets(self, points, deriv=True):
        """Jets of (S, T, Ss, Ts) at points from one evaluation each of S
        and Ss, checked like a frame; T and Ts are their inverses unless
        passed explicitly."""
        given_t, given_ts = self._given_inverses
        s = check_frame(self.S.jet(points, deriv), points)
        ss = check_frame(self.Ss.jet(points, deriv), points)
        t = inverse_jet(s) if given_t is None else given_t.jet(points, deriv)
        ts = inverse_jet(ss) if given_ts is None else given_ts.jet(points, deriv)
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


def check_inverse_pairs(jets, points, tol=1e-10):
    """Check S T = 1 and Ss Ts = 1 at every point from held (S, T, Ss, Ts) jets."""
    (s, _), (t, _), (ss, _), (ts, _) = jets
    for a, b in ((s, t), (ss, ts)):
        residual = np.max(np.abs(a @ b - np.eye(a.shape[-1])), axis=(-2, -1))
        check_points(residual > tol, points, "transition inverse pair is inconsistent")


@dataclass(frozen=True)
class ThetaParameters:
    """Inhomogeneous connection-transformation terms at each point.

    theta[..., i, k, j] is the tangent parameter with upper index k and
    lower indices (i, j); vartheta is the spinor analogue.
    """

    theta: np.ndarray
    vartheta: np.ndarray


def theta_parameters(jets, frame_jet, points) -> ThetaParameters:
    """Theta-parameters of a transition relative to a frame.

    jets are the transition's (S, T, Ss, Ts) jets and frame_jet the
    frame's jet, all at points.  theta^k_ij = sum_a S^k_a L_i(T^a_j);
    the equivalent form -sum_a L_i(S^k_a) T^a_j must agree to 1e-6 at
    every point (it does exactly for exact inverse pairs; the check
    guards inconsistent inputs), after the inverse pairs are checked on
    the same jets.
    """
    check_inverse_pairs(jets, points)
    u = frame_jet[0]
    out = []
    for (s, ds), (t, dt) in (jets[:2], jets[2:]):
        first = einsum("ka,iaj->ikj", s, along_frame(u, dt))
        second = -einsum("ika,aj->ikj", along_frame(u, ds), t)
        disagree = np.max(np.abs(first - second), axis=(-3, -2, -1)) > 1e-6
        check_points(disagree, points, "theta-parameter forms disagree")
        out.append(first)
    return ThetaParameters(theta=out[0], vartheta=out[1])


def transform_components(x: SpinTensorValue, jets, direction="forward", dx=None):
    """Re-express spin-tensor components in the other frame.

    jets are a transition's (S, T, Ss, Ts) jets at the points of x.
    forward: from untilde to tilde components (Ts on contravariant
    spinor slots, Ss on covariant, conjugates on barred slots, T on
    contravariant tangent, S on covariant tangent).  backward is the
    inverse map.  x's components may carry the batch axes of the jets
    or none.  With dx, the coordinate partials of x's components
    (partial index after the batch axes), the result is the pair
    (value, partials), the partials by the product rule over x and
    every slot factor (jets without partials count as constant).
    """
    s, t, ss, ts = jets
    if x.signature.spinor_dim != np.shape(ss[0])[-1]:
        raise ValueError("signature and transition spinor dimensions differ")
    deriv = dx is not None
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
