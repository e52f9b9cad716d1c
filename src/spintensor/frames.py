"""Frame fields, jets and frame transitions.

Fields are functions of the coordinates x0..x3.  Array-valued fields
carry their value together with its four coordinate partials as
one jet; every composition propagates jets exactly (the product rule
over an einsum, the inverse rule, ...).  A frame is a MatrixField of
the expansion U[j, i] of frame vector i in the coordinate frame
(column i holds its coordinate components); its jet is checked
non-singular (check_frame) where it is read.  Transitions between
frames carry the tangent pair (S, T) and the spinor pair (Ss, Ts).
Their theta-parameters (a plain (theta, vartheta) pair), the frame
change of components and the structural constants of a frame all work
on jets the caller already holds.

A jet's partials d are None exactly when they are exactly zero (a
constant): every composition forms no product-rule term for such a
factor and passes None on where every factor is constant, so no
constant is carried as an all-zero partial array.  A field's
value-only reader (field(points), or jet(points, deriv=False)) gives
no jet at all.

Points carry a leading batch shape: an array of shape (..., 4) holds
one point per batch index, and every value computed from it carries
the same leading axes (a single (4,) point has batch shape ()).  The
one exception is a canonical constant that a scenario's table holds
unmoved: it is the read-only constant itself, with no batch axes, and
every contraction (einsum) broadcasts it.  A check that fails at some
points names the first of them in batch order (check_points).
"""

from __future__ import annotations

import functools
import operator
import string
import typing

import numpy as np

from .expressions import ZERO, EvaluationError, Expression, Num, first_index, values_at
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    TensorSignature,
)


class NumericalError(ValueError):
    """A consistency check failed: the data is too ill-conditioned for its tolerance."""


def point_label(points, index=()):
    """The point at a batch index as a tuple of floats, for messages."""
    return tuple(np.asarray(points, dtype=float)[index].tolist())


def check_points(bad, points, message, error=NumericalError):
    """Raise error(message at <point>) for the first point where bad holds.

    bad has the batch shape of points (..., 4); without points the
    message names no point.  The error's index is that point's, and its
    reason the message without the point, for a caller that names the
    point itself.
    """
    index = first_index(bad)
    if index is not None:
        exc = error(message if points is None else f"{message} at {point_label(points, index)}")
        exc.index = index
        exc.reason = message
        raise exc


def einsum(subscripts, *operands):
    """np.einsum over leading batch axes ("...") shared by every operand.

    subscripts names the per-point axes only ("ij,jk->ik"); operands are
    arrays, and those without batch axes broadcast (with none at all
    this is np.einsum).  Otherwise operands are contracted pair by pair
    along numpy's greedy path, each pair as one batched matrix product.
    The steps are compiled once per subscripts and operand shapes and
    dtypes into one program (_program), which a call runs as it is.
    Real factors stay real: a real operand multiplies a complex one's
    float view (real_matmul).
    """
    return _program(subscripts, tuple(map(_SHAPE_AND_DTYPE, operands)))(*operands)


_SHAPE_AND_DTYPE = operator.attrgetter("shape", "dtype")


def real_matmul(x, y):
    """x @ y for a real x and a complex y as one real matmul of x into
    y's float view (re, im interleaved), x not promoted to complex."""
    if y.shape[-1] > 1 and y.strides[-1] != y.itemsize:
        y = np.ascontiguousarray(y)  # the float view needs a contiguous last axis
    return (x @ y.view(y.real.dtype)).view(y.dtype)


def _batched(inputs, output):
    return ",".join("..." + s for s in inputs) + "->..." + output


@functools.lru_cache(maxsize=1024)
def _program(subscripts, kinds):
    """The compiled contraction of einsum for operands of these kinds,
    (shape, dtype) each: a function of the operands that runs the
    planned steps (_plan) at fixed operand positions, or np.einsum where
    no operand has batch axes."""
    inputs = subscripts.split("->")[0].split(",")
    if all(len(shape) == len(letters) for (shape, _), letters in zip(kinds, inputs)):
        return functools.partial(np.einsum, subscripts)
    steps = _plan(subscripts, tuple(shape for shape, _ in kinds),
                  tuple(dtype.kind == "c" for _, dtype in kinds))

    def run(*operands):
        values = list(operands)
        for step, args in steps:
            values.append(step(*[values[k] for k in args]))
        return values[-1]

    return run


def _plan(subscripts, shapes, kinds):
    """Steps (function, argument positions) of one contraction: the
    operands hold positions 0..n-1 and each step's result the next one;
    kinds are the operands' is-complex flags.

    The path is numpy's greedy one with no cap on intermediate size,
    which contracts pairs only: the default cap (the largest operand)
    would leave one slow multi-operand loop, because a batch axis scales
    every operand alike.
    """
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    if len(inputs) == 1:
        return ((functools.partial(np.einsum, _batched(inputs, output)), (0,)),)
    sizes = {}
    for letters, shape in zip(inputs, shapes):
        sizes.update(zip(letters, shape[len(shape) - len(letters):]))
    path = [(0, 1)]
    if len(inputs) > 2:
        path = np.einsum_path(
            _batched(inputs, output),
            *(np.broadcast_to(0.0, shape) for shape in shapes),
            optimize=("greedy", 2**62),
        )[0][1:]
    live = [_Operand(k, *operand) for k, operand in enumerate(zip(inputs, shapes, kinds))]
    steps = []
    for contract in path:
        picked = [live.pop(k) for k in sorted(contract, reverse=True)]
        rest = output + "".join(operand.letters for operand in live)
        step, args, letters = _matmul_step(*picked, rest, sizes, final=not live)
        steps.append((step, args))
        batch = np.broadcast_shapes(*(op.batch for op in picked))
        live.append(_Operand(len(shapes) + len(steps) - 1, letters,
                             batch + tuple(sizes[c] for c in letters),
                             any(op.is_complex for op in picked)))
    (last,) = live
    if last.letters != output:
        steps.append((functools.partial(np.einsum, _batched([last.letters], output)),
                      (last.position,)))
    return tuple(steps)


class _Operand(typing.NamedTuple):
    """An operand of a planned contraction: an input or a step's result."""

    position: int
    letters: str
    shape: tuple
    is_complex: bool

    @property
    def batch(self):
        return self.shape[:len(self.shape) - len(self.letters)]


def _matmul_step(left, right, rest, sizes, final):
    """One pairwise contraction as a batched matrix product; returns
    (function, its argument positions, letters of its result) for two
    _Operand.  Letters shared by both operands and still needed later become
    matmul batch axes, the other shared ones are summed.  Of a real and
    a complex operand the real one is the left factor (real_matmul).
    The final step of a contraction gives its result's axes in the
    output's order (a transposed view)."""
    both = left.letters + right.letters
    shared = [c for c in left.letters if c in right.letters]
    if any(c not in rest for c in both if c not in shared) or \
            len(set(left.letters)) < len(left.letters) or \
            len(set(right.letters)) < len(right.letters):
        # a letter summed within one operand, or a diagonal: plain einsum
        letters = "".join(dict.fromkeys(c for c in both if c in rest))
        return (functools.partial(np.einsum, _batched([left.letters, right.letters], letters)),
                (left.position, right.position), letters)
    if left.is_complex and not right.is_complex:
        left, right = right, left
    product = real_matmul if left.is_complex != right.is_complex else np.matmul
    kept = [c for c in shared if c in rest]
    summed = [c for c in shared if c not in rest]
    left_free = [c for c in left.letters if c not in right.letters]
    right_free = [c for c in right.letters if c not in left.letters]

    def size(letters):
        return int(np.prod([sizes[c] for c in letters], dtype=int))

    def arrange(operand, order, grouped):
        """(permutation, shape) taking an operand to its batch axes and
        then the grouped axes (kept, free, summed) or (kept, summed,
        free)."""
        nbatch = len(operand.batch)
        perm = tuple(range(nbatch)) + tuple(nbatch + operand.letters.index(c) for c in order)
        return perm, operand.batch + grouped

    perm_l, shape_l = arrange(left, kept + left_free + summed,
                              (size(kept), size(left_free), size(summed)))
    perm_r, shape_r = arrange(right, kept + summed + right_free,
                              (size(kept), size(summed), size(right_free)))
    result = "".join(kept + left_free + right_free)
    batch = np.broadcast_shapes(left.batch, right.batch)
    out_shape = batch + tuple(sizes[c] for c in result)
    out_perm = None
    if final and result != rest:
        out_perm = tuple(range(len(batch))) + tuple(len(batch) + result.index(c) for c in rest)
        result = rest

    def step(a, b):
        out = product(a.transpose(perm_l).reshape(shape_l),
                      b.transpose(perm_r).reshape(shape_r)).reshape(out_shape)
        return out if out_perm is None else out.transpose(out_perm)

    return step, (left.position, right.position), result


class MatrixField:
    """Array-valued field (any shape, scalars included) evaluated as a jet.

    jet(points) returns (value, d) with value.shape == (*batch, *shape)
    and d.shape == (*batch, 4, *shape), d[..., a, :] the partial along
    coordinate a, for points of shape (*batch, 4), or d None for a
    constant field.  jet(points, deriv=False) is the value-only reader
    behind field(points): it computes no partials, and its (value,
    None) is not a jet and never enters a table.  The field is made
    from an exact jet function (points, deriv) -> (value, d).
    """

    def __init__(self, jet):
        self._jet = jet

    @classmethod
    def constant(cls, array):
        array = np.asarray(array)
        return cls(lambda points, deriv: constant_jet(array, points))

    @classmethod
    def from_expressions(cls, grid):
        """Build from a (nested list of) DSL strings / Expressions / numbers.

        A grid of constants has d None.  An EvaluationError carries the
        batch index of the first failing point: of the values, else of
        the partials.
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
        constant = all(p.ast == ZERO for p in partials)

        def jet(points, deriv=True):
            x = np.asarray(points, dtype=float)
            value = values_at(flat, x).reshape(x.shape[:-1] + shape)
            if not deriv or constant:
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


def constant_jet(array, points):
    """Jet of a constant array at points: its value broadcast over the
    batch, and d None, exactly zero partials.  MatrixField.constant
    reads it, so a constant frame or metric carries the batch
    (along_frame needs the frame's); a scenario's table holds its
    canonical constants without batch axes instead (ChiralScenario.jets)."""
    batch = np.shape(points)[:-1]
    return np.broadcast_to(array, batch + array.shape), None


def einsum_jet(subscripts, *jets):
    """Jet of einsum(subscripts, *values) by the product rule.

    Each operand is a (value, d) jet.  There is one product-rule term
    per operand whose d is not None; a constant factor (d None) adds
    none, and d is None when every factor is constant.  subscripts
    names the per-point axes and its output explicitly ("ij,jk->ik");
    values carry leading batch axes (constants may omit them) and d
    carries the partial index after them.
    """
    value = einsum(subscripts, *(v for v, _ in jets))
    terms = [
        einsum(term, *(d if i == k else v for i, (v, _) in enumerate(jets)))
        for k, (term, (_, d)) in enumerate(zip(_product_rule(subscripts), jets))
        if d is not None
    ]
    return value, add_terms(*terms)


@functools.lru_cache(maxsize=256)
def _product_rule(subscripts):
    """The subscripts of einsum_jet's product-rule term of each operand:
    that operand's partial index, a new letter, leads its letters and
    the output's."""
    inputs, output = subscripts.split("->")
    inputs = inputs.split(",")
    a = next(c for c in string.ascii_letters if c not in subscripts)
    return tuple(",".join(a + s if i == k else s for i, s in enumerate(inputs)) + "->" + a + output
                 for k in range(len(inputs)))


def add_terms(*terms):
    """Sum of the terms that are not None, left to right; None, exactly
    zero, when every term is None."""
    present = [term for term in terms if term is not None]
    return functools.reduce(operator.add, present) if present else None


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


def along_frame(u, d):
    """Frame derivatives L_r = sum_j U[j, r] d_j from coordinate partials d.

    u is (..., 4, 4) and d (..., 4, *shape) with the same batch axes;
    the result has d's shape with the frame index r in place of j (a
    real u multiplies complex partials by real_matmul).  A constant (d
    None) has frame derivatives None, exactly zero.  A d whose leading
    axes are not u's batch axes and then the partial axis raises
    ValueError: the per-point shape is not known here, so a frame
    cannot be broadcast against a larger batch of partials (broadcast
    it first, as theta_parameters does).
    """
    if d is None:
        return None
    batch = u.shape[:-2]
    if d.shape[:len(batch) + 1] != batch + (4,):
        raise ValueError(f"partials of shape {d.shape} do not follow the frame's batch {batch}")
    ut = np.swapaxes(u, -1, -2)
    flat = np.reshape(d, batch + (4, -1))
    product = real_matmul if np.iscomplexobj(flat) and not np.iscomplexobj(u) else np.matmul
    return np.reshape(product(ut, flat), d.shape)


def structural_constants(frame_jet) -> np.ndarray:
    """Commutator coefficients c[..., k, i, j] of a frame from its jet
    (U, dU) at points, antisymmetric in i, j; exactly zero for a
    constant frame (dU None).

    [U_i, U_j]^m = sum_a (U^a_i d_a U^m_j - U^a_j d_a U^m_i), expanded
    back in the frame itself.
    """
    u, du = frame_jet  # du[..., a, m, i]
    if du is None:
        return np.zeros(u.shape[:-2] + (4, 4, 4))
    half = einsum("ai,amj->mij", u, du)  # its mirror, i<->j, is the other half
    bracket = half - np.swapaxes(half, -1, -2)
    c = einsum("km,mij->kij", np.linalg.inv(u), bracket)
    return 0.5 * (c - np.swapaxes(c, -1, -2))  # antisymmetric to the last bit


class FrameTransition:
    """Tangent and spinor transition matrix fields between two frames.

    S maps tilde frame labels to untilde expansions (tilde frame vector
    i is sum_j S[j, i] times untilde frame vector j); T is its pointwise
    inverse.  Ss/Ts are the 2x2 spinor analogues: transitions are chiral.
    """

    def __init__(self, S: MatrixField, Ss: MatrixField):
        self.S = S
        self.Ss = Ss

    def jets(self, points):
        """Jets of (S, T, Ss, Ts) at points from one evaluation each of S
        and Ss, checked like a frame; T and Ts are their inverses."""
        s = check_frame(self.S.jet(points), points)
        ss = check_frame(self.Ss.jet(points), points)
        return s, inverse_jet(s), ss, inverse_jet(ss)


def check_inverse_pairs(jets, points):
    """Check S T = 1 and Ss Ts = 1 at every point from held (S, T, Ss, Ts) jets."""
    (s, _), (t, _), (ss, _), (ts, _) = jets
    for a, b in ((s, t), (ss, ts)):
        residual = np.max(np.abs(a @ b - np.eye(a.shape[-1])), axis=(-2, -1))
        check_points(residual > 1e-10, points, "transition inverse pair is inconsistent")


def theta_parameters(jets, frame_jet, points):
    """Theta-parameters (theta, vartheta) of a transition relative to a frame.

    jets are the transition's (S, T, Ss, Ts) jets and frame_jet the
    frame's jet, all at points.  theta[..., i, k, j] = theta^k_ij =
    sum_a S^k_a L_i(T^a_j), and vartheta the same of (Ss, Ts);
    the equivalent form -sum_a L_i(S^k_a) T^a_j must agree to 1e-6 at
    every point (it does exactly for exact inverse pairs; the check
    guards inconsistent inputs), after the inverse pairs are checked on
    the same jets.  The frame may lack leading batch axes of the
    transition (one frame under a stack of transitions): it is
    broadcast to the transition's batch.
    """
    check_inverse_pairs(jets, points)
    u = frame_jet[0]
    batch = np.broadcast_shapes(jets[0][0].shape[:-2], u.shape[:-2])
    u = np.broadcast_to(u, batch + (4, 4))
    out = []
    for (s, ds), (t, dt) in (jets[:2], jets[2:]):
        # a constant factor (d None) makes its form exactly zero
        zero = np.zeros(batch + (4, *s.shape[-2:]), dtype=np.result_type(s, t))
        first = zero if dt is None else einsum("ka,iaj->ikj", s, along_frame(u, dt))
        second = zero if ds is None else -einsum("ika,aj->ikj", along_frame(u, ds), t)
        disagree = np.max(np.abs(first - second), axis=(-3, -2, -1)) > 1e-6
        check_points(disagree, points, "theta-parameter forms disagree")
        out.append(first)
    return tuple(out)


def transform_components(sig: TensorSignature, jet, trans_jets):
    """Jet of spin-tensor components re-expressed in the other frame.

    jet is the (value, d) jet of components of type sig and trans_jets
    a transition's (S, T, Ss, Ts) jets at the same points; the value
    may carry their batch axes or none, and real factors stay real.
    The map goes from untilde to tilde components: Ts on contravariant
    spinor slots, Ss on covariant, conjugates on barred slots, T on
    contravariant tangent, S on covariant tangent; (T, S, Ts, Ss) gives
    the inverse map.  The partials follow by the product rule over the
    components and every slot factor, each with d None (a constant)
    adding no term: a constant moved by a varying transition varies,
    and d is None only when the components and every factor are
    constant.
    """
    value, d = jet
    s, t, ss, ts = trans_jets
    if sig.spinor_dim != np.shape(ss[0])[-1]:
        raise ValueError("signature and transition spinor dimensions differ")
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
    old = string.ascii_letters[: len(sig.slots)]
    new = string.ascii_letters[len(sig.slots): 2 * len(sig.slots)]
    inputs = [old] + [n + o if up else o + n for (_, up), o, n in zip(sig.slots, old, new)]
    return einsum_jet(
        ",".join(inputs) + "->" + new,
        (np.asarray(value), d),
        *(factors[slot] for slot in sig.slots),
    )


def _conj(jet):
    value, d = jet
    return np.conj(value), (None if d is None else np.conj(d))
