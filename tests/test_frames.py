import itertools

import numpy as np
import pytest

from spintensor import frames
from spintensor.frames import (
    FrameTransition,
    MatrixField,
    along_frame,
    check_frame,
    check_inverse_pairs,
    einsum,
    einsum_jet,
    inverse_jet,
    structural_constants,
    theta_parameters,
    transform_components,
)
from spintensor.scenarios import random_transition
from spintensor.tensor_core import TensorSignature

PT = (0.5, 0.2, -0.3, 0.1)
COORDINATE_FRAME = MatrixField.constant(np.eye(4))


def test_constant_fields_have_exactly_zero_partials():
    # d None is the jet's exactly-zero partials
    assert MatrixField.constant(3.0).jet(PT)[1] is None
    assert MatrixField.constant(np.eye(4)).jet(PT)[1] is None


def test_matmul_and_inverse_field_partials():
    m = MatrixField.from_expressions([["1+x0", "0"], ["x1", "2"]]).jet(PT)
    value, d = einsum_jet("ij,jk->ik", m, inverse_jet(m))
    assert np.allclose(value, np.eye(2))
    assert np.allclose(d[0], np.zeros((2, 2)), atol=1e-12)


def test_lie_derivative_along_coordinate_frame_is_partial():
    f = MatrixField.from_expressions("x0^2*x2")
    u, _ = COORDINATE_FRAME.jet(PT)
    value, d = f.jet(PT)
    lie = along_frame(u, d)
    assert value == f(PT)
    for i in range(4):
        assert abs(lie[i] - f.jet(PT)[1][i]) < 1e-12


def test_along_frame_scales_with_the_frame():
    mat = MatrixField.from_expressions([["x1", "0"], ["0", "x1"]])
    frame = MatrixField.from_expressions(
        [["1", "0", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    )
    lie = along_frame(frame.jet(PT)[0], mat.jet(PT)[1])
    assert np.allclose(lie[1], 2.0 * np.eye(2))


def test_frame_field_rejects_singular_frames():
    frame = MatrixField.from_expressions(
        [["x0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    )
    point = (0.0, 0, 0, 0)
    with pytest.raises(ValueError, match="frame is singular"):
        check_frame(frame.jet(point), point)


def test_structural_constants_vanish_for_coordinate_frames():
    c = structural_constants(COORDINATE_FRAME.jet(PT))
    assert np.array_equal(c, np.zeros((4, 4, 4)))


def test_structural_constants_known_value():
    # E0 = d0, E1 = (1/(1+x0)) d1: [E0, E1] = -(1/(1+x0)) E1
    frame = MatrixField.from_expressions(
        [
            ["1", "0", "0", "0"],
            ["0", "1/(1+x0)", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]
    )
    c = structural_constants(frame.jet(PT))
    assert abs(c[1, 0, 1] - (-1.0 / 1.5)) < 1e-9
    assert abs(c[1, 1, 0] - (1.0 / 1.5)) < 1e-9
    # antisymmetry is exact by construction
    assert np.max(np.abs(c + c.transpose(0, 2, 1))) == 0.0


def scale_transition():
    s = MatrixField.from_expressions(
        [
            ["1", "0", "0", "0"],
            ["0", "1+x0", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]
    )
    ss = MatrixField.constant(np.eye(2, dtype=complex))
    return FrameTransition(s, ss)


def test_transition_inverses_check():
    jets = scale_transition().jets(PT)
    check_inverse_pairs(jets, PT)
    (s, _), (t, _), _, _ = jets
    assert np.allclose(t @ s, np.eye(4))


def test_transform_components_round_trip():
    trans = scale_transition()
    sig = TensorSignature(alpha=1, beta=1, nu=1, m=1, n=1)
    rng = np.random.default_rng(3)
    shape = (2, 2, 2, 4, 4)  # one spinor axis per spinor slot, then two tangent axes
    value = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    s, t, ss, ts = trans.jets(PT)
    there = transform_components(sig, (value, None), (s, t, ss, ts))
    back, d = transform_components(sig, there, (t, s, ts, ss))
    # S varies, so the moved components do; a constant comes back constant
    assert np.max(np.abs(d)) <= 1e-12
    assert np.allclose(back, value, atol=1e-12)


def test_transform_components_metric_rule():
    # covariant rank-2 tangent tensor picks up S on both slots
    trans = scale_transition()
    g = np.diag([1.0, -1.0, -1.0, -1.0]).astype(complex)
    moved, _ = transform_components(TensorSignature(n=2), (g, None), trans.jets(PT))
    s = trans.S(PT)
    assert np.allclose(moved, s.T @ g @ s, atol=1e-12)


def test_theta_parameters_vanish_for_constant_transitions():
    trans = FrameTransition(
        MatrixField.constant(np.diag([1.0, 2.0, 1.0, 1.0])),
        MatrixField.constant(np.eye(2, dtype=complex)),
    )
    theta, vartheta = theta_parameters(trans.jets(PT), COORDINATE_FRAME.jet(PT), PT)
    assert np.allclose(theta, 0.0, atol=1e-12)
    assert np.allclose(vartheta, 0.0, atol=1e-12)


def test_theta_parameters_known_value():
    # S = diag(1, 1+x0, 1, 1): theta^k_ij = S^k_a L_i T^a_j picks up
    # exactly one entry, theta^1_01 = (1+x0) * d0 (1/(1+x0)) = -1/(1+x0)
    trans = scale_transition()
    theta, vartheta = theta_parameters(trans.jets(PT), COORDINATE_FRAME.jet(PT), PT)
    assert abs(theta[0, 1, 1] - (-1.0 / 1.5)) < 1e-9
    mask = np.ones((4, 4, 4), dtype=bool)
    mask[0, 1, 1] = False
    assert np.max(np.abs(theta[mask])) < 1e-9
    assert np.max(np.abs(vartheta)) < 1e-12


def test_theta_parameters_reject_inconsistent_pairs():
    s = MatrixField.from_expressions(
        [
            ["1", "0", "0", "0"],
            ["0", "1+x0", "0", "0"],
            ["0", "0", "1", "0"],
            ["0", "0", "0", "1"],
        ]
    )
    ss = MatrixField.constant(np.eye(2, dtype=complex))
    bad_t = MatrixField.constant(np.eye(4))  # not the inverse of s
    jets = (s.jet(PT), bad_t.jet(PT), ss.jet(PT), ss.jet(PT))
    with pytest.raises(ValueError):
        theta_parameters(jets, COORDINATE_FRAME.jet(PT), PT)


def test_along_frame_rejects_partials_of_another_batch():
    # a frame at N points and partials of a (3, N) batch: the per-point
    # shape is unknown, so the frame is not silently reshaped against them
    points = np.array([PT, (0.1, -0.4, 0.2, 0.3)])
    u = MatrixField.from_expressions(
        [["1", "x1", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "x0"], ["0", "0", "0", "1"]]
    ).jet(points)[0]
    d = np.broadcast_to(MatrixField.from_expressions([["x1", "x0"], ["x2", "x3"]]).jet(points)[1],
                        (3, 2, 4, 2, 2))
    with pytest.raises(ValueError):
        along_frame(u, d)
    # broadcast to the batch first, it gives each slice's result
    lie = along_frame(np.broadcast_to(u, (3, 2, 4, 4)), d)
    for k in range(3):
        assert np.array_equal(lie[k], along_frame(u, d[k]))


def test_theta_parameters_of_one_frame_under_a_stack_of_transitions():
    # theta of an (N,) frame under a (3, N) stack of transitions equals,
    # slice by slice, theta under each transition alone
    points = np.array([PT, (0.1, -0.4, 0.2, 0.3)])
    frame = MatrixField.from_expressions(
        [["1", "x1", "0", "0"], ["0", "2", "0", "0"], ["0", "0", "1", "x0"], ["0", "0", "0", "1"]]
    ).jet(points)
    stacked = np.broadcast_to(points, (3, 2, 4))
    theta, vartheta = theta_parameters(random_transition([4, 5, 6]).jets(stacked), frame, stacked)
    for k, seed in enumerate([4, 5, 6]):
        alone, valone = theta_parameters(random_transition(seed).jets(points), frame, points)
        assert np.array_equal(theta[k], alone)
        assert np.array_equal(vartheta[k], valone)


# contractions of the engine: (subscripts, per-point shape of each operand)
CONTRACTIONS = [
    ("ij,jk->ik", [(4, 4), (4, 4)]),
    ("ka,iaj->ikj", [(4, 4), (4, 4, 4)]),
    ("kr,sir,sj->ikj", [(4, 4), (4, 4, 4), (4, 4)]),
    ("rji,ij,ab->rab", [(4, 2, 2), (2, 2), (2, 2)]),
    ("krm,ajr,mn,ian->kij", [(4, 4, 4), (4, 4, 4), (4, 4), (4, 4, 4)]),  # the Dirac builder's
    ("qp,qpr->r", [(4, 4), (4, 4, 4)]),
    ("kij->ikj", [(4, 4, 4)]),
]
BATCH = (3, 5)


def _operands(shapes, pairing, layout, seed=0):
    """Operands of the given per-point shapes, complex where pairing says,
    with leading BATCH axes laid out as layout says: "batched" arrays,
    "transposed" views (neither C- nor F-contiguous in their per-point
    axes), "broadcast" stride-0 views of one point, or "batch-free" for
    every operand after the first (numpy broadcasts them)."""
    rng = np.random.default_rng(seed)
    out = []
    for k, (shape, is_complex) in enumerate(zip(shapes, pairing)):
        batch = BATCH if layout not in ("broadcast", "batch-free") or k == 0 else ()
        x = rng.normal(size=batch + shape)
        if is_complex:
            x = x + 1j * rng.normal(size=batch + shape)
        if layout == "transposed":
            x = np.ascontiguousarray(np.swapaxes(x, -1, -2)).swapaxes(-1, -2)
        elif layout == "broadcast" and k > 0:
            x = np.broadcast_to(x, BATCH + shape)
        out.append(x)
    return out


def _batched(subscripts):
    inputs, output = subscripts.split("->")
    return ",".join("..." + s for s in inputs.split(",")) + "->..." + output


@pytest.mark.parametrize("subscripts,shapes", CONTRACTIONS)
@pytest.mark.parametrize(
    "layout", ["batched", "transposed", "broadcast", "batch-free", "unbatched"])
def test_einsum_equals_numpy_for_every_real_complex_pairing(subscripts, shapes, layout):
    # "unbatched": no operand has batch axes, the call is np.einsum itself
    for pairing in itertools.product((False, True), repeat=len(shapes)):
        ops = _operands(shapes, pairing, layout)
        if layout == "unbatched":
            ops = [op[0, 0] for op in ops]
        ours, ref = einsum(subscripts, *ops), np.einsum(_batched(subscripts), *ops)
        assert ours.shape == ref.shape
        assert ours.dtype == (np.complex128 if any(pairing) else np.float64)
        assert np.max(np.abs(ours - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("subscripts,shapes", CONTRACTIONS)
def test_einsum_result_does_not_depend_on_which_plan_came_first(subscripts, shapes):
    # each pairing gives the same bits from a cold program cache and from one
    # warmed by every other pairing of the same shapes first
    pairings = list(itertools.product((False, True), repeat=len(shapes)))
    cold = {}
    for pairing in pairings:
        frames._program.cache_clear()
        cold[pairing] = einsum(subscripts, *_operands(shapes, pairing, "batched"))
    frames._program.cache_clear()
    for first in pairings:
        for pairing in pairings[::-1]:
            einsum(subscripts, *_operands(shapes, pairing, "batched", seed=1))
        warm = einsum(subscripts, *_operands(shapes, first, "batched"))
        assert warm.dtype == cold[first].dtype
        assert np.array_equal(warm, cold[first])


@pytest.mark.parametrize("subscripts", ["ii,ij->j", "ij,jk->i"])
def test_einsum_rejects_a_batched_diagonal_or_a_letter_summed_in_one_operand(subscripts):
    # batch-free operands still go to np.einsum, which takes both
    ops = [np.ones(BATCH + (3, 3)), np.ones(BATCH + (3, 3))]
    np.einsum(subscripts, *(op[0, 0] for op in ops))
    with pytest.raises(ValueError, match="'ij' with 'ii'|'jk' with 'ij'"):
        einsum(subscripts, *ops)


def test_along_frame_keeps_real_partials_real():
    rng = np.random.default_rng(2)
    u, d = rng.normal(size=(5, 4, 4)), rng.normal(size=(5, 4, 2, 3))
    dc = d + 1j * rng.normal(size=d.shape)
    assert along_frame(u, d).dtype == np.float64
    for partials in (d, dc, np.swapaxes(np.swapaxes(dc, -1, -2).copy(), -1, -2)):
        lie = along_frame(u, partials)
        ref = np.einsum("...jr,...jab->...rab", u, partials)
        assert lie.dtype == partials.dtype
        assert np.max(np.abs(lie - ref)) <= 1e-14 * np.max(np.abs(ref))
