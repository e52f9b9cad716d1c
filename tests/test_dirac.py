import numpy as np
import pytest

from spintensor.chiral import canonical_chiral_constants
from spintensor.dirac import (
    DiracFrameKind,
    canonical_dirac_constants,
    classify_frame,
    embed_chiral_frame,
    frame_inversion,
    verify_dirac_identities,
)

EXPECTED_KINDS = {
    "P": DiracFrameKind("anti-ortho", "anti-chiral", "self-adjoint"),
    "T": DiracFrameKind("ortho", "anti-chiral", "anti-self-adjoint"),
    "PT": DiracFrameKind("anti-ortho", "chiral", "anti-self-adjoint"),
}


def test_canonical_identity_suite_is_exactly_zero():
    residuals = verify_dirac_identities(canonical_dirac_constants())
    assert residuals
    for check, value in residuals.items():
        assert value == 0.0, check


def test_gamma_anticommutator_gives_the_metric():
    constants = canonical_dirac_constants()
    gamma = constants.gamma
    for m in range(4):
        for n in range(4):
            anti = gamma[:, :, m] @ gamma[:, :, n] + gamma[:, :, n] @ gamma[:, :, m]
            assert np.array_equal(anti, 2.0 * constants.g_lower[m, n] * np.eye(4))


def test_chirality_operator_properties():
    constants = canonical_dirac_constants()
    assert np.array_equal(constants.H @ constants.H, np.eye(4))
    assert np.trace(constants.H) == 0
    for m in range(4):
        gm = constants.gamma[:, :, m]
        assert np.array_equal(constants.H @ gm + gm @ constants.H, np.zeros((4, 4)))


def test_canonical_frame_classifies_canonically():
    constants = canonical_dirac_constants()
    kind = classify_frame(constants.d_lower, constants.H, constants.D_lower)
    assert kind == DiracFrameKind("ortho", "chiral", "self-adjoint")


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_inversions_classify_as_expected(kind):
    constants = canonical_dirac_constants().transform(frame_inversion(kind))
    observed = classify_frame(constants.d_lower, constants.H, constants.D_lower)
    assert observed == EXPECTED_KINDS[kind]


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_identity_suite_survives_inversions_exactly(kind):
    constants = canonical_dirac_constants().transform(frame_inversion(kind))
    for check, value in verify_dirac_identities(constants).items():
        assert value == 0.0, f"{kind}: {check}"


def test_frame_inversion_rejects_unknown_kind():
    with pytest.raises(ValueError):
        frame_inversion("C")


def test_classify_frame_rejects_off_reference_matrices():
    constants = canonical_dirac_constants()
    with pytest.raises(ValueError):
        classify_frame(2 * constants.d_lower, constants.H, constants.D_lower)


def test_embedding_carries_the_chiral_structure():
    embedded = embed_chiral_frame()
    chiral = canonical_chiral_constants()
    assert np.array_equal(embedded["d"][:2, :2], chiral.d_lower)
    assert np.array_equal(embedded["gamma"][:2, 2:, :], chiral.G_upper)
    assert embedded["kind"] == DiracFrameKind("ortho", "chiral", "self-adjoint")


def test_derived_companions_are_consistent():
    constants = canonical_dirac_constants()
    assert np.array_equal(constants.d_lower @ constants.d_upper, np.eye(4))
    assert np.array_equal(
        constants.gamma_inv, np.einsum("abk,km->abm", constants.gamma, constants.g_upper)
    )


def test_a_stack_of_frames_is_each_frame_alone():
    # one transform of the stacked spinor matrices (identity, P, T, PT)
    # and one suite over the stack give, frame by frame, the tables and
    # the residuals of the calls on each frame alone: exactly 0
    canonical = canonical_dirac_constants()
    spins = [np.eye(4)] + [frame_inversion(kind) for kind in ("P", "T", "PT")]
    stack = canonical.transform(np.stack(spins))
    suite = verify_dirac_identities(stack)
    assert suite.keys() == verify_dirac_identities(canonical).keys()
    for k, spin in enumerate(spins):
        alone = canonical.transform(spin)
        for name, value in vars(alone).items():
            stacked = getattr(stack, name)
            assert np.array_equal(stacked if stacked.shape == value.shape else stacked[k], value)
        for check, value in verify_dirac_identities(alone).items():
            assert suite[check].shape == (4,)
            assert suite[check][k] == value == 0.0, (k, check)
