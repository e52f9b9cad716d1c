import numpy as np
import pytest

from spintensor import dirac
from spintensor.chiral import canonical_chiral_constants, verify_chiral_identities
from spintensor.dirac import (
    DiracFrameKind,
    canonical_dirac_constants,
    classify_frame,
    embed_chiral_frame,
    frame_inversion,
    transform_table,
    verify_dirac_identities,
)
from spintensor.dirac_connection import chirality_split
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
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
    gamma = constants["gamma"]
    for m in range(4):
        for n in range(4):
            anti = gamma[:, :, m] @ gamma[:, :, n] + gamma[:, :, n] @ gamma[:, :, m]
            assert np.array_equal(anti, 2.0 * constants["g"][m, n] * np.eye(4))


def test_chirality_operator_properties():
    constants = canonical_dirac_constants()
    h = constants["H"]
    assert np.array_equal(h @ h, np.eye(4))
    assert np.trace(h) == 0
    for m in range(4):
        gm = constants["gamma"][:, :, m]
        assert np.array_equal(h @ gm + gm @ h, np.zeros((4, 4)))


def test_canonical_frame_classifies_canonically():
    constants = canonical_dirac_constants()
    kind = classify_frame(constants["d"], constants["H"], constants["D"])
    assert kind == DiracFrameKind("ortho", "chiral", "self-adjoint")


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_inversions_classify_as_expected(kind):
    constants = transform_table(canonical_dirac_constants(), frame_inversion(kind))
    observed = classify_frame(constants["d"], constants["H"], constants["D"])
    assert observed == EXPECTED_KINDS[kind]


@pytest.mark.parametrize("kind", ["P", "T", "PT"])
def test_identity_suite_survives_inversions_exactly(kind):
    constants = transform_table(canonical_dirac_constants(), frame_inversion(kind))
    for check, value in verify_dirac_identities(constants).items():
        assert value == 0.0, f"{kind}: {check}"


def test_frame_inversion_rejects_unknown_kind():
    with pytest.raises(ValueError):
        frame_inversion("C")


def test_classify_frame_rejects_off_reference_matrices():
    constants = canonical_dirac_constants()
    with pytest.raises(ValueError):
        classify_frame(2 * constants["d"], constants["H"], constants["D"])


def test_embedding_carries_the_chiral_structure():
    residuals = embed_chiral_frame()
    assert "canonical-classification" in residuals
    for check, value in residuals.items():
        assert value == 0.0, check
    table, chiral = canonical_dirac_constants(), canonical_chiral_constants()
    assert np.array_equal(table["d"][:2, :2], chiral["d"])
    assert np.array_equal(table["gamma"][:2, 2:, :], chiral["G"])


def test_embedding_measures_a_frame_off_the_reference(monkeypatch):
    # a spin-metric matching neither reference sign is measured, not raised
    table = canonical_dirac_constants()
    monkeypatch.setattr(dirac, "canonical_dirac_constants",
                        lambda: {**table, "d": 2.0 * table["d"]})
    residuals = embed_chiral_frame()
    assert residuals["canonical-classification"] == 1.0
    assert residuals["spin-metric-blocks"] == 1.0
    assert residuals["gamma-chiral-blocks"] == 0.0


def test_derived_companions_are_consistent():
    # the companions the suites derive are exact on the canonical table
    constants = canonical_dirac_constants()
    assert np.array_equal(constants["d"] @ np.linalg.inv(constants["d"]), np.eye(4))
    raised = np.einsum("abk,km->abm", constants["gamma"], np.linalg.inv(constants["g"]))
    assert np.array_equal(raised[..., 0], constants["gamma"][..., 0])
    assert np.array_equal(raised[..., 1:], -constants["gamma"][..., 1:])


def test_a_stack_of_frames_is_each_frame_alone():
    # one transform of the stacked spinor matrices (identity, P, T, PT)
    # and one suite over the stack give, frame by frame, the tables and
    # the residuals of the calls on each frame alone: exactly 0
    canonical = canonical_dirac_constants()
    spins = [np.eye(4)] + [frame_inversion(kind) for kind in ("P", "T", "PT")]
    stack = transform_table(canonical, np.stack(spins))
    suite = verify_dirac_identities(stack)
    assert suite.keys() == verify_dirac_identities(canonical).keys()
    for k, spin in enumerate(spins):
        alone = transform_table(canonical, spin)
        assert alone.keys() == stack.keys() == canonical.keys()
        for name, value in alone.items():
            stacked = stack[name]
            assert np.array_equal(stacked if stacked.shape == value.shape else stacked[k], value)
        for check, value in verify_dirac_identities(alone).items():
            assert suite[check].shape == (4,)
            assert suite[check][k] == value == 0.0, (k, check)


@pytest.mark.parametrize("sign, expected", [(-1, 0.0), (1, 1.0)])
def test_pairing_bar_swap_reads_the_hermitian_part(sign, expected):
    # the canonical D is real and symmetric, so it cannot tell the
    # conjugate transpose from the plain transpose: an i on (0, 1) and
    # sign * i on (1, 0) is Hermitian for sign -1 (residual 0) and
    # symmetric but not Hermitian for sign +1 (residual |2i| / 2 = 1)
    off = np.zeros((4, 4), dtype=complex)
    off[0, 1], off[1, 0] = 1j, sign * 1j
    table = {**canonical_dirac_constants(), "D": dirac.DD_DIRAC + 0.5 * off}
    assert verify_dirac_identities(table)["pairing-bar-swap-invariance"] == expected


def test_canonical_tables_are_read_only():
    # a caller that writes into a returned table cannot corrupt the
    # module constants every later table is made of
    for table in (canonical_chiral_constants(), canonical_dirac_constants()):
        for attr, value in table.items():
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = 7.0
    assert canonical_dirac_constants()["gamma"] is dirac.GAMMA


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_identity_suites_hold_on_every_bundled_table(name):
    # the values of a scenario's table at its sample points are a
    # stack of consistent frames (varying, and moved on a deformed
    # scenario): every suite gives one residual per point, each zero to
    # rounding
    spec = bundled_scenario(name)
    for loader, suites in (
        (chiral_scenario_from_spec, (verify_chiral_identities,)),
        (dirac_scenario_from_spec, (verify_dirac_identities, chirality_split)),
    ):
        scenario = loader(spec)
        jets = scenario.jets(scenario.points)
        table = {attr: jets[attr][0] for _, attr, _ in scenario.STRUCTURE_FIELDS}
        for suite in suites:
            for check, values in suite(table).items():
                assert np.shape(values) == (len(scenario.points),), check
                assert np.max(values) <= 1e-13, (suite.__name__, check, np.max(values))
