"""A jet's d None means exactly zero partials, and nothing else.

Constant table entries, the chirality operator and pairing of every
Dirac table (moved or not), products of constants, grids of constant
expressions and constant transitions carry no partial array at all,
and the theta-parameters of a constant transition are exactly zero.  The torsion entry is a bare value, in a
scenario's table and in a moved one.
"""

import numpy as np
import pytest

from spintensor.chiral import BARE_ENTRIES, ChiralScenario
from spintensor.dirac import DD_DIRAC, H_DIRAC
from spintensor.frames import (
    FrameTransition,
    MatrixField,
    einsum_jet,
    theta_parameters,
)
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    random_transition,
)

POINTS = np.array([[0.5, 0.2, -0.3, 0.1], [0.1, -0.4, 0.2, 0.3]])
LOADERS = {"chiral": chiral_scenario_from_spec, "dirac": dirac_scenario_from_spec}
UNDEFORMED = [name for name in bundled_scenario_names() if not bundled_scenario(name).deform]


def table(name, mode):
    scenario = LOADERS[mode](bundled_scenario(name))
    return scenario, scenario.jets(scenario.points)


@pytest.mark.parametrize("mode", sorted(LOADERS))
@pytest.mark.parametrize("name", UNDEFORMED)
def test_constant_entries_carry_no_partials(name, mode):
    scenario, jets = table(name, mode)
    for attr in scenario.CANONICAL:
        assert jets[attr][1] is None, attr
    if bundled_scenario(name).frame is None:
        assert jets["frame"][1] is None


@pytest.mark.parametrize("mode", sorted(LOADERS))
@pytest.mark.parametrize("name", bundled_scenario_names())
def test_no_entry_holds_an_all_zero_partial_array(name, mode):
    _, jets = table(name, mode)
    for label, entry in jets.items():
        if label not in BARE_ENTRIES:
            assert entry[1] is None or np.any(entry[1] != 0), label


def assert_canonical_h_and_d(jets):
    # the lift fixes H and D: held as the read-only constants themselves,
    # with no batch axes, never moved
    for attr, constant in (("H", H_DIRAC), ("D", DD_DIRAC)):
        value, d = jets[attr]
        assert d is None, attr
        assert value is constant and not value.flags.writeable, attr


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_every_dirac_table_holds_canonical_h_and_d(name):
    scenario, jets = table(name, "dirac")
    points = scenario.points
    assert_canonical_h_and_d(jets)
    stacked = np.broadcast_to(points, (3,) + points.shape)
    moved, _ = scenario.deform_jets(jets, random_transition([2, 3, 4]), stacked)
    assert_canonical_h_and_d(moved)


def test_product_of_constants_is_constant():
    a, b = np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[0.0, 1.0], [3.0, 0.0]])
    value, d = einsum_jet("ij,jk->ik", (a, None), (b, None))
    assert d is None
    assert np.array_equal(value, a @ b)
    # one varying factor: its product-rule term alone
    m = MatrixField.from_expressions([["x0", "0"], ["x1", "1"]]).jet(POINTS)
    value, d = einsum_jet("ij,jk->ik", (a, None), m)
    assert np.array_equal(d, np.einsum("ij,nxjk->nxik", a, m[1]))


@pytest.mark.parametrize("s, ss", [
    (np.diag([1.0, 2.0, 1.0, 1.0]), np.eye(2, dtype=complex)),
    (np.array([[1.0, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 3]]),
     np.array([[1j, 1.0], [0.0, 2.0]])),
])
def test_constant_transitions_have_exactly_zero_theta(s, ss):
    jets = FrameTransition(MatrixField.constant(s), MatrixField.constant(ss)).jets(POINTS)
    assert all(d is None for _, d in jets)
    theta, vartheta = theta_parameters(jets, MatrixField.constant(np.eye(4)).jet(POINTS), POINTS)
    assert np.array_equal(theta, np.zeros((len(POINTS), 4, 4, 4)))
    assert np.array_equal(vartheta, np.zeros((len(POINTS), 4, 2, 2)))


def test_torsion_is_a_bare_value_in_plain_and_moved_tables():
    base = chiral_scenario_from_spec(bundled_scenario("diag-scale"))
    t = np.zeros((4, 4, 4))
    t[1, 0, 1], t[1, 1, 0] = 0.25, -0.25
    scenario = ChiralScenario(base.points, base.frame, base.g, torsion=MatrixField.constant(t))
    points = scenario.points
    jets = scenario.jets(points)
    assert isinstance(jets["torsion"], np.ndarray)
    assert np.array_equal(jets["torsion"], np.broadcast_to(t, (len(points), 4, 4, 4)))
    trans = random_transition(seed=5)
    moved, trans_jets = scenario.deform_jets(jets, trans, points)
    assert isinstance(moved["torsion"], np.ndarray)
    # T^k_ij moves with T on its upper slot and S on its lower ones
    (s, _), (s_inv, _) = trans_jets[:2]
    expected = np.einsum("nka,abc,nbi,ncj->nkij", s_inv, t, s, s)
    assert np.allclose(moved["torsion"], expected, atol=1e-12)


def test_grid_of_constants_is_a_constant_field():
    value, d = MatrixField.from_expressions([["1", "0"], ["2.5", 3]]).jet(POINTS)
    assert d is None
    assert np.array_equal(value[1], [[1.0, 0.0], [2.5, 3.0]])
    assert MatrixField.from_expressions([["1", "x2"], ["0", "1"]]).jet(POINTS)[1] is not None
