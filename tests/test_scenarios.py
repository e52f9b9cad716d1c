import json

import numpy as np
import pytest

from spintensor import frames, scenarios
from spintensor.frames import MatrixField
from spintensor.scenarios import (
    SpecError,
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    coordinate_christoffel,
    dirac_scenario_from_spec,
    load_scenario_spec,
    random_transition,
)
from spintensor.tetrads import (
    orthonormal_factor_jet,
    signed_cholesky,
    signed_cholesky_partial,
    symbol_jet,
)

PT = (0.5, 0.2, -0.3, 0.1)

GOOD_SPEC = {
    "schema": "scenario-spec/1",
    "name": "unit-test",
    "mode": "chiral",
    "metric": [
        ["1", "0", "0", "0"],
        ["0", "-(1+x0)^2", "0", "0"],
        ["0", "0", "-1", "0"],
        ["0", "0", "0", "-1"],
    ],
    "sample_points": [[0.5, 0.2, -0.3, 0.1]],
    "fd_step": 0.0001,
    "seed": 1,
}


def spec_with(**overrides):
    data = json.loads(json.dumps(GOOD_SPEC))
    data.update(overrides)
    return data


def test_bundled_catalog():
    assert bundled_scenario_names() == [
        "diag-scale",
        "flat",
        "ortho-tetrad",
        "seeded-deformation",
    ]
    for name in bundled_scenario_names():
        spec = bundled_scenario(name)
        assert spec.name == name
        assert spec.modes == ("chiral", "dirac")


def test_unknown_bundled_scenario():
    with pytest.raises(SpecError):
        bundled_scenario("does-not-exist")


def test_load_valid_spec():
    spec = load_scenario_spec(GOOD_SPEC)
    assert spec.name == "unit-test"
    assert spec.modes == ("chiral",)
    assert spec.tolerances["concordance"] == 1e-6


@pytest.mark.parametrize(
    "overrides",
    [
        {"schema": "scenario-spec/0"},
        {"name": ""},
        {"mode": "mixed"},
        {"metric": [["1", "0"], ["0", "1"]]},
        {"metric": [["1+", "0", "0", "0"]] + GOOD_SPEC["metric"][1:]},
        {"sample_points": []},
        {"sample_points": [[1.0, 2.0]]},
        {"fd_step": 0.0},
        {"deform": "yes"},
    ],
)
def test_malformed_specs_are_rejected(overrides):
    with pytest.raises(SpecError):
        load_scenario_spec(spec_with(**overrides))


def test_unreadable_path_is_a_spec_error():
    with pytest.raises(SpecError):
        load_scenario_spec("/nonexistent/spec.json")


def test_signed_cholesky_factorizes_the_metric():
    g = np.array(
        [
            [1.2, 0.1, 0.0, 0.0],
            [0.1, -1.5, 0.2, 0.0],
            [0.0, 0.2, -0.9, 0.1],
            [0.0, 0.0, 0.1, -1.1],
        ]
    )
    eta = np.diag([1.0, -1.0, -1.0, -1.0])
    lower = signed_cholesky(g)
    assert np.allclose(lower @ eta @ lower.T, g, atol=1e-12)
    assert np.all(np.diag(lower) > 0)
    assert np.max(np.abs(np.triu(lower, 1))) == 0.0


def test_signed_cholesky_rejects_wrong_signature():
    with pytest.raises(ValueError):
        signed_cholesky(np.diag([-1.0, -1.0, -1.0, -1.0]))


def test_signed_cholesky_partial_matches_finite_differences():
    def g_at(t):
        f = 1.0 + 0.5 * t
        return np.array(
            [
                [1.0 + 0.1 * t, 0.05 * t, 0.0, 0.0],
                [0.05 * t, -f * f, 0.0, 0.0],
                [0.0, 0.0, -1.0, 0.0],
                [0.0, 0.0, 0.0, -1.0 - 0.2 * t],
            ]
        )

    t0, h = 0.4, 1e-6
    lower = signed_cholesky(g_at(t0))
    dg = (g_at(t0 + h) - g_at(t0 - h)) / (2 * h)
    dl_fd = (signed_cholesky(g_at(t0 + h)) - signed_cholesky(g_at(t0 - h))) / (2 * h)
    dl = signed_cholesky_partial(lower, dg)
    assert np.max(np.abs(dl - dl_fd)) < 1e-8


def test_orthonormal_factor_field_partials():
    g = MatrixField.from_expressions(GOOD_SPEC["metric"])
    value, dg = g.jet(PT)
    analytic = signed_cholesky_partial(signed_cholesky(value), dg)[0]

    def factor(point):
        return signed_cholesky(g(point))

    fd = (factor((0.5 + 1e-6, 0.2, -0.3, 0.1)) - factor((0.5 - 1e-6, 0.2, -0.3, 0.1))) / 2e-6
    assert np.max(np.abs(analytic - fd)) < 1e-8


def test_derived_symbol_field_reduces_to_canonical_on_minkowski():
    from spintensor.chiral import G_UPPER

    g = MatrixField.constant(np.diag([1.0, -1.0, -1.0, -1.0]))
    value, d = symbol_jet(orthonormal_factor_jet(g.jet(PT)), G_UPPER)
    assert np.array_equal(value, G_UPPER)
    assert d is None


def test_frame_metric_field_of_tetrad_is_minkowski():
    spec = bundled_scenario("ortho-tetrad")
    scenario = chiral_scenario_from_spec(spec)
    for point in scenario.points:
        assert np.allclose(
            np.real(scenario.jets(point)["g"][0]),
            np.diag([1.0, -1.0, -1.0, -1.0]),
            atol=1e-12,
        )


def test_coordinate_christoffel_hand_values():
    g = MatrixField.from_expressions(GOOD_SPEC["metric"])
    gamma = coordinate_christoffel(g, (0.5, 0.0, 0.0, 0.0))
    assert abs(gamma[0, 1, 1] - 2.0 / 3.0) < 1e-6
    assert abs(gamma[1, 0, 1] - 1.5) < 1e-6


def test_random_transition_is_deterministic():
    a = random_transition(seed=3)
    b = random_transition(seed=3)
    assert np.array_equal(a.S(PT), b.S(PT))
    assert np.array_equal(a.Ss(PT), b.Ss(PT))
    c = random_transition(seed=4)
    assert not np.array_equal(a.S(PT), c.S(PT))


def test_a_stack_of_seeds_is_each_seed_alone():
    # each seed of the stack keeps its own generator and draw order: at
    # its slice of a (3, N) batch, the stacked field is the field of
    # that seed alone, values and partials, to the last bit
    points = np.array([PT, (0.1, -0.4, 0.2, 0.3)])
    stack = random_transition([3, 4, 5])
    stacked = np.broadcast_to(points, (3, 2, 4))
    for field in ("S", "Ss"):
        value, d = getattr(stack, field).jet(stacked)
        for k, seed in enumerate([3, 4, 5]):
            alone = getattr(random_transition(seed), field).jet(points)
            assert np.array_equal(value[k], alone[0])
            assert np.array_equal(d[k], alone[1])


def test_dirac_spinor_transition_block_structure(monkeypatch):
    # the lift is blockdiag(Ss, Ts^dagger) and its inverse
    # blockdiag(Ts, Ss^dagger), read off the held jets, values and
    # partials, with no inversion; its |det| is 1 by construction,
    # which is why the lift is not checked again
    dirac = dirac_scenario_from_spec(bundled_scenario("diag-scale"))
    points = dirac.points
    chiral = random_transition(seed=6).jets(points)
    inversions = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda a: inversions.append(a) or inv(a))
    lifted = dirac.spinor_transition(chiral)
    monkeypatch.undo()
    assert inversions == []
    assert lifted[0] is chiral[0] and lifted[1] is chiral[1]

    def blockdiag(top, dual):
        out = np.zeros(top.shape[:-2] + (4, 4), dtype=complex)
        out[..., :2, :2] = top
        out[..., 2:, 2:] = np.conj(np.swapaxes(dual, -1, -2))
        return out

    (ss, dss), (ts, dts) = chiral[2:]
    for (value, d), (top, dtop), (dual, ddual) in zip(lifted[2:], ((ss, dss), (ts, dts)),
                                                      ((ts, dts), (ss, dss))):
        assert np.array_equal(value, blockdiag(top, dual))
        assert np.array_equal(d, blockdiag(dtop, ddual))
    spin, spin_inv = lifted[2][0], lifted[3][0]
    assert np.max(np.abs(spin @ spin_inv - np.eye(4))) < 1e-15
    assert np.max(np.abs(np.abs(np.linalg.det(spin)) - 1.0)) < 1e-12


def test_deform_jets_preserves_structure_compatibility():
    base = chiral_scenario_from_spec(load_scenario_spec(GOOD_SPEC))
    trans = random_transition(seed=8)
    for point in [PT]:
        jets, _ = base.deform_jets(base.jets(point), trans, point)
        g = np.real(jets["g"][0])
        gu = jets["G"][0]
        d = jets["d"][0]
        db = jets["dbar"][0]
        lhs = np.einsum("ij,xy,ixp,jyq->pq", d, db, gu, gu)
        assert np.max(np.abs(lhs - 2.0 * g)) < 1e-10


def test_dirac_scenario_from_spec_has_four_component_fields():
    scenario = dirac_scenario_from_spec(bundled_scenario("seeded-deformation"))
    jets = scenario.jets(PT)
    assert jets["gamma"][0].shape == (4, 4, 4)
    assert jets["d"][0].shape == (4, 4)


@pytest.mark.parametrize("load", [chiral_scenario_from_spec, dirac_scenario_from_spec])
def test_a_deformed_table_evaluates_its_transition_once(load, monkeypatch):
    # S and Ss once each (the Dirac transition embeds the chiral Ss):
    # two expm calls per table, each stacked over the sample points
    scenario = load(bundled_scenario("seeded-deformation"))
    calls = []
    expm = scenarios.expm

    def counted(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(scenarios, "expm", counted)
    scenario.jets(scenario.points)
    assert len(calls) == 2


@pytest.mark.parametrize("load", [chiral_scenario_from_spec, dirac_scenario_from_spec])
def test_a_table_evaluates_each_expression_grid_once(load, monkeypatch):
    # the frame and the metric grids, each as values and then partials:
    # the frame metric U^T g U reuses the table's frame jet
    scenario = load(bundled_scenario("ortho-tetrad"))
    calls = []
    values_at = frames.values_at

    def counted(cells, points):
        calls.append(len(cells))
        return values_at(cells, points)

    monkeypatch.setattr(frames, "values_at", counted)
    scenario.jets(scenario.points)
    assert calls == [16, 64, 16, 64]
