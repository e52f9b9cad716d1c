from collections import Counter

import numpy as np
import pytest

from spintensor.chiral import (
    ChiralScenario,
    SpinorConnection,
    build_chiral_metric_connection,
    canonical_chiral_constants,
    compute_g_lower_symbols,
    covariant_components,
    metric_tangent_connection,
    transform_connection,
    verify_chiral_identities,
    verify_concordance,
)
from spintensor import scenarios
from spintensor.frames import (
    FrameField,
    MatrixField,
    along_frame,
    structural_constants,
    theta_parameters,
)
from spintensor.dirac_connection import build_dirac_metric_connection
from spintensor.scenarios import (
    bundled_scenario,
    chiral_scenario_from_spec,
    bundled_scenario_names,
    coordinate_christoffel,
    dirac_scenario_from_spec,
    random_transition,
)
from spintensor.tensor_core import TensorSignature

PT = (0.5, 0.2, -0.3, 0.1)

DIAG_METRIC = [
    ["1", "0", "0", "0"],
    ["0", "-(1+x0)^2", "0", "0"],
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-1"],
]


def diag_scenario():
    return chiral_scenario_from_spec(bundled_scenario("diag-scale"))


def build_at(build, scenario, points):
    return build(scenario.jets(points), points)


def test_canonical_identity_suite_is_exactly_zero():
    residuals = verify_chiral_identities(canonical_chiral_constants())
    assert residuals
    for check, value in residuals.items():
        assert value == 0.0, check


def test_lower_symbols_invert_the_upper_ones():
    table = canonical_chiral_constants()
    ginv = np.linalg.inv(table["g"])
    lower = compute_g_lower_symbols(table["G"], ginv, table["d"], table["dbar"])
    # contracting upper against lower symbols gives twice the tangent identity
    prod = np.einsum("ixp,qix->pq", table["G"], lower)
    assert np.array_equal(prod, 2.0 * np.eye(4))


def test_flat_connection_is_zero():
    scenario = chiral_scenario_from_spec(bundled_scenario("flat"))
    for point in scenario.points:
        conn = build_at(build_chiral_metric_connection, scenario, point)
        assert np.max(np.abs(conn.Gamma)) < 1e-12
        assert np.max(np.abs(conn.A)) < 1e-12
        assert np.max(np.abs(conn.Abar)) < 1e-12


def test_tangent_connection_matches_christoffel_oracle():
    scenario = diag_scenario()
    g_coord = MatrixField.from_expressions(DIAG_METRIC)
    for point in scenario.points:
        gamma = scenario.jets(point)["Gamma"]
        oracle = coordinate_christoffel(g_coord, point)
        assert np.max(np.abs(gamma - oracle)) < 1e-5


def test_tangent_connection_hand_values():
    scenario = diag_scenario()
    gamma = scenario.jets((0.5, 0.0, 0.0, 0.0))["Gamma"]
    assert abs(gamma[0, 1, 1] - 2.0 / 3.0) < 1e-9  # direction 0, upper 1, lower 1
    assert abs(gamma[1, 0, 1] - 1.5) < 1e-9  # direction 1, upper 0, lower 1


def test_connection_is_torsion_free_in_anholonomic_frames():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    for point in scenario.points:
        jets = scenario.jets(point)
        gamma = jets["Gamma"]
        c = structural_constants(jets["frame"])
        asym = gamma - gamma.transpose(2, 1, 0)
        assert np.max(np.abs(asym - np.einsum("kij->ikj", c))) < 1e-9


def test_prescribed_torsion_is_reproduced():
    spec = bundled_scenario("diag-scale")
    base = chiral_scenario_from_spec(spec)
    t = np.zeros((4, 4, 4))
    t[1, 0, 1] = 0.25
    t[1, 1, 0] = -0.25
    scenario = ChiralScenario(
        base.points, base.frame, base.g, torsion=MatrixField.constant(t)
    )
    gamma = scenario.jets(PT)["Gamma"]
    asym = gamma - gamma.transpose(2, 1, 0)
    assert np.allclose(asym, np.einsum("kij->ikj", t), atol=1e-9)
    # and the connection stays metric
    res = verify_concordance(build_chiral_metric_connection, scenario, points=[PT])
    assert res["nabla-metric"] < 1e-9


def test_scenario_validation():
    bad_g = MatrixField.constant(np.diag([1.0, 1.0, -1.0, -1.0]))
    scenario = ChiralScenario([PT], FrameField.coordinate(), bad_g)
    with pytest.raises(ValueError):
        scenario.jets(scenario.points)
    scenario = ChiralScenario(
        [PT],
        FrameField.coordinate(),
        MatrixField.constant(np.diag([1.0, -1.0, -1.0, -1.0])),
        torsion=MatrixField.constant(np.ones((4, 4, 4))),
    )
    with pytest.raises(ValueError):
        scenario.jets(scenario.points)


def test_scenario_points_are_one_read_only_array():
    source = np.array([PT, (0, 1, 2, 3)])
    scenario = ChiralScenario(source, FrameField.coordinate(), MatrixField.constant(np.eye(4)))
    source[0, 0] = 7.0
    assert scenario.points.dtype == np.float64
    assert scenario.points.tolist() == [list(PT), [0.0, 1.0, 2.0, 3.0]]
    with pytest.raises(ValueError):
        scenario.points[0, 0] = 1.0
    for bad in ([(1.0, 2.0)], PT, [[PT]]):
        with pytest.raises(ValueError, match="sample points must be 4-vectors"):
            ChiralScenario(bad, FrameField.coordinate(), MatrixField.constant(np.eye(4)))
    with pytest.raises(ValueError):
        ChiralScenario([PT, (1.0, 2.0)], FrameField.coordinate(), MatrixField.constant(np.eye(4)))


def test_structure_fields_track_the_metric():
    # the mixed-symbol field must satisfy the spin-metric contraction
    # identity against the frame metric at every point
    scenario = diag_scenario()
    for point in scenario.points:
        jets = scenario.jets(point)
        g = np.real(jets["g"][0])
        gu = jets["G"][0]
        d = jets["d"][0]
        db = jets["dbar"][0]
        lhs = np.einsum("ij,xy,ixp,jyq->pq", d, db, gu, gu)
        assert np.max(np.abs(lhs - 2.0 * g)) < 1e-12


def test_concordance_residuals_on_bundled_scenarios():
    for name in ("flat", "diag-scale", "ortho-tetrad"):
        scenario = chiral_scenario_from_spec(bundled_scenario(name))
        res = verify_concordance(build_chiral_metric_connection, scenario)
        assert max(res.values()) < 1e-9, name


def test_concordance_on_deformed_scenario():
    scenario = chiral_scenario_from_spec(bundled_scenario("seeded-deformation"))
    res = verify_concordance(build_chiral_metric_connection, scenario)
    assert max(res.values()) < 1e-6


def test_covariant_derivative_leibniz_rule():
    scenario = diag_scenario()
    jets = scenario.jets(PT)
    conn = build_chiral_metric_connection(jets, PT)
    rng = np.random.default_rng(9)
    sig_x = TensorSignature(alpha=1)
    sig_y = TensorSignature(beta=1, n=1)
    x_arr = rng.standard_normal(sig_x.shape) + 1j * rng.standard_normal(sig_x.shape)
    y_arr = rng.standard_normal(sig_y.shape) + 1j * rng.standard_normal(sig_y.shape)
    # constant fields: no Lie-derivative term (lie None)
    nx = covariant_components(sig_x, x_arr, None, conn)
    ny = covariant_components(sig_y, y_arr, None, conn)
    sig_xy = TensorSignature(alpha=1, beta=1, n=1)
    nxy = covariant_components(sig_xy, np.einsum("a,jq->ajq", x_arr, y_arr), None, conn)
    expected = np.einsum("ar,jq->ajqr", nx, y_arr) + np.einsum(
        "a,jqr->ajqr", x_arr, ny
    )
    assert np.max(np.abs(nxy - expected)) < 1e-10


def test_covariant_derivative_of_scalars_is_the_lie_derivative():
    scenario = diag_scenario()
    jets = scenario.jets(PT)
    conn = build_chiral_metric_connection(jets, PT)
    value, d = MatrixField.from_expressions("(1+x0)^2").jet(PT)
    lie = along_frame(jets["frame"][0], d)
    val = covariant_components(TensorSignature(), value, lie, conn)
    assert abs(val[0] - 3.0) < 1e-6  # d/dx0 (1+x0)^2 at 0.5
    assert np.max(np.abs(val[1:])) < 1e-8


def test_transform_connection_with_identity_transition_is_identity():
    scenario = diag_scenario()
    jets = scenario.jets(PT)
    conn = build_chiral_metric_connection(jets, PT)
    trans = random_transition(seed=0, scale=0.0).jets(PT)
    theta = theta_parameters(trans, jets["frame"], PT)
    back = transform_connection(conn, trans, theta)
    assert np.allclose(back.Gamma, conn.Gamma, atol=1e-9)
    assert np.allclose(back.A, conn.A, atol=1e-9)


def test_connection_covariance_round_trip():
    base = diag_scenario()
    trans = random_transition(seed=5)
    moved, _ = base.deform_jets(base.jets(PT), trans, PT)
    theta = theta_parameters(trans.jets(PT), base.jets(PT)["frame"], PT)
    conn_moved = build_chiral_metric_connection(moved, PT)
    conn_base = build_at(build_chiral_metric_connection, base, PT)
    back = transform_connection(conn_moved, trans.jets(PT), theta)
    assert np.max(np.abs(back.Gamma - conn_base.Gamma)) < 1e-5
    assert np.max(np.abs(back.A - conn_base.A)) < 1e-5
    assert np.max(np.abs(back.Abar - conn_base.Abar)) < 1e-5


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_a_table_carries_the_tangent_connection_of_its_own_entries(name):
    # g^-1 and Gamma are those of the table's frame, g and torsion: after
    # the spec's own transition moved them, and again after deform_jets
    # moved them to a further frame, alone or as a stack of seeds
    scenario = chiral_scenario_from_spec(bundled_scenario(name))
    points = scenario.points
    table = scenario.jets(points)
    stacked = np.broadcast_to(points, (2,) + points.shape)
    tables = [table, scenario.deform_jets(table, random_transition(seed=8), points)[0],
              scenario.deform_jets(table, random_transition([8, 9]), stacked)[0]]
    for jets in tables:
        ginv = np.linalg.inv(np.real(jets["g"][0]))
        assert np.array_equal(jets["ginv"], ginv)
        assert np.array_equal(jets["Gamma"], metric_tangent_connection(jets, ginv))


def test_conjugate_coefficients_are_conjugates():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    conn = build_at(build_chiral_metric_connection, scenario, PT)
    assert np.allclose(conn.Abar, np.conj(conn.A), atol=1e-12)


def test_spinor_dim_is_read_off_the_spinor_coefficients():
    spec = bundled_scenario("ortho-tetrad")
    for load, build, n in ((chiral_scenario_from_spec, build_chiral_metric_connection, 2),
                           (dirac_scenario_from_spec, build_dirac_metric_connection, 4)):
        conn = build_at(build, load(spec), PT)
        assert conn.spinor_dim == n and conn.A.shape == (4, n, n)
    gamma = np.zeros((4, 4, 4))
    for a, abar in ((np.zeros((4, 3, 3)), np.zeros((4, 3, 3))),
                    (np.zeros((4, 2, 2)), np.zeros((4, 4, 4))),
                    (np.zeros((4, 2, 4)), np.zeros((4, 2, 4)))):
        with pytest.raises(ValueError):
            SpinorConnection(gamma, a, abar)


def test_non_finite_connection_fails_concordance():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    conn = build_at(build_chiral_metric_connection, scenario, PT)
    bad_a = conn.A.copy()
    bad_a[0, 0, 0] = np.nan
    bad = SpinorConnection(conn.Gamma, bad_a, np.conj(bad_a))
    res = verify_concordance(lambda jets, points: bad, scenario)
    # the NaN reaches every residual the spinor coefficients enter
    assert np.isnan(res["nabla-spin-metric"])
    assert np.isnan(res["nabla-mixed-symbols"])
    assert res["nabla-metric"] < 1e-9


@pytest.mark.parametrize(
    "load, build",
    [
        (chiral_scenario_from_spec, build_chiral_metric_connection),
        (dirac_scenario_from_spec, build_dirac_metric_connection),
    ],
)
def test_concordance_takes_one_jet_per_structure_field_per_point(load, build, monkeypatch):
    """Over the whole verify_concordance call, builder included, one table
    covers the batch of sample points: the frame and metric fields are
    evaluated once (the frame metric U^T g U reuses the frame jet), the
    symbols are derived from that metric jet and the deformation's S and
    Ss are evaluated once each (two expm calls)."""
    scenario = load(bundled_scenario("seeded-deformation"))
    counts = Counter()

    def counted(name, evaluate):
        def call(*args):
            counts[name] += 1
            return evaluate(*args)

        return call

    scenario.jets = counted("jets", scenario.jets)
    # the fields' own jet functions, so that an evaluation through any
    # other holder of the same field counts too
    for name, field in (("g", scenario.g), ("frame", scenario.frame.components)):
        field._jet = counted(name, field._jet)
    expm = scenarios.expm
    monkeypatch.setattr(scenarios, "expm", lambda a: (counts.update(["expm"]), expm(a))[1])
    res = verify_concordance(build, scenario)
    assert counts == {"jets": 1, "g": 1, "frame": 1, "expm": 2}
    assert max(res.values()) < 1e-6
