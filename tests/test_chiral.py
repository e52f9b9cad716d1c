from collections import Counter

import numpy as np
import pytest

from spintensor.chiral import (
    ChiralScenario,
    SpinorConnection,
    SpinTensorField,
    build_chiral_metric_connection,
    canonical_chiral_constants,
    compute_g_lower_symbols,
    covariant_derivative,
    metric_tangent_connection,
    transform_connection,
    verify_chiral_identities,
    verify_concordance,
)
from spintensor.frames import (
    Chart,
    FrameField,
    MatrixField,
    structural_constants,
    theta_parameters,
)
from spintensor.dirac_connection import build_dirac_metric_connection
from spintensor.scenarios import (
    bundled_scenario,
    chiral_scenario_from_spec,
    coordinate_christoffel,
    deform_scenario,
    dirac_scenario_from_spec,
    random_transition,
)
from spintensor.tensor_core import TensorSignature, outer

PT = (0.5, 0.2, -0.3, 0.1)

DIAG_METRIC = [
    ["1", "0", "0", "0"],
    ["0", "-(1+x0)^2", "0", "0"],
    ["0", "0", "-1", "0"],
    ["0", "0", "0", "-1"],
]


def diag_scenario():
    return chiral_scenario_from_spec(bundled_scenario("diag-scale"))


def test_canonical_identity_suite_is_exactly_zero():
    residuals = verify_chiral_identities(canonical_chiral_constants())
    assert residuals
    for check, value in residuals.items():
        assert value == 0.0, check


def test_lower_symbols_invert_the_upper_ones():
    constants = canonical_chiral_constants()
    # contracting upper against lower symbols gives twice the tangent identity
    prod = np.einsum("ixp,qix->pq", constants.G_upper, constants.G_lower)
    assert np.array_equal(prod, 2.0 * np.eye(4))


def test_flat_connection_is_zero():
    scenario = chiral_scenario_from_spec(bundled_scenario("flat"))
    for point in scenario.chart.sample_points:
        conn = build_chiral_metric_connection(scenario, point)
        assert np.max(np.abs(conn.Gamma)) < 1e-12
        assert np.max(np.abs(conn.A)) < 1e-12
        assert np.max(np.abs(conn.Abar)) < 1e-12


def test_tangent_connection_matches_christoffel_oracle():
    scenario = diag_scenario()
    g_coord = MatrixField.from_expressions(DIAG_METRIC)
    for point in scenario.chart.sample_points:
        gamma = metric_tangent_connection(scenario, point)
        oracle = coordinate_christoffel(g_coord, point)
        assert np.max(np.abs(gamma - oracle)) < 1e-5


def test_tangent_connection_hand_values():
    scenario = diag_scenario()
    gamma = metric_tangent_connection(scenario, (0.5, 0.0, 0.0, 0.0))
    assert abs(gamma[0, 1, 1] - 2.0 / 3.0) < 1e-9  # direction 0, upper 1, lower 1
    assert abs(gamma[1, 0, 1] - 1.5) < 1e-9  # direction 1, upper 0, lower 1


def test_connection_is_torsion_free_in_anholonomic_frames():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    for point in scenario.chart.sample_points:
        gamma = metric_tangent_connection(scenario, point)
        c = structural_constants(scenario.frame, point).c
        asym = gamma - gamma.transpose(2, 1, 0)
        assert np.max(np.abs(asym - np.einsum("kij->ikj", c))) < 1e-9


def test_prescribed_torsion_is_reproduced():
    spec = bundled_scenario("diag-scale")
    base = chiral_scenario_from_spec(spec)
    t = np.zeros((4, 4, 4))
    t[1, 0, 1] = 0.25
    t[1, 1, 0] = -0.25
    scenario = ChiralScenario(
        base.chart, base.frame, base.g, torsion=MatrixField.constant(t)
    )
    gamma = metric_tangent_connection(scenario, PT)
    asym = gamma - gamma.transpose(2, 1, 0)
    assert np.allclose(asym, np.einsum("kij->ikj", t), atol=1e-9)
    # and the connection stays metric
    res = verify_concordance(
        lambda p: build_chiral_metric_connection(scenario, p), scenario, points=[PT]
    )
    assert res["nabla-metric"] < 1e-9


def test_scenario_validation():
    chart = Chart(sample_points=[PT])
    bad_g = MatrixField.constant(np.diag([1.0, 1.0, -1.0, -1.0]))
    with pytest.raises(ValueError):
        ChiralScenario(chart, FrameField.coordinate(), bad_g)
    asym = MatrixField.constant(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        ChiralScenario(
            chart,
            FrameField.coordinate(),
            MatrixField.constant(np.diag([1.0, -1.0, -1.0, -1.0])),
            torsion=MatrixField.constant(np.ones((4, 4, 4))),
        )


def test_structure_fields_track_the_metric():
    # the mixed-symbol field must satisfy the spin-metric contraction
    # identity against the frame metric at every point
    scenario = diag_scenario()
    for point in scenario.chart.sample_points:
        g = np.real(scenario.g(point))
        gu = scenario.G(point)
        d = scenario.d(point)
        db = scenario.dbar(point)
        lhs = np.einsum("ij,xy,ixp,jyq->pq", d, db, gu, gu)
        assert np.max(np.abs(lhs - 2.0 * g)) < 1e-12


def test_concordance_residuals_on_bundled_scenarios():
    for name in ("flat", "diag-scale", "ortho-tetrad"):
        scenario = chiral_scenario_from_spec(bundled_scenario(name))
        res = verify_concordance(
            lambda p: build_chiral_metric_connection(scenario, p), scenario
        )
        assert max(res.values()) < 1e-9, name


def test_concordance_on_deformed_scenario():
    scenario = chiral_scenario_from_spec(bundled_scenario("seeded-deformation"))
    res = verify_concordance(
        lambda p: build_chiral_metric_connection(scenario, p), scenario
    )
    assert max(res.values()) < 1e-6


def test_covariant_derivative_leibniz_rule():
    scenario = diag_scenario()
    conn = build_chiral_metric_connection(scenario, PT)
    rng = np.random.default_rng(9)
    sig_x = TensorSignature(alpha=1)
    sig_y = TensorSignature(beta=1, n=1)
    x_arr = rng.standard_normal(sig_x.shape) + 1j * rng.standard_normal(sig_x.shape)
    y_arr = rng.standard_normal(sig_y.shape) + 1j * rng.standard_normal(sig_y.shape)
    x = SpinTensorField(sig_x, MatrixField.constant(x_arr))
    y = SpinTensorField(sig_y, MatrixField.constant(y_arr))
    nx = covariant_derivative(x, conn, scenario, PT).components
    ny = covariant_derivative(y, conn, scenario, PT).components
    sig_xy = TensorSignature(alpha=1, beta=1, n=1)
    xy = SpinTensorField(
        sig_xy, MatrixField.constant(np.einsum("a,jq->ajq", x_arr, y_arr))
    )
    nxy = covariant_derivative(xy, conn, scenario, PT).components
    expected = np.einsum("ar,jq->ajqr", nx, y_arr) + np.einsum(
        "a,jqr->ajqr", x_arr, ny
    )
    assert np.max(np.abs(nxy - expected)) < 1e-10


def test_covariant_derivative_of_scalars_is_the_lie_derivative():
    scenario = diag_scenario()
    conn = build_chiral_metric_connection(scenario, PT)
    f = SpinTensorField(
        TensorSignature(),
        MatrixField(lambda p: np.asarray((1.0 + p[0]) ** 2, dtype=complex)),
    )
    val = covariant_derivative(f, conn, scenario, PT).components
    assert abs(val[0] - 3.0) < 1e-6  # d/dx0 (1+x0)^2 at 0.5
    assert np.max(np.abs(val[1:])) < 1e-8


def test_transform_connection_with_identity_transition_is_identity():
    scenario = diag_scenario()
    conn = build_chiral_metric_connection(scenario, PT)
    trans = random_transition(seed=0, spinor_dim=2, scale=0.0)
    theta = theta_parameters(trans, scenario.frame, PT)
    back = transform_connection(conn, trans, theta, PT)
    assert np.allclose(back.Gamma, conn.Gamma, atol=1e-9)
    assert np.allclose(back.A, conn.A, atol=1e-9)


def test_connection_covariance_round_trip():
    base = diag_scenario()
    trans = random_transition(seed=5, spinor_dim=2)
    moved = deform_scenario(base, trans)
    theta = theta_parameters(trans, base.frame, PT)
    conn_moved = build_chiral_metric_connection(moved, PT)
    conn_base = build_chiral_metric_connection(base, PT)
    back = transform_connection(conn_moved, trans, theta, PT)
    assert np.max(np.abs(back.Gamma - conn_base.Gamma)) < 1e-5
    assert np.max(np.abs(back.A - conn_base.A)) < 1e-5
    assert np.max(np.abs(back.Abar - conn_base.Abar)) < 1e-5


def test_conjugate_coefficients_are_conjugates():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    conn = build_chiral_metric_connection(scenario, PT)
    assert np.allclose(conn.Abar, np.conj(conn.A), atol=1e-12)


def test_non_finite_connection_fails_concordance():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    conn = build_chiral_metric_connection(scenario, PT)
    bad_a = conn.A.copy()
    bad_a[0, 0, 0] = np.nan
    bad = SpinorConnection(conn.Gamma, bad_a, np.conj(bad_a))
    res = verify_concordance(lambda p: bad, scenario)
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
def test_concordance_takes_one_jet_per_structure_field_per_point(load, build):
    """Stricter than per point: one jet per field covers the whole batch
    of sample points in one verify_concordance call."""
    scenario = load(bundled_scenario("seeded-deformation"))
    conn = build(scenario, scenario.chart.points)
    counts = Counter()

    def counted(attr, field):
        def jet(points, deriv=True):
            counts[attr] += 1
            return field.jet(points, deriv)

        return MatrixField(jet=jet)

    for _, attr, _, _ in scenario.STRUCTURE_FIELDS:
        setattr(scenario, attr, counted(attr, getattr(scenario, attr)))
    res = verify_concordance(lambda points: conn, scenario)
    assert counts == {attr: 1 for _, attr, _, _ in scenario.STRUCTURE_FIELDS}
    assert max(res.values()) < 1e-6
