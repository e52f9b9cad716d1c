"""A batch of points against the same calls one point at a time.

Every field, builder, verifier and frame change takes points of shape
(..., 4).  On every bundled scenario and in both modes, the batch of
all sample points must give what the calls at each single point give,
to 1e-14 scaled by the value's magnitude; a table entry without batch
axes (a canonical constant) must be exactly every point's.  A table
whose canonical constants are broadcast to the batch gives the bits of
the same table with the constants as they are.  A batch whose third
point fails must raise the error the call at that point raises.
"""

import json
from importlib import resources

import numpy as np
import pytest

from spintensor import cli
from spintensor.chiral import (
    BARE_ENTRIES,
    ScenarioError,
    build_chiral_metric_connection,
    concordance_residuals,
    tangent_concordance,
    transform_connection,
    verify_concordance,
    worst_residual,
)
from spintensor.dirac_connection import build_dirac_metric_connection
from spintensor.expressions import EvaluationError
from spintensor.frames import (
    MatrixField,
    NumericalError,
    check_frame,
    theta_parameters,
    transform_components,
)
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    load_scenario_spec,
    random_transition,
)

AGREEMENT = 1e-14

BUILDERS = {
    "chiral": (chiral_scenario_from_spec, [build_chiral_metric_connection]),
    "dirac": (
        dirac_scenario_from_spec,
        [
            lambda jets, points: build_dirac_metric_connection(jets, points, "simplified"),
            lambda jets, points: build_dirac_metric_connection(jets, points, "blocks"),
        ],
    ),
}
CASES = [(name, mode) for name in bundled_scenario_names() for mode in BUILDERS]


def assert_batch_matches(batch, singles, label):
    """batch[k] equals singles[k] for every point k, to AGREEMENT scaled."""
    for k, single in enumerate(singles):
        single = np.asarray(single)
        scale = max(1.0, float(np.max(np.abs(single), initial=0.0)))
        assert np.asarray(batch[k]).shape == single.shape, label
        assert np.max(np.abs(batch[k] - single), initial=0.0) <= AGREEMENT * scale, (label, k)


def scenario_points(name, mode):
    scenario = BUILDERS[mode][0](bundled_scenario(name))
    return scenario, scenario.points


def table_arrays(table):
    """Every array of a table by label: each jet's value and partials
    (d<label>), each bare value and each frame derivative (L<label>),
    None where exactly zero."""
    out = {}
    for label, entry in table.items():
        if label == "lie":
            out.update((f"L{attr}", lie) for attr, lie in entry.items())
        elif label in BARE_ENTRIES:
            out[label] = entry
        else:
            out[label], out[f"d{label}"] = entry
    return out


@pytest.mark.parametrize("name, mode", CASES)
def test_structure_field_jets(name, mode):
    scenario, points = scenario_points(name, mode)
    table = table_arrays(scenario.jets(points))
    singles = [table_arrays(scenario.jets(point)) for point in points]
    assert all(single.keys() == table.keys() for single in singles)
    for label, batch in table.items():
        values = [single[label] for single in singles]
        where = f"{name} {mode} {label}"
        if batch is None:
            assert all(value is None for value in values), where
        elif batch.ndim == values[0].ndim:  # no batch axes: one constant for every point
            assert all(np.array_equal(batch, value) for value in values), where
        else:
            assert_batch_matches(batch, values, where)


@pytest.mark.parametrize("name, mode", CASES)
def test_constants_without_batch_axes_give_the_bits_of_broadcast_ones(name, mode):
    # the connection and the concordance residuals of a table whose
    # canonical constants carry no batch axes are bitwise those of the
    # table with the constants broadcast to the batch (its derived
    # entries formed again from the broadcast ones)
    scenario, points = scenario_points(name, mode)
    table = scenario.jets(points)
    batch = points.shape[:-1]
    constants = [attr for attr, constant in scenario.CANONICAL.items()
                 if table[attr][0] is constant and table[attr][1] is None]
    if mode == "dirac":
        assert {"H", "D"} <= set(constants)
    widened = scenario.complete_table(
        {**table, **{attr: (np.broadcast_to(table[attr][0], batch + table[attr][0].shape), None)
                     for attr in constants}})
    for build in BUILDERS[mode][1]:
        conn, wide = build(table, points), build(widened, points)
        for part in ("Gamma", "A", "Abar"):
            assert np.array_equal(getattr(conn, part), getattr(wide, part)), part
        residuals = concordance_residuals(scenario, table, conn, tangent_concordance(table, conn))
        assert residuals == concordance_residuals(scenario, widened, wide,
                                                  tangent_concordance(widened, wide))


@pytest.mark.parametrize("name, mode", CASES)
def test_builders(name, mode):
    scenario, points = scenario_points(name, mode)
    for build in BUILDERS[mode][1]:
        conn = build(scenario.jets(points), points)
        singles = [build(scenario.jets(point), point) for point in points]
        for part in ("Gamma", "A", "Abar"):
            assert_batch_matches(
                getattr(conn, part), [getattr(s, part) for s in singles], f"{name} {mode} {part}"
            )


@pytest.mark.parametrize("name, mode", CASES)
def test_concordance(name, mode):
    scenario, points = scenario_points(name, mode)
    build = BUILDERS[mode][1][0]
    batch = verify_concordance(build, scenario)
    singles = [verify_concordance(build, scenario, points=[point]) for point in points]
    assert set(batch) == set(singles[0])
    for check, value in batch.items():
        assert abs(value - max(s[check] for s in singles)) <= AGREEMENT, (name, mode, check)


@pytest.mark.parametrize("name, mode", CASES)
def test_frame_changes_under_a_seeded_transition(name, mode):
    scenario, points = scenario_points(name, mode)
    trans = random_transition(seed=11)

    def mode_jets(points):
        # this mode's (S, T, Ss, Ts): a Dirac scenario lifts the chiral Ss
        return scenario.spinor_transition(trans.jets(points))

    table = scenario.jets(points)
    trans_jets = mode_jets(points)
    for _, attr, sig in scenario.STRUCTURE_FIELDS:
        value, d = table[attr]
        moved, dmoved = transform_components(sig, (value, d), trans_jets)
        # a value without batch axes (a canonical constant) is every point's
        batched = value.ndim > sig.rank
        singles = [
            transform_components(sig, (value[k] if batched else value, None if d is None else d[k]),
                                 mode_jets(point))
            for k, point in enumerate(points)
        ]
        assert_batch_matches(moved, [m for m, _ in singles], attr)
        assert_batch_matches(dmoved, [dm for _, dm in singles], f"d{attr}")
    theta, vartheta = theta_parameters(trans_jets, table["frame"], points)
    singles = [
        theta_parameters(mode_jets(point), scenario.jets(point)["frame"], point)
        for point in points
    ]
    assert_batch_matches(theta, [s[0] for s in singles], "theta")
    assert_batch_matches(vartheta, [s[1] for s in singles], "vartheta")


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_covariance_over_a_stack_of_seeds_is_the_per_seed_loop(name):
    # the covariance stage moves, builds and transforms its three seed
    # offsets as one (3, N) batch; the same steps one seed at a time
    # give the same connections and the same residual, exactly
    spec = bundled_scenario(name)
    ctx = cli.Run(report=cli.ResidualReport(name, "covariance"), spec=spec)
    cli.run_covariance(ctx)
    base, table, conn = ctx.mode("chiral")
    points = base.points
    worst = 0.0
    for offset in range(3):
        moved, trans_jets = base.deform_jets(table, random_transition(spec.seed + offset), points)
        theta = theta_parameters(trans_jets, table["frame"], points)
        back = transform_connection(build_chiral_metric_connection(moved, points), trans_jets, theta)
        for part in ("Gamma", "A", "Abar"):
            worst = worst_residual(worst, getattr(back, part) - getattr(conn, part))
    assert ctx.report.checks["chiral-transformation-law"]["max_residual"] == worst


# --- a failing third point -------------------------------------------

GOOD = [[0.5, 0.2, -0.3, 0.1], [0.1, -0.4, 0.2, 0.3]]


def same_error(call, points, error):
    """call(points) and call(points[2]) raise error with one and the same
    one-line message, which names the third point."""
    with pytest.raises(error) as batch:
        call(np.asarray(points))
    with pytest.raises(error) as single:
        call(np.asarray(points[2]))
    message = str(batch.value)
    assert message == str(single.value)
    assert len(message.splitlines()) == 1
    return message


def test_negative_sqrt_at_the_third_point():
    field = MatrixField.from_expressions([["sqrt(x0)", "x1"], ["0", "1"]])
    message = same_error(field, GOOD + [[-0.2, 0.0, 0.0, 0.0]], EvaluationError)
    assert message == "sqrt(-0.2): math domain error"
    # and a scenario built on that metric names the field and the point;
    # the changed spec is loaded, so its grids and parsed fields agree
    data = json.loads((resources.files("spintensor") / "scenarios" / "diag-scale.json").read_text())
    data["metric"] = [["sqrt(x0)", "0", "0", "0"]] + data["metric"][1:]
    data["sample_points"] = GOOD + [[-0.2, 0.0, 0.0, 0.0]]
    spec = load_scenario_spec(data)
    failure = r"^metric at \(-0\.2, 0\.0, 0\.0, 0\.0\): sqrt\(-0\.2\)"
    scenario = chiral_scenario_from_spec(spec)
    with pytest.raises(ScenarioError, match=failure):
        scenario.jets(scenario.points)


def test_singular_frame_at_the_third_point():
    field = MatrixField.from_expressions(
        [["x0", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    )

    def frame(points):
        return check_frame(field.jet(points), points)

    # the fourth point fails too; the message names the first failure
    message = same_error(
        frame,
        GOOD + [[0.0, 0.5, 0.0, 0.0], [0.0, -0.5, 0.0, 0.0]],
        ValueError,
    )
    assert message == "frame is singular at (0.0, 0.5, 0.0, 0.0)"


def test_failed_abar_check_at_the_third_point():
    # 1 + x0 = 1e-16: the metric is nearly degenerate there, and seen
    # from a seeded frame the conjugate-coefficient check trips
    spec = bundled_scenario("diag-scale")
    spec.sample_points = GOOD + [[-0.9999999999999999, 0.0, 0.0, 0.0]]
    base, trans = chiral_scenario_from_spec(spec), random_transition(seed=2)

    def build(points):
        moved, _ = base.deform_jets(base.jets(points), trans, points)
        return build_chiral_metric_connection(moved, points)

    message = same_error(
        build,
        spec.sample_points,
        NumericalError,
    )
    assert message == "Abar is not the conjugate of A at (-0.9999999999999999, 0.0, 0.0, 0.0)"


def test_point_batches_of_any_leading_shape():
    scenario = chiral_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    points = scenario.points[:4]
    flat = build_chiral_metric_connection(scenario.jets(points), points)
    grid_points = points.reshape(2, 2, 4)
    grid = build_chiral_metric_connection(scenario.jets(grid_points), grid_points)
    assert grid.A.shape == (2, 2, 4, 2, 2)
    assert np.array_equal(grid.A.reshape(flat.A.shape), flat.A)
