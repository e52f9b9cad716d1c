import re

import numpy as np
import pytest

from spintensor.chiral import (
    SpinorConnection,
    build_chiral_metric_connection,
    verify_concordance,
)
from spintensor.dirac import (
    H_DIRAC,
    canonical_dirac_constants,
    frame_inversion,
    transform_table,
)
from spintensor.dirac_connection import (
    CHIRAL,
    DUAL,
    DiracScenario,
    build_dirac_metric_connection,
    chirality_split,
    restrict_to_chiral,
)
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    random_transition,
)

PT = (0.5, 0.2, -0.3, 0.1)


def test_chirality_split_projectors():
    split = chirality_split(canonical_dirac_constants())
    checks = ("projector-sum", "projector-product", "projector-idempotence",
              "projector-idempotence-circ")
    for check in checks:
        assert split[check] == 0.0, check
    # an H that is not an involution gives projectors that are not idempotent
    table = {**canonical_dirac_constants(), "H": 2.0 * H_DIRAC}
    split = chirality_split(table)
    assert split["projector-sum"] == 0.0
    assert split["projector-idempotence"] == split["projector-idempotence-circ"] == 0.75


def test_chirality_split_gamma_pieces():
    split = chirality_split(canonical_dirac_constants())
    for check in ("same-chirality-gamma-vanishing", "same-chirality-gamma-vanishing-circ",
                  "gamma-reconstruction"):
        assert split[check] == 0.0, check
    # one same-chirality gamma entry is measured by its own residual
    gamma = canonical_dirac_constants()["gamma"].copy()
    gamma[0, 1, 2] = 0.5
    split = chirality_split({**canonical_dirac_constants(), "gamma": gamma})
    assert split["same-chirality-gamma-vanishing"] == 0.5
    assert split["same-chirality-gamma-vanishing-circ"] == 0.0
    assert split["gamma-reconstruction"] == 0.5


def test_split_spin_metrics_have_rank_two():
    split = chirality_split(canonical_dirac_constants())
    for check in ("split-spin-metric-rank-b", "split-spin-metric-rank-c",
                  "split-spin-metric-antisymmetry-b", "split-spin-metric-antisymmetry-c"):
        assert split[check] == 0.0, check
    # with H the identity the bullet split spin-metric is all of d (rank
    # 4) and the circ one is zero (rank 0)
    split = chirality_split({**canonical_dirac_constants(), "H": np.eye(4)})
    assert split["split-spin-metric-rank-b"] == 2.0
    assert split["split-spin-metric-rank-c"] == 2.0
    # a non-finite spin-metric is measured as NaN, not raised from the SVD
    d = canonical_dirac_constants()["d"].copy()
    d[0, 1] = np.nan
    with np.errstate(invalid="ignore"):
        split = chirality_split({**canonical_dirac_constants(), "d": d})
    assert np.isnan(split["split-spin-metric-rank-b"])


def test_split_survives_inversions():
    spins = np.stack([frame_inversion(kind) for kind in ("P", "T", "PT")])
    split = chirality_split(transform_table(canonical_dirac_constants(), spins))
    for check, values in split.items():
        assert np.array_equal(values, np.zeros(3)), check


def test_builder_methods_agree_on_all_scenarios():
    # on each sample batch and on a (3, N) stack of seeded frame changes
    for name in bundled_scenario_names():
        scenario = dirac_scenario_from_spec(bundled_scenario(name))
        points = scenario.points
        jets = scenario.jets(points)
        stacked = np.broadcast_to(points, (3,) + points.shape)
        moved, _ = scenario.deform_jets(jets, random_transition([2, 3, 4]), stacked)
        for table, at in ((jets, points), (moved, stacked)):
            simple = build_dirac_metric_connection(table, at, method="simplified")
            blocks = build_dirac_metric_connection(table, at, method="blocks")
            assert simple.A.shape == at.shape[:-1] + (4, 4, 4), name
            scale = 1.0 + np.max(np.abs(simple.A))
            assert np.max(np.abs(simple.A - blocks.A)) <= 1e-14 * scale, name
            assert np.array_equal(simple.Gamma, blocks.Gamma), name
            for conn in (simple, blocks):
                assert not np.any(conn.A[..., CHIRAL, DUAL]), name
                assert not np.any(conn.A[..., DUAL, CHIRAL]), name


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_table_holds_gamma_lowered_by_its_metric(name):
    # on the sample batch and on a (3, N) stack of seeded frame changes
    scenario = dirac_scenario_from_spec(bundled_scenario(name))
    points = scenario.points
    jets = scenario.jets(points)
    stacked = np.broadcast_to(points, (3,) + points.shape)
    moved, _ = scenario.deform_jets(jets, random_transition([2, 3, 4]), stacked)
    for table in (jets, moved):
        expected = np.einsum("...ian,...mn->...iam", table["gamma"][0], table["ginv"])
        assert table["gamma_lower"].shape == expected.shape, name
        scale = 1.0 + np.max(np.abs(expected))
        assert np.max(np.abs(table["gamma_lower"] - expected)) <= 1e-15 * scale, name


def test_complete_table_lowers_a_replaced_gamma():
    scenario = dirac_scenario_from_spec(bundled_scenario("seeded-deformation"))
    table = scenario.jets(scenario.points)
    value, d = table["gamma"]
    # doubling is exact, so the derived entries double bit for bit
    replaced = scenario.complete_table({**table, "gamma": (2.0 * value, 2.0 * d)})
    assert np.array_equal(replaced["gamma_lower"], 2.0 * table["gamma_lower"])
    assert np.array_equal(replaced["lie"]["gamma"], 2.0 * table["lie"]["gamma"])


@pytest.mark.parametrize("method", ["simplified", "blocks"])
def test_builder_reads_the_held_gamma_lower(method):
    scenario = dirac_scenario_from_spec(bundled_scenario("diag-scale"))
    jets = scenario.jets(PT)
    del jets["gamma_lower"]
    with pytest.raises(KeyError, match="gamma_lower"):
        build_dirac_metric_connection(jets, PT, method=method)


@pytest.mark.parametrize("method", ["simplified", "blocks"])
@pytest.mark.parametrize("h", [
    (-H_DIRAC, None),  # the H of a P frame
    (H_DIRAC, np.ones((4, 4, 4))),  # a varying H
], ids=["P-frame", "varying"])
def test_builder_rejects_a_table_without_the_canonical_chirality(h, method):
    scenario = dirac_scenario_from_spec(bundled_scenario("diag-scale"))
    jets = dict(scenario.jets(PT), H=h)
    with pytest.raises(ValueError, match="H_DIRAC"):
        build_dirac_metric_connection(jets, PT, method=method)


def test_builder_rejects_unknown_method():
    scenario = dirac_scenario_from_spec(bundled_scenario("flat"))
    with pytest.raises(ValueError):
        build_dirac_metric_connection(scenario.jets(PT), PT, method="guess")


def test_flat_dirac_connection_is_zero():
    scenario = dirac_scenario_from_spec(bundled_scenario("flat"))
    conn = build_dirac_metric_connection(scenario.jets(PT), PT)
    assert np.max(np.abs(conn.Gamma)) < 1e-12
    assert np.max(np.abs(conn.A)) < 1e-12


def test_dirac_tangent_part_matches_the_chiral_one():
    spec = bundled_scenario("diag-scale")
    dirac = dirac_scenario_from_spec(spec)
    chiral = chiral_scenario_from_spec(spec)
    dc = build_dirac_metric_connection(dirac.jets(PT), PT)
    cc = build_chiral_metric_connection(chiral.jets(PT), PT)
    assert np.max(np.abs(dc.Gamma - cc.Gamma)) < 1e-12


def test_restriction_recovers_the_chiral_connection():
    for name in bundled_scenario_names():
        spec = bundled_scenario(name)
        dirac = dirac_scenario_from_spec(spec)
        chiral = chiral_scenario_from_spec(spec)
        for point in dirac.points:
            restricted = restrict_to_chiral(
                build_dirac_metric_connection(dirac.jets(point), point)
            )
            cc = build_chiral_metric_connection(chiral.jets(point), point)
            assert restricted.spinor_dim == 2
            assert np.max(np.abs(restricted.A - cc.A)) < 1e-6, name


def test_restriction_conjugate_block_pairing():
    scenario = dirac_scenario_from_spec(bundled_scenario("diag-scale"))
    conn = build_dirac_metric_connection(scenario.jets(PT), PT)
    dual = conn.A[:, 2:, 2:]
    chiral_block = conn.A[:, :2, :2]
    assert np.max(np.abs(dual + np.conj(chiral_block).transpose(0, 2, 1))) < 1e-10


def test_restriction_rejects_non_block_connections():
    scenario = dirac_scenario_from_spec(bundled_scenario("flat"))
    conn = build_dirac_metric_connection(scenario.jets(PT), PT)
    bad_a = conn.A.copy()
    bad_a[0, 0, 3] = 1.0
    bad = SpinorConnection(conn.Gamma, bad_a, np.conj(bad_a))
    with pytest.raises(ValueError):
        restrict_to_chiral(bad)


@pytest.mark.parametrize("entry, message", [
    ((1, 0, 3), "not block-diagonal"),
    ((1, 2, 3), "does not pair"),
], ids=["off-block", "dual-block"])
def test_restriction_rejects_a_non_finite_entry(entry, message):
    scenario = dirac_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    points = scenario.points
    conn = build_dirac_metric_connection(scenario.jets(points), points)
    bad_a = conn.A.copy()
    bad_a[(2,) + entry] = np.nan
    bad = SpinorConnection(conn.Gamma, bad_a, np.conj(bad_a))
    at = re.escape(str(tuple(points[2].tolist())))
    with pytest.raises(ValueError, match=rf"{message}.* at {at}$"):
        restrict_to_chiral(bad, points)


def test_restriction_rejects_chiral_input():
    scenario = chiral_scenario_from_spec(bundled_scenario("flat"))
    conn = build_chiral_metric_connection(scenario.jets(PT), PT)
    with pytest.raises(ValueError):
        restrict_to_chiral(conn)


def test_dirac_concordance_on_bundled_scenarios():
    for name in bundled_scenario_names():
        scenario = dirac_scenario_from_spec(bundled_scenario(name))
        res = verify_concordance(build_dirac_metric_connection, scenario)
        assert max(res.values()) < 1e-9, name


def test_dirac_concordance_on_deformed_scenario():
    scenario = dirac_scenario_from_spec(bundled_scenario("seeded-deformation"))
    res = verify_concordance(build_dirac_metric_connection, scenario)
    assert max(res.values()) < 1e-6


def test_dirac_gamma_field_tracks_the_metric():
    scenario = dirac_scenario_from_spec(bundled_scenario("diag-scale"))
    for point in scenario.points:
        jets = scenario.jets(point)
        g = np.real(jets["g"][0])
        gamma = jets["gamma"][0]
        for m in range(4):
            for n in range(4):
                anti = (
                    gamma[:, :, m] @ gamma[:, :, n]
                    + gamma[:, :, n] @ gamma[:, :, m]
                )
                assert np.max(np.abs(anti - 2.0 * g[m, n] * np.eye(4))) < 1e-12


def test_non_finite_connection_fails_dirac_concordance():
    scenario = dirac_scenario_from_spec(bundled_scenario("ortho-tetrad"))
    conn = build_dirac_metric_connection(scenario.jets(PT), PT)
    bad_a = conn.A.copy()
    bad_a[1, 2, 3] = np.nan
    bad = SpinorConnection(conn.Gamma, bad_a, np.conj(bad_a))
    res = verify_concordance(lambda jets, points: bad, scenario)
    assert not np.isfinite(res["nabla-spin-metric"])
    assert not np.isfinite(res["nabla-chirality"])
    assert res["nabla-metric"] < 1e-9
