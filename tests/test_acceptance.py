"""Acceptance gate: ten criteria, one pass/fail line each.

Each criterion prints a single line to the real stdout so the verdicts
are visible in plain pytest output regardless of capture settings.
"""

import math
import sys
import time

import numpy as np
import pytest

from spintensor.chiral import (
    build_chiral_metric_connection,
    canonical_chiral_constants,
    transform_connection,
    verify_chiral_identities,
    verify_concordance,
)
from spintensor.dirac import (
    DiracFrameKind,
    canonical_dirac_constants,
    classify_frame,
    frame_inversion,
    transform_table,
    verify_dirac_identities,
)
from spintensor.dirac_connection import (
    build_dirac_metric_connection,
    chirality_split,
    restrict_to_chiral,
)
from spintensor.expressions import Expression, ParseError, parse_ast
from spintensor.frames import MatrixField, theta_parameters
from spintensor.lorentz_cover import MINKOWSKI, phi, random_sl2c
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    coordinate_christoffel,
    dirac_scenario_from_spec,
    random_transition,
)


@pytest.fixture
def verdict(capfd):
    """One pass/fail line per criterion, written past pytest's capture."""

    def emit(number, label, passed):
        line = f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {label}"
        with capfd.disabled():
            print(line, file=sys.stdout, flush=True)
        assert passed, line

    return emit


def test_criterion_01_exact_identity_suite(verdict):
    start = time.perf_counter()
    residuals = dict(verify_chiral_identities(canonical_chiral_constants()))
    residuals.update(verify_dirac_identities(canonical_dirac_constants()))
    residuals.update(chirality_split(canonical_dirac_constants()))
    elapsed = time.perf_counter() - start
    exact = all(value == 0.0 for value in residuals.values())
    verdict(1, "constant identity suites exactly zero in under a second",
            exact and residuals and elapsed < 1.0)


def test_criterion_02_double_cover_homomorphism(verdict):
    ok = np.array_equal(phi(np.eye(2)), np.eye(4))
    ok = ok and np.array_equal(phi(-np.eye(2)), np.eye(4))
    worst = 0.0
    for seed in range(100):
        s1 = random_sl2c(2 * seed)
        s2 = random_sl2c(2 * seed + 1)
        lam1, lam2 = phi(s1), phi(s2)
        gap = np.max(np.abs(phi(s1 @ s2) - lam1 @ lam2))
        worst = max(worst, float(gap))
        # each image is in the restricted Lorentz group
        for lam in (lam1, lam2):
            ok = ok and np.max(np.abs(lam.T @ MINKOWSKI @ lam - MINKOWSKI)) <= 1e-9
            ok = ok and abs(np.linalg.det(lam) - 1.0) <= 1e-9 and lam[0, 0] >= 1.0 - 1e-9
    verdict(2, f"group homomorphism over 100 seeds (max gap {worst:.2e})",
            ok and worst < 1e-9)


def test_criterion_03_flat_connection_vanishes(verdict):
    worst = 0.0
    for build, load in (
        (build_chiral_metric_connection, chiral_scenario_from_spec),
        (build_dirac_metric_connection, dirac_scenario_from_spec),
    ):
        scenario = load(bundled_scenario("flat"))
        for point in scenario.points:
            conn = build(scenario.jets(point), point)
            worst = max(
                worst,
                float(np.max(np.abs(conn.Gamma))),
                float(np.max(np.abs(conn.A))),
                float(np.max(np.abs(conn.Abar))),
            )
    verdict(3, f"flat scenario gives the zero connection (max {worst:.2e})",
            worst < 1e-12)


def test_criterion_04_curved_diagonal_oracle(verdict):
    scenario = chiral_scenario_from_spec(bundled_scenario("diag-scale"))
    g_coord = MatrixField.from_expressions(
        [
            ["1", "0", "0", "0"],
            ["0", "-(1+x0)^2", "0", "0"],
            ["0", "0", "-1", "0"],
            ["0", "0", "0", "-1"],
        ]
    )
    worst = 0.0
    for point in scenario.points:
        gamma = build_chiral_metric_connection(scenario.jets(point), point).Gamma
        oracle = coordinate_christoffel(g_coord, point)
        worst = max(worst, float(np.max(np.abs(np.real(gamma) - oracle))))
    hand_point = (0.5, 0.0, 0.0, 0.0)
    hand = build_chiral_metric_connection(scenario.jets(hand_point), hand_point).Gamma
    hand_ok = (
        abs(hand[0, 1, 1] - 2.0 / 3.0) < 1e-9 and abs(hand[1, 0, 1] - 1.5) < 1e-9
    )
    verdict(4, f"tangent coefficients match the Christoffel oracle (max {worst:.2e})",
            worst < 1e-5 and hand_ok)


def test_criterion_05_concordance_on_every_bundled_scenario(verdict):
    worst = 0.0
    for name in bundled_scenario_names():
        spec = bundled_scenario(name)
        chiral = chiral_scenario_from_spec(spec)
        res = verify_concordance(build_chiral_metric_connection, chiral)
        worst = max(worst, max(res.values()))
        dirac = dirac_scenario_from_spec(spec)
        res = verify_concordance(build_dirac_metric_connection, dirac)
        worst = max(worst, max(res.values()))
    verdict(5, f"concordance residuals on all bundled scenarios (max {worst:.2e})",
            worst < 1e-6)


def test_criterion_06_covariance_of_the_builder(verdict):
    base = chiral_scenario_from_spec(bundled_scenario("diag-scale"))
    worst = 0.0
    for seed in (1, 2, 3):
        trans = random_transition(seed=seed)
        for point in base.points:
            base_jets = base.jets(point)
            trans_jets = trans.jets(point)
            moved, _ = base.deform_jets(base_jets, trans, point)
            conn_moved = build_chiral_metric_connection(moved, point)
            conn_base = build_chiral_metric_connection(base_jets, point)
            theta = theta_parameters(trans_jets, base_jets["frame"], point)
            back = transform_connection(conn_moved, trans_jets, theta)
            worst = max(
                worst,
                float(np.max(np.abs(back.Gamma - conn_base.Gamma))),
                float(np.max(np.abs(back.A - conn_base.A))),
                float(np.max(np.abs(back.Abar - conn_base.Abar))),
            )
    verdict(6, f"transformation-law round trip, 5 points x 3 seeds (max {worst:.2e})",
            worst < 1e-5)


def test_criterion_07_restriction_to_the_chiral_bundle(verdict):
    spec = bundled_scenario("diag-scale")
    dirac = dirac_scenario_from_spec(spec)
    chiral = chiral_scenario_from_spec(spec)
    worst_block = 0.0
    worst_pair = 0.0
    for point in dirac.points:
        conn = build_dirac_metric_connection(dirac.jets(point), point)
        restricted = restrict_to_chiral(conn)
        cc = build_chiral_metric_connection(chiral.jets(point), point)
        worst_block = max(worst_block, float(np.max(np.abs(restricted.A - cc.A))))
        dual = conn.A[:, 2:, 2:]
        expected = -np.conj(conn.A[:, :2, :2]).transpose(0, 2, 1)
        worst_pair = max(worst_pair, float(np.max(np.abs(dual - expected))))
    verdict(
        7,
        f"restriction: chiral block {worst_block:.2e}, conjugate block {worst_pair:.2e}",
        worst_block < 1e-6 and worst_pair < 1e-10,
    )


def test_criterion_08_block_assembly_equals_simplified_form(verdict):
    scenario = dirac_scenario_from_spec(bundled_scenario("seeded-deformation"))
    worst = 0.0
    for point in scenario.points:
        jets = scenario.jets(point)
        blocks = build_dirac_metric_connection(jets, point, method="blocks")
        simple = build_dirac_metric_connection(jets, point, method="simplified")
        worst = max(worst, float(np.max(np.abs(blocks.A - simple.A))))
    verdict(8, f"block assembly equals the simplified formula (max {worst:.2e})",
            worst < 1e-10)


def test_criterion_09_inversion_classification(verdict):
    expected = {
        "P": DiracFrameKind("anti-ortho", "anti-chiral", "self-adjoint"),
        "T": DiracFrameKind("ortho", "anti-chiral", "anti-self-adjoint"),
        "PT": DiracFrameKind("anti-ortho", "chiral", "anti-self-adjoint"),
    }
    ok = True
    for kind, want in expected.items():
        constants = transform_table(canonical_dirac_constants(), frame_inversion(kind))
        observed = classify_frame(constants["d"], constants["H"], constants["D"])
        ok = ok and observed == want
    verdict(9, "P/T/PT inversions classify exactly as listed", ok)


def test_criterion_10_expression_parser(verdict):
    # round-trip every expression in the bundled catalog
    ok = True
    for name in bundled_scenario_names():
        spec = bundled_scenario(name)
        for grid in (spec.metric, spec.frame, spec.torsion):
            if grid is None or grid == "minkowski":
                continue
            for row in grid:
                for cell in row:
                    if isinstance(cell, str):
                        Expression.parse(cell)((0.2, 0.3, -0.1, 0.4))
    malformed = ["", "1+", "(1+2", "1+*2", "sin 3", "bogus(1)", "x4", "1 2", "2^", "1+2)"]
    for text in malformed:
        try:
            parse_ast(text)
            ok = False
        except ParseError as err:
            ok = ok and 0 <= err.position <= len(text)
    rng = np.random.default_rng(0)
    worst = 0.0
    expr = Expression.parse("sin(x1)*exp(x2) + cosh(x0) - x3^2/2")
    for _ in range(100):
        p = tuple(rng.uniform(-1.5, 1.5, size=4))
        want = math.sin(p[1]) * math.exp(p[2]) + math.cosh(p[0]) - p[3] ** 2 / 2
        worst = max(worst, abs(expr(p) - want))
    verdict(10, f"parser round trip, rejects, oracle gap {worst:.2e}",
            ok and worst < 1e-14)
