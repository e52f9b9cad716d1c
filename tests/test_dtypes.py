"""Real data stays real: the tangent half, Gamma and nabla g are float64
from the table to the residual; only the symbols and the spinor
coefficients are complex."""

import numpy as np
import pytest

from spintensor import dirac_connection
from spintensor.chiral import build_chiral_metric_connection, tangent_concordance
from spintensor.dirac_connection import build_dirac_metric_connection
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    random_transition,
)

MODES = {
    "chiral": (chiral_scenario_from_spec, build_chiral_metric_connection, "G"),
    "dirac": (dirac_scenario_from_spec, build_dirac_metric_connection, "gamma"),
}


def _tangent_entries(table):
    """The table's real entries: frame, g (values and partials), g^-1,
    Gamma and the torsion (None without one)."""
    entries = {"ginv": table["ginv"], "Gamma": table["Gamma"], "torsion": table["torsion"]}
    for attr in ("frame", "g"):
        entries[attr], entries[f"d{attr}"] = table[attr]
    return {name: value for name, value in entries.items() if value is not None}


def _recording(calls):
    einsum = dirac_connection.einsum

    def record(subscripts, *operands):
        calls.append((subscripts, [np.result_type(op) for op in operands]))
        return einsum(subscripts, *operands)

    return record


@pytest.mark.parametrize("name", bundled_scenario_names())
@pytest.mark.parametrize("mode", sorted(MODES))
def test_real_data_stays_real(name, mode, monkeypatch):
    load, build, symbols = MODES[mode]
    scenario = load(bundled_scenario(name))
    points = scenario.points
    calls = []
    monkeypatch.setattr(dirac_connection, "einsum", _recording(calls))
    table = scenario.jets(points)
    conn = build(table, points)
    for entry, value in _tangent_entries(table).items():
        assert value.dtype == np.float64, entry
    assert conn.Gamma.dtype == np.float64
    assert tangent_concordance(table, conn).dtype == np.float64
    assert table[symbols][0].dtype == np.complex128
    assert conn.A.dtype == conn.Abar.dtype == np.complex128
    # the Dirac table lowers gamma with g^-1 as it is, and the builder
    # contracts the table's Gamma as it is, once per chirality block
    lowering = [dtypes for subscripts, dtypes in calls if subscripts == "ian,mn->iam"]
    tangent_terms = [dtypes for subscripts, dtypes in calls if subscripts == "krm,ajr,iam->kij"]
    assert len(lowering) == (mode == "dirac")
    assert len(tangent_terms) == 2 * (mode == "dirac")
    for gamma, ginv in lowering:
        assert (gamma, ginv) == (np.complex128, np.float64)
    for gamma_t, gamma, lowered in tangent_terms:
        assert (gamma_t, gamma, lowered) == (np.float64, np.complex128, np.complex128)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_a_moved_table_keeps_its_tangent_half_real(mode):
    load, build, symbols = MODES[mode]
    scenario = load(bundled_scenario("ortho-tetrad"))
    points = scenario.points
    moved, _ = scenario.deform_jets(scenario.jets(points), random_transition(3), points)
    for entry, value in _tangent_entries(moved).items():
        assert value.dtype == np.float64, entry
    conn = build(moved, points)
    assert conn.Gamma.dtype == tangent_concordance(moved, conn).dtype == np.float64
    assert moved[symbols][0].dtype == np.complex128
