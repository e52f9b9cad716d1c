"""Every field's jet against its own value.

A jet (value, d) must carry the value the plain call returns and
partials that agree with central differences of that value; d None,
exactly zero partials, must agree with them too.  Checked
on every entry of the table of every bundled scenario (chiral and
Dirac, deformed ones included) and on the seeded transitions.
"""

import numpy as np
import pytest
from scipy.linalg import expm_frechet

from spintensor.chiral import BARE_ENTRIES
from spintensor.scenarios import (
    bundled_scenario,
    bundled_scenario_names,
    chiral_scenario_from_spec,
    dirac_scenario_from_spec,
    exp_linear_field,
)

STEP = 1e-5
FD_AGREEMENT = 1e-7
# the block-exponential value may differ from the plain expm in the
# last bits
VALUE_AGREEMENT = 1e-14


def central_difference(func, point):
    base = np.asarray(point, dtype=float)
    return np.stack(
        [
            (np.asarray(func(base + h)) - np.asarray(func(base - h))) / (2.0 * STEP)
            for h in STEP * np.eye(4)
        ]
    )


def assert_jet_matches(value, d, func, point, label):
    """d None is exactly zero partials, held to the same central difference."""
    plain = np.asarray(func(point))
    if d is None:
        d = np.zeros((4, *plain.shape))
    assert d.shape == (4, *plain.shape), label
    assert np.max(np.abs(value - plain), initial=0.0) <= VALUE_AGREEMENT, label
    fd = central_difference(func, point)
    assert np.max(np.abs(d - fd)) < FD_AGREEMENT, label


def scenario_tables(name):
    spec = bundled_scenario(name)
    return spec, {
        "chiral": chiral_scenario_from_spec(spec),
        "dirac": dirac_scenario_from_spec(spec),
    }


@pytest.mark.parametrize("name", bundled_scenario_names())
def test_structure_field_jets(name):
    spec, scenarios = scenario_tables(name)
    for point in spec.sample_points:
        for mode, scenario in scenarios.items():
            for label, entry in scenario.jets(point).items():
                if label in BARE_ENTRIES:  # a bare value: no partials
                    continue
                value, d = entry

                def plain(p, label=label):
                    return scenario.jets(p)[label][0]

                assert_jet_matches(value, d, plain, point, f"{name} {mode}-{label}")


def test_seeded_transition_jets():
    # the spec's chiral transition, and its Dirac lift
    spec = bundled_scenario("seeded-deformation")
    chiral = chiral_scenario_from_spec(spec).transition
    dirac = dirac_scenario_from_spec(spec)
    kinds = {"chiral": chiral.jets,
             "dirac": lambda p: dirac.spinor_transition(chiral.jets(p))}
    for point in spec.sample_points:
        for kind, jets in kinds.items():
            for k, label in enumerate(("S", "T", "Ss", "Ts")):
                value, d = jets(point)[k]

                def plain(p, k=k, jets=jets):
                    return jets(p)[k][0]

                assert_jet_matches(value, d, plain, point, f"{kind} {label}")


@pytest.mark.parametrize("dim, real", [(2, False), (4, True)])
def test_block_exponential_matches_the_frechet_derivative(dim, real):
    rng = np.random.default_rng(dim)

    def draw():
        raw = rng.standard_normal((dim, dim))
        return 0.2 * (raw if real else raw + 1j * rng.standard_normal((dim, dim)))

    const = draw()
    linear = [draw() for _ in range(4)]
    field = exp_linear_field(const, linear)
    point = (0.3, -0.2, 0.5, 0.1)
    value, d = field.jet(point)
    mat = const + sum(x * lin for x, lin in zip(point, linear))
    for a in range(4):
        exp_m, frechet = expm_frechet(mat, linear[a])
        assert np.max(np.abs(d[a] - frechet)) < 1e-13
        assert np.max(np.abs(value - exp_m)) < 1e-13
    assert np.array_equal(field(point), field.jet(point, deriv=False)[0])
