"""scenarios.expm against scipy's expm, and each stack entry alone.

scipy is imported here only, as the oracle: the package's exponential
is its own scaling and squaring (Higham 2005), which picks the Padé
degree and the scaling of each matrix from that matrix's 1-norm.
"""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from spintensor import scenarios
from spintensor.scenarios import PADE_THETA, exp_linear_field, expm

ORACLE_AGREEMENT = 1e-13
# 1-norms inside each degree band (3, 5, 7, 9, 13 unscaled), then at
# degree 13 with each scaling s = 1..5
NORMS = ([0.5 * PADE_THETA[3], 0.1, 0.5, 1.5, 4.0]
         + [PADE_THETA[13] * 2.0 ** (s - 0.5) for s in range(1, 6)])


def stack(seed, dim, real, norms=NORMS):
    """One seeded matrix per 1-norm of norms, each scaled to it."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((len(norms), dim, dim))
    if not real:
        a = a + 1j * rng.standard_normal(a.shape)
    one_norm = np.abs(a).sum(axis=-2).max(axis=-1)
    return a * (np.asarray(norms) / one_norm)[:, None, None]


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
@pytest.mark.parametrize("dim", [2, 4, 10, 20])
def test_expm_matches_scipy_in_every_degree_band(dim, real):
    # a real stack is held to scipy's exponential of it as a complex
    # stack: scipy 1.17's real path strays up to 9e-12 from a 40-digit
    # exponential on 2x2 and 4x4 real matrices of 1-norm >= 4, where its
    # complex path and expm stay within 1e-13
    a = stack(dim, dim, real)
    ours, oracle = expm(a), scipy_expm(a.astype(complex))
    assert ours.dtype == (float if real else complex)
    oracle = oracle.real if real else oracle
    for k, norm in enumerate(NORMS):
        relative = np.max(np.abs(ours[k] - oracle[k])) / np.max(np.abs(oracle[k]))
        assert relative <= ORACLE_AGREEMENT, (norm, relative)


@pytest.mark.parametrize("chunk", [scenarios.EXPM_CHUNK, 3])
def test_an_entry_of_a_mixed_stack_is_that_matrix_alone(chunk, monkeypatch):
    # every degree band and scaling four times in one (4, 10) stack,
    # shuffled: each entry is the exponential of its matrix alone, to
    # the last bit, also when a band of four is evaluated in parts
    monkeypatch.setattr(scenarios, "EXPM_CHUNK", chunk)
    rng = np.random.default_rng(7)
    a = np.concatenate([stack(seed, 4, False) for seed in range(4)])
    a = a[rng.permutation(len(a))].reshape(4, len(NORMS), 4, 4)
    stacked = expm(a)
    for index in np.ndindex(a.shape[:2]):
        assert np.array_equal(stacked[index], expm(a[index])), index


def test_an_overflowing_entry_leaves_its_stack_mates_unchanged():
    # the middle seed's field overflows at the point; the others are
    # their fields alone, values and partials, and no warning escapes
    rng = np.random.default_rng(3)
    const = 0.2 * rng.standard_normal((3, 4, 4))
    const[1] *= 1e4
    linear = [0.1 * rng.standard_normal((3, 4, 4)) for _ in range(4)]
    points = np.broadcast_to([0.3, -0.2, 0.5, 0.1], (3, 1, 4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, d = exp_linear_field(const, linear).jet(points)
        for k in (0, 2):
            alone = exp_linear_field(const[k], [lin[k] for lin in linear]).jet(points[k])
            assert np.array_equal(value[k], alone[0])
            assert np.array_equal(d[k], alone[1])
    assert not np.isfinite(value[1]).all()


def test_a_non_finite_matrix_has_a_nan_exponential():
    a = stack(5, 4, True, norms=[1.0, 1.0])
    a[1, 0, 2] = np.inf
    out = expm(a)
    assert np.isnan(out[1]).all()
    assert np.array_equal(out[0], expm(a[0]))
