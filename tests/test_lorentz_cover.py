import numpy as np
import pytest

from spintensor.lorentz_cover import (
    MINKOWSKI,
    PAULI,
    phi,
    random_sl2c,
)


def test_pauli_basis_is_traceless_and_hermitian():
    assert PAULI.shape == (4, 2, 2) and not PAULI.flags.writeable
    assert np.array_equal(PAULI[0], np.eye(2))
    for k in range(1, 4):
        assert abs(np.trace(PAULI[k])) == 0
    for k in range(4):
        assert np.array_equal(PAULI[k], PAULI[k].conj().T)


def test_pauli_trace_orthogonality():
    for a in range(4):
        for b in range(4):
            expected = 2.0 if a == b else 0.0
            assert np.trace(PAULI[a] @ PAULI[b]) == expected


def test_phi_of_plus_minus_identity_is_exactly_identity():
    assert np.array_equal(phi(np.eye(2)), np.eye(4))
    assert np.array_equal(phi(-np.eye(2)), np.eye(4))


def test_phi_rejects_non_unimodular():
    with pytest.raises(ValueError):
        phi(2 * np.eye(2))
    with pytest.raises(ValueError):
        phi(np.eye(3))
    # one bad matrix in a stack rejects the stack
    with pytest.raises(ValueError, match="not in SL"):
        phi(np.stack([np.eye(2), 2 * np.eye(2)]))


def test_phi_is_a_group_homomorphism():
    for seed in range(25):
        s1 = random_sl2c(2 * seed)
        s2 = random_sl2c(2 * seed + 1)
        lhs = phi(s1 @ s2)
        rhs = phi(s1) @ phi(s2)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_phi_lands_in_the_restricted_lorentz_group():
    for seed in range(25):
        mat = phi(random_sl2c(seed))
        assert np.max(np.abs(mat.T @ MINKOWSKI @ mat - MINKOWSKI)) < 1e-9
        assert abs(np.linalg.det(mat) - 1.0) < 1e-9
        assert mat[0, 0] >= 1.0 - 1e-9


def test_phi_intertwines_the_pauli_action():
    s = random_sl2c(7)
    lam = phi(s)
    for m in range(4):
        lhs = s @ PAULI[m] @ s.conj().T
        rhs = sum(lam[k, m] * PAULI[k] for k in range(4))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_random_sl2c_is_deterministic_and_unimodular():
    a = random_sl2c(42)
    b = random_sl2c(42)
    assert np.array_equal(a, b)
    assert abs(np.linalg.det(a) - 1.0) < 1e-12


def boost(rapidity):
    """The SL(2,C) boost of a rapidity along x1: exp(rapidity sigma_1 / 2)."""
    return np.cosh(rapidity / 2) * PAULI[0] + np.sinh(rapidity / 2) * PAULI[1]


def test_phi_of_a_stack_is_each_matrix_alone():
    stack = np.stack([random_sl2c(seed) for seed in range(5)] + [boost(10.0)])
    images = phi(stack)
    assert images.shape == (6, 4, 4) and images.dtype == np.float64
    for s, lam in zip(stack, images):
        assert np.array_equal(lam, phi(s))


def test_phi_of_a_large_boost_preserves_the_minkowski_form():
    # entries about 1.1e4: the form is preserved relative to |Lambda|^2
    s = boost(10.0)
    assert 0 < abs(np.linalg.det(s) - 1.0) <= 1e-9
    lam = phi(s)
    assert np.isclose(lam[0, 0], np.cosh(10.0), rtol=1e-12, atol=0) and lam[0, 0] >= 1.0
    residual = np.max(np.abs(lam.T @ MINKOWSKI @ lam - MINKOWSKI))
    assert residual <= 1e-15 * np.max(np.abs(lam)) ** 2


def test_phi_accepts_a_boost_of_rapidity_twenty():
    # |det S - 1| = 1.1e-8 and an imaginary residue of 7e-9 are the
    # rounding of entries about 1.1e4; the tolerances grow with
    # max|S_ij|^2 = 1.2e8 to 1.2e-5, and a determinant 1.0002 fails them
    s = boost(20.0)
    assert abs(np.linalg.det(s) - 1.0) > 1e-9
    lam = phi(s)
    assert np.isclose(lam[0, 0], np.cosh(20.0), rtol=1e-12, atol=0)
    residual = np.max(np.abs(lam.T @ MINKOWSKI @ lam - MINKOWSKI))
    assert residual <= 1e-15 * np.max(np.abs(lam)) ** 2
    with pytest.raises(ValueError, match="not in SL"):
        phi(s * (1.0 + 1e-4))
    # for entries of modulus about 1 the tolerance stays 1e-9
    with pytest.raises(ValueError, match="not in SL"):
        phi(np.diag([1.0, 1.0 + 2e-9]))
