import numpy as np
import pytest

from spintensor.lorentz_cover import (
    MINKOWSKI,
    PAULI,
    LorentzMatrix,
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
    assert np.array_equal(phi(np.eye(2)).entries, np.eye(4))
    assert np.array_equal(phi(-np.eye(2)).entries, np.eye(4))


def test_phi_rejects_non_unimodular():
    with pytest.raises(ValueError):
        phi(2 * np.eye(2))
    with pytest.raises(ValueError):
        phi(np.eye(3))


def test_phi_is_a_group_homomorphism():
    for seed in range(25):
        s1 = random_sl2c(2 * seed)
        s2 = random_sl2c(2 * seed + 1)
        lhs = phi(s1 @ s2).entries
        rhs = phi(s1).entries @ phi(s2).entries
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_phi_lands_in_the_restricted_lorentz_group():
    for seed in range(25):
        mat = phi(random_sl2c(seed)).entries
        assert np.max(np.abs(mat.T @ MINKOWSKI @ mat - MINKOWSKI)) < 1e-9
        assert abs(np.linalg.det(mat) - 1.0) < 1e-9
        assert mat[0, 0] >= 1.0 - 1e-9


def test_phi_intertwines_the_pauli_action():
    s = random_sl2c(7)
    lam = phi(s).entries
    for m in range(4):
        lhs = s @ PAULI[m] @ s.conj().T
        rhs = sum(lam[k, m] * PAULI[k] for k in range(4))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_random_sl2c_is_deterministic_and_unimodular():
    a = random_sl2c(42)
    b = random_sl2c(42)
    assert np.array_equal(a, b)
    assert abs(np.linalg.det(a) - 1.0) < 1e-12


def test_lorentz_matrix_validation():
    with pytest.raises(ValueError):
        LorentzMatrix(np.diag([1.0, 1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        LorentzMatrix(np.diag([-1.0, -1.0, 1.0, 1.0]))  # not orthochronous
    boost = phi(np.diag([np.exp(0.3), np.exp(-0.3)]).astype(complex))
    composed = boost @ boost
    assert isinstance(composed, LorentzMatrix)
