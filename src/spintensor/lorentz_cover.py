"""Pauli basis and the double cover of the restricted Lorentz group.

phi maps a stack of SL(2,C) matrices to its stack of Lorentz matrices
as plain float arrays; random_sl2c draws seeded SL(2,C) matrices.
"""

from __future__ import annotations

import numpy as np


def read_only(array):
    """array, its writeable flag cleared: a module constant that no
    caller can write into."""
    array.flags.writeable = False
    return array


MINKOWSKI = read_only(np.diag([1.0, -1.0, -1.0, -1.0]))

# PAULI[k]: the 2x2 unit matrix (k = 0), then the three Pauli matrices
PAULI = read_only(np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
))


def phi(s_spin) -> np.ndarray:
    """Images of SL(2,C) matrices in the restricted Lorentz group.

    s_spin is a (..., 2, 2) stack; the result is the (..., 4, 4) float
    array Lambda^k_m = Re tr(sigma_k S sigma_m S^dagger) / 2, the
    coefficients of S sigma_m S^dagger in the Pauli basis (valid because
    tr(sigma_a sigma_b) = 2 delta_ab).  It is one plain np.einsum, so
    each entry of a stack is bitwise that matrix alone.  A matrix with
    |det S - 1| > max(1e-9, rounding), or an extraction that leaves an
    imaginary residue above max(1e-10, rounding), raises ValueError.
    rounding = 1e-13 max|S_ij|^2, some hundreds of times the rounding
    of det S and of Lambda, which grows like |S|^2 (det S - 1 is about
    1e-8 for a boost of rapidity 20); below 1e-10 for entries up to
    |S_ij| = 31, so the tolerances there are the absolute ones.
    """
    s_spin = np.asarray(s_spin, dtype=complex)
    if s_spin.shape[-2:] != (2, 2):
        raise ValueError("expected 2x2 matrices")
    rounding = 1e-13 * np.max(np.abs(s_spin), axis=(-2, -1)) ** 2
    if np.any(np.abs(np.linalg.det(s_spin) - 1.0) > np.maximum(1e-9, rounding)):
        raise ValueError("not in SL(2,C)")
    coeff = 0.5 * np.einsum("kab,...bc,mcd,...ad->...km", PAULI, s_spin, PAULI, s_spin.conj())
    if np.any(np.max(np.abs(coeff.imag), axis=(-2, -1)) > np.maximum(1e-10, rounding)):
        raise ValueError("coefficient extraction left an imaginary residue")
    return coeff.real


def random_sl2c(seed: int) -> np.ndarray:
    """Seeded Gaussian 2x2 complex matrix rescaled to determinant one."""
    rng = np.random.default_rng(seed)
    for _ in range(16):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(raw)
        if abs(det) > 1e-6:
            # principal branch of det^(-1/2); any branch stays in SL(2,C)
            return raw / np.sqrt(det)
    raise RuntimeError("could not draw an invertible matrix")
