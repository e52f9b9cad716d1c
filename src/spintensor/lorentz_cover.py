"""Pauli basis and the double cover of the restricted Lorentz group."""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class LorentzMatrix:
    """Real 4x4 member of the proper orthochronous Lorentz group."""

    entries: np.ndarray

    def __post_init__(self):
        tol = 1e-9
        arr = np.asarray(self.entries, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        if arr.shape != (4, 4):
            raise ValueError("Lorentz matrix must be 4x4")
        if np.max(np.abs(arr.T @ MINKOWSKI @ arr - MINKOWSKI)) > tol:
            raise ValueError("matrix does not preserve the Minkowski form")
        if abs(np.linalg.det(arr) - 1.0) > tol:
            raise ValueError("matrix is not special (det != 1)")
        if arr[0, 0] < 1.0 - tol:
            raise ValueError("matrix is not orthochronous")

    def __matmul__(self, other):
        if isinstance(other, LorentzMatrix):
            return LorentzMatrix(self.entries @ other.entries)
        return self.entries @ other


def phi(s_spin: np.ndarray) -> LorentzMatrix:
    """Image of an SL(2,C) matrix in the restricted Lorentz group.

    The matrix S is read off from S sigma_m S^dagger expanded in the
    Pauli basis; the coefficients are extracted with the trace formula
    S^k_m = Re tr(sigma_k S sigma_m S^dagger) / 2, valid because
    tr(sigma_a sigma_b) = 2 delta_ab.
    """
    s_spin = np.asarray(s_spin, dtype=complex)
    if s_spin.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    if abs(np.linalg.det(s_spin) - 1.0) > 1e-9:
        raise ValueError("not in SL(2,C)")
    out = np.empty((4, 4), dtype=float)
    for m in range(4):
        conjugated = s_spin @ PAULI[m] @ s_spin.conj().T
        for k in range(4):
            coeff = 0.5 * np.trace(PAULI[k] @ conjugated)
            if abs(coeff.imag) > 1e-10:
                raise ValueError("coefficient extraction left an imaginary residue")
            out[k, m] = coeff.real
    return LorentzMatrix(out)


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
