"""Dirac-bundle constants, identity suite, frame kinds and inversions.

The Dirac bundle is the direct sum of a chiral bundle and its Hermitian
conjugate.  In a canonically orthonormal chiral frame the structure
constants are: the 4x4 spin-metric d, the chirality operator H, the
Hermitian pairing D and the gamma-symbols whose fixed-tangent-index
slices are the Dirac matrices.  Frame kinds (orthonormal / chiral /
self-adjoint and their "anti" twins) are decided by exact matrix match,
and the P/T/PT inversions are constant 4x4 spinor matrices between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chiral import G_UPPER
from .frames import einsum, transform_components
from .lorentz_cover import MINKOWSKI
from .tensor_core import SpinTensorValue, TensorSignature, tau

D_DIRAC = np.array(
    [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

H_DIRAC = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)

DD_DIRAC = np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    dtype=complex,
)

# gamma[a, b, m]: upper spinor index a, lower spinor index b, tangent m;
# gamma[:, :, m] is the m-th Dirac matrix
GAMMA = np.zeros((4, 4, 4), dtype=complex)
GAMMA[:, :, 0] = [
    [0, 0, 1, 0],
    [0, 0, 0, 1],
    [1, 0, 0, 0],
    [0, 1, 0, 0],
]
GAMMA[:, :, 1] = [
    [0, 0, 0, 1],
    [0, 0, 1, 0],
    [0, -1, 0, 0],
    [-1, 0, 0, 0],
]
GAMMA[:, :, 2] = [
    [0, 0, 0, -1j],
    [0, 0, 1j, 0],
    [0, 1j, 0, 0],
    [-1j, 0, 0, 0],
]
GAMMA[:, :, 3] = [
    [0, 0, 1, 0],
    [0, 0, 0, -1],
    [-1, 0, 0, 0],
    [0, 1, 0, 0],
]


@dataclass(frozen=True)
class DiracConstants:
    """Structure matrices of one Dirac frame with derived companions.

    Every array may carry leading batch axes, one frame per batch index
    (a stack of frames, from transform of a stack of spinor matrices).
    """

    d_lower: np.ndarray
    d_upper: np.ndarray
    dbar_lower: np.ndarray
    dbar_upper: np.ndarray
    H: np.ndarray
    D_lower: np.ndarray  # D[i, ibar]
    D_upper: np.ndarray
    gamma: np.ndarray  # [a, b, m], lower tangent index
    gamma_inv: np.ndarray  # [a, b, m], raised tangent index
    gamma_herm_upper: np.ndarray  # [i, ibar, m]: both spinor indices upper
    gamma_herm_lower: np.ndarray  # [i, ibar, m]: spinor lower, tangent upper
    g_lower: np.ndarray
    g_upper: np.ndarray

    @classmethod
    def from_primary(cls, d_lower, H, D_lower, gamma, g_lower):
        d_lower = np.asarray(d_lower, dtype=complex)
        H = np.asarray(H, dtype=complex)
        D_lower = np.asarray(D_lower, dtype=complex)
        gamma = np.asarray(gamma, dtype=complex)
        g_lower = np.asarray(g_lower, dtype=float)
        d_upper = np.linalg.inv(d_lower)
        dbar_lower = np.conj(d_lower)
        dbar_upper = np.linalg.inv(dbar_lower)
        g_upper = np.linalg.inv(g_lower)
        # raised tangent index: gamma^{am}_b = sum_k gamma^a_{bk} g^{km}
        gamma_inv = einsum("abk,km->abm", gamma, g_upper)
        # D^{i ibar} = sum d^{ia} D_{a abar} dbar^{abar ibar}
        D_upper = einsum("ia,ab,bj->ij", d_upper, D_lower, dbar_upper)
        # gamma^{i ibar}_m = sum_a gamma^i_{am} D^{a ibar}
        gamma_herm_upper = einsum("iam,aj->ijm", gamma, D_upper)
        # gamma^m_{i ibar} = sum_a gamma^{am}_i D_{a ibar}
        gamma_herm_lower = einsum("aim,aj->ijm", gamma_inv, D_lower)
        return cls(
            d_lower=d_lower,
            d_upper=d_upper,
            dbar_lower=dbar_lower,
            dbar_upper=dbar_upper,
            H=H,
            D_lower=D_lower,
            D_upper=D_upper,
            gamma=gamma,
            gamma_inv=gamma_inv,
            gamma_herm_upper=gamma_herm_upper,
            gamma_herm_lower=gamma_herm_lower,
            g_lower=g_lower,
            g_upper=g_upper,
        )

    def transform(self, spin):
        """Constants of the frame reached through the constant spinor
        transition spin (new frame vector i is column i in the old
        frame), the tangent frame staying put.

        Primary matrices are re-expressed per their signatures; derived
        companions are rebuilt, which keeps all inverse relations exact.
        spin may be a stack (..., 4, 4) of transitions: the constants of
        every frame come out as one stack, from one pass.
        """
        d_sig = TensorSignature(beta=2, spinor_dim=4)
        h_sig = TensorSignature(alpha=1, beta=1, spinor_dim=4)
        dd_sig = TensorSignature(beta=1, gamma=1, spinor_dim=4)
        gamma_sig = TensorSignature(alpha=1, beta=1, n=1, spinor_dim=4)
        g_sig = TensorSignature(n=2, spinor_dim=4)
        eye = np.eye(4)
        jets = ((eye, None), (eye, None), (spin, None), (np.linalg.inv(spin), None))

        def move(sig, components):
            return transform_components(sig, (components, None), jets)[0]

        moved = {
            "d_lower": move(d_sig, self.d_lower),
            "H": move(h_sig, self.H),
            "D_lower": move(dd_sig, self.D_lower),
            "gamma": move(gamma_sig, self.gamma),
            "g_lower": np.real(move(g_sig, self.g_lower)),
        }
        return DiracConstants.from_primary(
            moved["d_lower"], moved["H"], moved["D_lower"], moved["gamma"], moved["g_lower"]
        )


def canonical_dirac_constants() -> DiracConstants:
    """The canonical tables with their companions.  Nothing is checked
    here: verify_dirac_identities gives residual 0 on them."""
    return DiracConstants.from_primary(D_DIRAC, H_DIRAC, DD_DIRAC, GAMMA, MINKOWSKI)


def verify_dirac_identities(constants: DiracConstants) -> dict:
    """Residuals of the full Dirac identity suite.

    Exactly zero on the canonical tables (Gaussian-integer entries);
    still zero to rounding after any consistent frame transform.  Each
    residual has the constants' batch shape: a float for one frame, an
    array with one residual per frame for a stack.
    """
    d = constants.d_lower
    du = constants.d_upper
    h = constants.H
    dd = constants.D_lower
    ddu = constants.D_upper
    gm = constants.gamma
    gi = constants.gamma_inv
    ghu = constants.gamma_herm_upper
    ghl = constants.gamma_herm_lower
    g = constants.g_lower.astype(complex)
    ginv = constants.g_upper.astype(complex)
    eye = np.eye(4, dtype=complex)
    batch = np.ndim(h) - 2

    def residual(lhs, rhs=0.0):
        # the max over each frame's entries
        diff = np.abs(lhs - rhs)
        return np.max(diff, axis=tuple(range(batch, diff.ndim)))

    def transpose(m):
        return np.swapaxes(m, -1, -2)

    def trace(m):
        return np.trace(m, axis1=-2, axis2=-1)

    out = {}
    # {gamma_i, gamma_j} = 2 g_ij
    anti = einsum("abi,bcj->acij", gm, gm) + einsum("abj,bci->acij", gm, gm)
    out["gamma-anticommutator"] = residual(anti, 2.0 * einsum("ij,ac->acij", g, eye))
    # sum gamma d d gamma = 4 g
    out["gamma-spin-metric-trace"] = residual(
        einsum("abi,ae,bh,ehj->ij", gm, d, du, gm), 4.0 * g
    )
    # sum gamma^a_{bi} d_{ae} d^{bh} = gamma^h_{ei}
    out["gamma-spin-metric-conjugation"] = residual(
        einsum("abi,ae,bh->hei", gm, d, du), gm
    )
    # tangent raise consistency (gamma_inv definition re-derived)
    out["gamma-tangent-raise"] = residual(
        gi, einsum("abk,km->abm", gm, ginv)
    )
    # sum gamma^h_{ej} gamma^{ei}_h = 4 delta^i_j
    out["gamma-inverse-trace"] = residual(
        einsum("hej,ehi->ij", gm, gi), 4.0 * eye
    )
    # sum gamma^{ai}_b d_{ae} d^{bh} = gamma^{hi}_e
    out["gamma-inverse-spin-metric-conjugation"] = residual(
        einsum("abi,ae,bh->hei", gi, d, du), gi
    )
    # sum gamma^{ai}_b d d gamma^{ej}_h = 4 g^{ij}
    out["gamma-inverse-spin-metric-trace"] = residual(
        einsum("abi,ae,bh,ehj->ij", gi, d, du, gi), 4.0 * ginv
    )
    # gamma_m H + H gamma_m = 0
    out["gamma-chirality-anticommutation"] = residual(
        einsum("abm,bc->acm", gm, h) + einsum("ab,bcm->acm", h, gm)
    )
    # sum d_{ab} H^b_c = sum H^b_a d_{bc}
    out["spin-metric-chirality-symmetry"] = residual(d @ h, transpose(h) @ d)
    # sum D_{i abar} conj(H^abar_ibar) = -sum H^a_i D_{a ibar}
    out["pairing-chirality-antisymmetry"] = residual(dd @ np.conj(h), -(transpose(h) @ dd))
    # completeness: sum_mn gamma gamma g^{mn} = dd - HH + dd-part - HdHd
    rhs = (
        einsum("ah,eb->abeh", eye, eye)
        - einsum("ah,eb->abeh", h, h)
        + einsum("ae,bh->abeh", du, d)
        - einsum("ar,re,bs,sh->abeh", h, du, d, h)
    )
    out["gamma-completeness-lower"] = residual(
        einsum("abm,ehn,mn->abeh", gm, gm, ginv), rhs
    )
    out["gamma-completeness-upper"] = residual(
        einsum("abm,ehn,mn->abeh", gi, gi, g), rhs
    )
    out["gamma-completeness-mixed"] = residual(
        einsum("abm,ehm->abeh", gi, gm), rhs
    )
    # pairing inverse relations
    out["pairing-inverse"] = np.maximum(
        residual(einsum("ja,ia->ij", dd, ddu), eye),
        residual(einsum("aj,ai->ji", dd, ddu), eye),
    )
    # hermitian gamma constructions re-derived
    out["hermitian-gamma-upper-construction"] = residual(
        ghu, einsum("iam,aj->ijm", gm, ddu)
    )
    out["hermitian-gamma-lower-construction"] = residual(
        ghl, einsum("aim,aj->ijm", gi, dd)
    )
    # hermitian gamma reality: each fixed-m slice is Hermitian
    out["hermitian-gamma-reality"] = np.maximum(
        residual(ghu, np.conj(np.swapaxes(ghu, -3, -2))),
        residual(ghl, np.conj(np.swapaxes(ghl, -3, -2))),
    )
    # sum D_{i abar} conj(gamma^abar_{ibar m}) = sum gamma^a_{im} D_{a ibar}
    out["pairing-gamma-symmetry"] = residual(
        einsum("ia,abm->ibm", dd, np.conj(gm)),
        einsum("aim,ab->ibm", gm, dd),
    )
    # sum d_{ia} gamma^a_{jm} = -sum gamma^a_{im} d_{aj}
    out["spin-metric-gamma-antisymmetry"] = residual(
        einsum("ia,ajm->ijm", d, gm), -einsum("aim,aj->ijm", gm, d)
    )
    # chirality operator algebra
    out["chirality-involution"] = residual(h @ h, eye)
    out["chirality-square-trace"] = residual(trace(h @ h), 4.0)
    out["chirality-tracelessness"] = residual(trace(h))
    # sum H^q_b d^{ba} = sum d^{qb} H^a_b
    out["chirality-spin-metric-upper-symmetry"] = residual(h @ du, du @ transpose(h))
    # pairing is invariant under the bar-swap involution (Hermitian matrix)
    dd_value = SpinTensorValue(TensorSignature(beta=1, gamma=1, spinor_dim=4), dd)
    out["pairing-bar-swap-invariance"] = residual(
        tau(dd_value).components, dd_value.components
    )
    return out


@dataclass(frozen=True)
class DiracFrameKind:
    """Frame classification along the three structure matrices."""

    orthonormality: str  # "ortho" | "anti-ortho"
    chirality: str  # "chiral" | "anti-chiral"
    adjointness: str  # "self-adjoint" | "anti-self-adjoint"


def classify_frame(d_lower, H, D_lower) -> DiracFrameKind:
    """Classify a Dirac frame by exact match against the reference matrices."""

    def pick(matrix, reference, positive, negative):
        matrix = np.asarray(matrix, dtype=complex)
        if np.array_equal(matrix, reference):
            return positive
        if np.array_equal(matrix, -reference):
            return negative
        raise ValueError("matrix matches neither reference sign")

    return DiracFrameKind(
        orthonormality=pick(d_lower, D_DIRAC, "ortho", "anti-ortho"),
        chirality=pick(H, H_DIRAC, "chiral", "anti-chiral"),
        adjointness=pick(D_lower, DD_DIRAC, "self-adjoint", "anti-self-adjoint"),
    )


_INVERSIONS = {
    # frame swap: new frame vector i is column i in the old frame
    "P": np.array(
        [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "T": np.array(
        [[0, 0, -1j, 0], [0, 0, 0, -1j], [1j, 0, 0, 0], [0, 1j, 0, 0]], dtype=complex
    ),
    "PT": np.diag([1j, 1j, -1j, -1j]).astype(complex),
}


def frame_inversion(kind: str) -> np.ndarray:
    """Constant 4x4 spinor matrix of the P, T or PT frame inversion, for
    DiracConstants.transform."""
    if kind not in _INVERSIONS:
        raise ValueError("kind must be one of 'P', 'T', 'PT'")
    return _INVERSIONS[kind].copy()


def embed_chiral_frame() -> dict:
    """Canonical embedding of a chiral frame into the Dirac bundle.

    Frame vectors 1, 2 are the chiral frame; vectors 3, 4 are the
    barred dual co-frame.  Asserts the block layout of the embedded
    structure matrices: the Dirac spin-metric splits into the chiral
    spin-metric and its negated inverse-transpose block, and the
    top-right gamma blocks are exactly the chiral mixed symbols.  The
    checks read the canonical module tables (D_DIRAC, H_DIRAC, DD_DIRAC,
    GAMMA, MINKOWSKI) directly.
    """
    d2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    expected_d = np.zeros((4, 4), dtype=complex)
    expected_d[:2, :2] = d2
    expected_d[2:, 2:] = -d2
    if not np.array_equal(D_DIRAC, expected_d):
        raise AssertionError("embedded spin-metric does not have the chiral block layout")
    if not np.array_equal(H_DIRAC, np.diag([1, 1, -1, -1]).astype(complex)):
        raise AssertionError("chirality operator is not the block sign matrix")
    # top-right gamma block carries the chiral mixed symbols through the
    # dual-frame pairing; bottom-left is the tangent-raised conjugate
    # (MINKOWSKI is its own inverse)
    if not np.array_equal(GAMMA[:2, 2:, :], G_UPPER):
        raise AssertionError("gamma top-right blocks do not match the chiral symbols")
    expected_bottom = np.einsum("mq,jiq->ijm", MINKOWSKI, np.conj(G_UPPER))
    if not np.array_equal(GAMMA[2:, :2, :], expected_bottom):
        raise AssertionError("gamma bottom-left blocks do not match the paired symbols")
    kind = classify_frame(D_DIRAC, H_DIRAC, DD_DIRAC)
    if kind != DiracFrameKind("ortho", "chiral", "self-adjoint"):
        raise AssertionError("embedded frame does not classify canonically")
    return {"d": D_DIRAC, "H": H_DIRAC, "D": DD_DIRAC, "gamma": GAMMA, "kind": kind}
