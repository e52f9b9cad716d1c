"""Dirac-bundle structure tables, identity suite, frame kinds and inversions.

The Dirac bundle is the direct sum of a chiral bundle and its Hermitian
conjugate.  In a canonically orthonormal chiral frame its structure
fields are constants: the 4x4 spin-metric d, the chirality operator H,
the Hermitian pairing D and the gamma-symbols whose fixed-tangent-index
slices are the Dirac matrices.  STRUCTURE_FIELDS, CANONICAL and SYMBOLS
name them once, for DiracScenario and for the canonical table
(canonical_dirac_constants), a dict of values keyed like a Dirac
scenario's table; the identity suite reads such a table and derives
the companions it needs.  Frame kinds (orthonormal / chiral /
self-adjoint and their "anti" twins) are decided by exact matrix match,
and the P/T/PT inversions are constant 4x4 spinor matrices between
them, which transform_table applies to a table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chiral import canonical_chiral_constants, canonical_table, table_residual
from .frames import einsum, transform_components
from .lorentz_cover import read_only
from .tensor_core import TensorSignature

D_DIRAC = read_only(np.array(
    [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ],
    dtype=float,
))

H_DIRAC = read_only(np.diag([1.0, 1.0, -1.0, -1.0]))

DD_DIRAC = read_only(np.array(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ],
    dtype=float,
))

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
read_only(GAMMA)

STRUCTURE_FIELDS = (
    ("metric", "g", TensorSignature(n=2, spinor_dim=4)),
    ("spin-metric", "d", TensorSignature(beta=2, spinor_dim=4)),
    ("conjugate-spin-metric", "dbar", TensorSignature(gamma=2, spinor_dim=4)),
    ("gamma-symbols", "gamma", TensorSignature(alpha=1, beta=1, n=1, spinor_dim=4)),
    ("chirality", "H", TensorSignature(alpha=1, beta=1, spinor_dim=4)),
    ("pairing", "D", TensorSignature(beta=1, gamma=1, spinor_dim=4)),
)
CANONICAL = {"d": D_DIRAC, "dbar": read_only(np.conj(D_DIRAC)), "H": H_DIRAC, "D": DD_DIRAC}
SYMBOLS = ("gamma", GAMMA)


def canonical_dirac_constants() -> dict:
    """The Dirac canonical table: g, d, dbar, gamma, H and D.  Nothing
    is checked here: verify_dirac_identities gives residual 0 on it."""
    return canonical_table(STRUCTURE_FIELDS, CANONICAL, SYMBOLS)


def transform_table(table, spin):
    """The table of the frame reached through the constant spinor
    transition spin (new frame vector i is column i in the old frame),
    the tangent frame staying put: every entry re-expressed by its
    STRUCTURE_FIELDS type with transform_components.  spin may be a
    stack (..., 4, 4) of transitions: the tables of every frame come
    out as one stack, from one pass.
    """
    eye = np.eye(4)
    jets = ((eye, None), (eye, None), (spin, None), (np.linalg.inv(spin), None))
    return {attr: transform_components(sig, (table[attr], None), jets)[0]
            for _, attr, sig in STRUCTURE_FIELDS}


def verify_dirac_identities(table) -> dict:
    """Residuals of the full Dirac identity suite on a Dirac table of
    values (g, d, dbar, gamma, H, D).

    The companions are derived from the table: d^-1, dbar^-1, g^-1,
    gamma with its tangent index raised, D's inverse pairing and the
    two Hermitian gammas.  Exactly zero on the canonical table
    (Gaussian-integer entries); still zero to rounding after any
    consistent frame transform.  Each residual has the table's batch
    shape: a float for one frame, an array with one residual per frame
    for a stack.
    """
    d, h, dd, gm, g = (table[attr] for attr in ("d", "H", "D", "gamma", "g"))
    du, ginv = np.linalg.inv(d), np.linalg.inv(g)
    # raised tangent index: gamma^{am}_b = sum_k gamma^a_{bk} g^{km}
    gi = einsum("abk,km->abm", gm, ginv)
    # D^{i ibar} = sum d^{ia} D_{a abar} dbar^{abar ibar}
    ddu = einsum("ia,ab,bj->ij", du, dd, np.linalg.inv(table["dbar"]))
    # gamma^{i ibar}_m = sum_a gamma^i_{am} D^{a ibar}
    ghu = einsum("iam,aj->ijm", gm, ddu)
    # gamma^m_{i ibar} = sum_a gamma^{am}_i D_{a ibar}
    ghl = einsum("aim,aj->ijm", gi, dd)
    eye = np.eye(4)
    residual = functools.partial(table_residual, np.ndim(h) - 2)

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
    # tangent raise consistency (the raised gamma re-derived)
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
    # pairing is invariant under the bar-swap involution, which on D's
    # (beta=1, gamma=1) slots is the conjugate transpose: D is Hermitian
    out["pairing-bar-swap-invariance"] = residual(np.conj(transpose(dd)), dd)
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
    transform_table."""
    if kind not in _INVERSIONS:
        raise ValueError("kind must be one of 'P', 'T', 'PT'")
    return _INVERSIONS[kind].copy()


def embed_chiral_frame() -> dict:
    """Residuals of the canonical embedding of a chiral frame into the
    Dirac bundle, read off the two canonical tables.

    Frame vectors 1, 2 are the chiral frame; vectors 3, 4 are the
    barred dual co-frame.  The Dirac spin-metric splits into the chiral
    spin-metric and its negated inverse-transpose block, H is the block
    sign matrix, the top-right gamma blocks are exactly the chiral
    mixed symbols and the bottom-left ones their tangent-raised
    conjugates; canonical-classification is 0 when the frame classifies
    as (ortho, chiral, self-adjoint), else 1.
    """
    chiral, dirac = canonical_chiral_constants(), canonical_dirac_constants()
    d2 = chiral["d"]
    expected_d = np.zeros((4, 4))
    expected_d[:2, :2] = d2
    expected_d[2:, 2:] = -np.linalg.inv(d2).T
    expected_bottom = einsum("mq,jiq->ijm", np.linalg.inv(chiral["g"]), np.conj(chiral["G"]))
    try:
        kind = classify_frame(dirac["d"], dirac["H"], dirac["D"])
    except ValueError:  # a matrix that matches neither reference sign
        kind = None
    residual = functools.partial(table_residual, 0)
    return {
        "spin-metric-blocks": residual(dirac["d"], expected_d),
        "chirality-blocks": residual(dirac["H"], np.diag([1, 1, -1, -1])),
        "gamma-chiral-blocks": residual(dirac["gamma"][:2, 2:, :], chiral["G"]),
        "gamma-paired-blocks": residual(dirac["gamma"][2:, :2, :], expected_bottom),
        "canonical-classification":
        float(kind != DiracFrameKind("ortho", "chiral", "self-adjoint")),
    }
