"""Metric connection construction on the Dirac bundle.

The chirality operator H yields two projector fields whose splits of
the gamma-symbols and of the spin-metric drive the explicit formula for
the spinor coefficients A.  Two independent routes are implemented: the
four-block assembly and the simplified single formula; tests hold them
against each other.  Restriction to the chiral sub-bundle recovers the
2x2 connection of the chiral builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chiral import (
    ChiralScenario,
    SpinorConnection,
    SpinTensorField,
    covariant_derivative,
    metric_tangent_connection,
    worst_residual,
)
from .dirac import DD_DIRAC, D_DIRAC, GAMMA, H_DIRAC, DiracConstants
from .frames import Chart, FrameField, MatrixField, along_frame, einsum_jet, inverse_jet
from .lorentz_cover import MINKOWSKI
from .tensor_core import TensorSignature
from .tetrads import derived_symbol_field


@dataclass(frozen=True)
class ChiralitySplit:
    """Projectors and split structure data of one Dirac frame."""

    bulletH: np.ndarray  # (id + H) / 2
    circH: np.ndarray  # (id - H) / 2
    bc_gamma: np.ndarray  # bullet-circ split of gamma, [a, b, m]
    cb_gamma: np.ndarray  # circ-bullet split
    b_d_lower: np.ndarray
    c_d_lower: np.ndarray
    b_d_upper: np.ndarray
    c_d_upper: np.ndarray


SPLIT_NAMES = ("bh", "ch", "bc", "cb", "bd_low", "cd_low", "bd_up", "cd_up")


def _split_arrays(h, gamma, d_lower, d_upper):
    """Jets of the projectors and split structure data (SPLIT_NAMES order)
    from the jets of H, gamma and the spin-metric and its inverse; with
    partials exactly when H's jet carries them."""
    eye = np.eye(4, dtype=complex)
    h, dh = h
    deriv = dh is not None
    bh = (0.5 * (eye + h), None if dh is None else 0.5 * dh)
    ch = (0.5 * (eye - h), None if dh is None else -0.5 * dh)

    def split(subscripts, *jets):
        return einsum_jet(subscripts, *jets, deriv=deriv)

    return (
        bh,
        ch,
        split("ar,sb,rsm->abm", bh, ch, gamma),
        split("ar,sb,rsm->abm", ch, bh, gamma),
        split("rb,rs,sh->bh", bh, d_lower, bh),
        split("rb,rs,sh->bh", ch, d_lower, ch),
        split("ar,rs,es->ae", bh, d_upper, bh),
        split("ar,rs,es->ae", ch, d_upper, ch),
    )


def chirality_split(constants: DiracConstants, tol=0.0) -> ChiralitySplit:
    """Build and verify the projector split of one frame's constants.

    Verifies projector algebra, the vanishing of the same-chirality
    gamma pieces, reconstruction of gamma from the two cross pieces, and
    the metric-contraction identities relating split gammas to the split
    spin-metrics and to the projectors.  All checks are exact (residual
    0) on canonical constants; tol admits rounding for transformed ones.
    """
    jets = _split_arrays(
        *((arr, None) for arr in (constants.H, constants.gamma, constants.d_lower, constants.d_upper))
    )
    bh, ch, bc, cb, bd_low, cd_low, bd_up, cd_up = (value for value, _ in jets)
    eye = np.eye(4, dtype=complex)
    ginv = constants.g_upper.astype(complex)

    def check(name, lhs, rhs=None):
        diff = lhs if rhs is None else lhs - rhs
        if float(np.max(np.abs(diff))) > tol:
            raise AssertionError(f"chirality split check failed: {name}")

    check("projector-sum", bh + ch, eye)
    check("projector-product", bh @ ch)
    check("projector-idempotence", bh @ bh, bh)
    check("projector-idempotence-circ", ch @ ch, ch)
    bb = np.einsum("ar,sb,rsm->abm", bh, bh, constants.gamma)
    cc = np.einsum("ar,sb,rsm->abm", ch, ch, constants.gamma)
    check("same-chirality-gamma-vanishing", bb)
    check("same-chirality-gamma-vanishing-circ", cc)
    check("gamma-reconstruction", bc + cb, constants.gamma)
    # split spin-metrics are antisymmetric, rank two
    for name, arr in (("b", bd_low), ("c", cd_low)):
        check(f"split-spin-metric-antisymmetry-{name}", arr + arr.T)
        if np.linalg.matrix_rank(arr) != 2:
            raise AssertionError(f"split spin-metric {name} is not rank 2")
    # sum_mn bc^a_{bm} g^{mn} bc^e_{hn} = 2 bd^{ae} cd_{bh}, and mirror
    check(
        "split-gamma-metric-bb",
        np.einsum("abm,mn,ehn->abeh", bc, ginv, bc),
        2.0 * np.einsum("ae,bh->abeh", bd_up, cd_low),
    )
    check(
        "split-gamma-metric-cc",
        np.einsum("abm,mn,ehn->abeh", cb, ginv, cb),
        2.0 * np.einsum("ae,bh->abeh", cd_up, bd_low),
    )
    # sum_mn bc^a_{bm} g^{mn} cb^e_{hn} = 2 bH^a_h cH^e_b, and mirror
    check(
        "split-gamma-projector-bc",
        np.einsum("abm,mn,ehn->abeh", bc, ginv, cb),
        2.0 * np.einsum("ah,eb->abeh", bh, ch),
    )
    check(
        "split-gamma-projector-cb",
        np.einsum("abm,mn,ehn->abeh", cb, ginv, bc),
        2.0 * np.einsum("ah,eb->abeh", ch, bh),
    )
    # contracted forms: sum_a bc^a_{bm} g^{mn} cb^i_{an} = 4 cH^i_b, mirror
    check(
        "split-gamma-contracted-bc",
        np.einsum("abm,mn,ian->ib", bc, ginv, cb),
        4.0 * ch,
    )
    check(
        "split-gamma-contracted-cb",
        np.einsum("abm,mn,ian->ib", cb, ginv, bc),
        4.0 * bh,
    )
    return ChiralitySplit(
        bulletH=bh,
        circH=ch,
        bc_gamma=bc,
        cb_gamma=cb,
        b_d_lower=bd_low,
        c_d_lower=cd_low,
        b_d_upper=bd_up,
        c_d_upper=cd_up,
    )


class DiracScenario(ChiralScenario):
    """Scenario with 4-component spinor structure fields.

    d is the 4x4 Dirac spin-metric field, gamma the [a, b, m] symbol
    field, H the chirality operator field and D the Hermitian pairing
    field; canonical constants by default, deformed only through frame
    transitions.
    """

    spinor_dim = 4

    def __init__(self, chart: Chart, frame: FrameField, g: MatrixField,
                 d=None, dbar=None, gamma=None, H=None, D=None, torsion=None):
        if gamma is not None:
            self.gamma = gamma
        else:
            # Same coupling as the chiral mixed symbols: the gamma-symbol
            # field in a non-orthonormal frame carries the orthonormal
            # factor of g on its tangent slot.
            self.gamma = derived_symbol_field(g, GAMMA)
        self.H = H if H is not None else MatrixField.constant(H_DIRAC)
        self.D = D if D is not None else MatrixField.constant(DD_DIRAC)
        d = d if d is not None else MatrixField.constant(D_DIRAC)
        dbar = dbar if dbar is not None else MatrixField.constant(np.conj(D_DIRAC))
        super().__init__(chart, frame, g, d=d, dbar=dbar, G=None, torsion=torsion)

    @classmethod
    def canonical(cls, chart: Chart, g=None, frame=None, torsion=None):
        frame = frame if frame is not None else FrameField.coordinate()
        g = g if g is not None else MatrixField.constant(MINKOWSKI)
        return cls(chart, frame, g, torsion=torsion)


def build_dirac_metric_connection(
    scenario: DiracScenario, point, method="simplified"
) -> SpinorConnection:
    """The unique metric connection of a Dirac scenario at one point.

    The tangent coefficients are shared with the chiral builder.  The
    spinor coefficients are computed either from the simplified closed
    formula ("simplified") or by assembling the four chirality blocks
    ("blocks"); the two routes agree identically and are kept separate
    as mutual cross-checks.  Abar is the conjugate of A.
    """
    if method not in ("simplified", "blocks"):
        raise ValueError("method must be 'simplified' or 'blocks'")
    gamma_t = metric_tangent_connection(scenario, point)
    g = np.real(np.asarray(scenario.g(point)))
    ginv = np.linalg.inv(g).astype(complex)

    d_jet = scenario.d.jet(point)
    jets = _split_arrays(
        scenario.H.jet(point), scenario.gamma.jet(point), d_jet, inverse_jet(d_jet)
    )
    u = scenario.frame(point)
    values = {name: value for name, (value, _) in zip(SPLIT_NAMES, jets)}
    lie = {name: along_frame(u, d) for name, (_, d) in zip(SPLIT_NAMES, jets)}
    bh, ch = values["bh"], values["ch"]
    bc, cb = values["bc"], values["cb"]
    bd_low, cd_low = values["bd_low"], values["cd_low"]
    bd_up, cd_up = values["bd_up"], values["cd_up"]

    if method == "blocks":
        # cross blocks: projector derivatives only
        bc_a = np.einsum("sj,kis->kij", ch, lie["bh"])
        cb_a = np.einsum("sj,kis->kij", bh, lie["ch"])
        # same-chirality blocks
        cc_a = 0.25 * np.einsum("kabm,mn,ian,bj->kij", lie["bc"], ginv, cb, ch)
        cc_a += 0.25 * np.einsum("kab,ba->k", lie["bd_low"], bd_up)[:, None, None] * ch
        cc_a -= 0.25 * np.einsum("krm,qjr,mn,iqn->kij", gamma_t, bc, ginv, cb)
        bb_a = 0.25 * np.einsum("kabm,mn,ian,bj->kij", lie["cb"], ginv, bc, bh)
        bb_a += 0.25 * np.einsum("kab,ba->k", lie["cd_low"], cd_up)[:, None, None] * bh
        bb_a -= 0.25 * np.einsum("krm,qjr,mn,iqn->kij", gamma_t, cb, ginv, bc)
        a = bc_a + cb_a + cc_a + bb_a
    else:
        a = 0.25 * (
            np.einsum("kab,ba->k", lie["bd_low"], bd_up)[:, None, None] * ch
            + np.einsum("kab,ba->k", lie["cd_low"], cd_up)[:, None, None] * bh
        )
        a += 0.25 * (
            np.einsum("kajm,mn,ian->kij", lie["bc"], ginv, cb)
            + np.einsum("kajm,mn,ian->kij", lie["cb"], ginv, bc)
        )
        a -= 0.25 * (
            np.einsum("krm,ajr,mn,ian->kij", gamma_t, bc, ginv, cb)
            + np.einsum("krm,ajr,mn,ian->kij", gamma_t, cb, ginv, bc)
        )
    return SpinorConnection(gamma_t, a, np.conj(a), spinor_dim=4)


def restrict_to_chiral(
    dirac_conn: SpinorConnection, point=None, tol=1e-9
) -> SpinorConnection:
    """Restrict a Dirac connection to its chiral sub-bundle.

    Valid in a canonically orthonormal chiral frame, where the spinor
    coefficients are block-diagonal: the top-left 2x2 block acts on the
    chiral frame vectors and the bottom-right block acts on the barred
    dual co-frame, forcing it to be minus the conjugate transpose of the
    chiral block.  Gamma passes through unchanged.
    """
    if dirac_conn.spinor_dim != 4:
        raise ValueError("expected a Dirac connection")
    a = dirac_conn.A
    off = max(
        float(np.max(np.abs(a[:, :2, 2:]))), float(np.max(np.abs(a[:, 2:, :2])))
    )
    if off > tol:
        raise ValueError(
            f"connection not block-diagonal in chiral frame (off-block {off:.3e})"
        )
    chiral_a = a[:, :2, :2]
    dual_block = a[:, 2:, 2:]
    expected = -np.conj(chiral_a).transpose(0, 2, 1)
    if float(np.max(np.abs(dual_block - expected))) > tol:
        raise ValueError("dual co-frame block does not pair with the chiral block")
    return SpinorConnection(
        dirac_conn.Gamma, chiral_a, np.conj(chiral_a), spinor_dim=2
    )


def verify_dirac_concordance(
    conn_at, scenario: DiracScenario, points=None
) -> dict:
    """Residual report for the Dirac concordance conditions.

    Max absolute covariant derivatives of g, d, dbar, gamma, H, D plus
    the derivative of the chirality involution (H nabla H + nabla H H).
    A non-finite residual anywhere makes the reported maximum non-finite.
    """
    points = points if points is not None else scenario.chart.sample_points
    sdim = 4
    fields = {
        "metric": SpinTensorField(TensorSignature(n=2, spinor_dim=sdim), scenario.g),
        "spin-metric": SpinTensorField(
            TensorSignature(beta=2, spinor_dim=sdim), scenario.d
        ),
        "conjugate-spin-metric": SpinTensorField(
            TensorSignature(gamma=2, spinor_dim=sdim), scenario.dbar
        ),
        "gamma-symbols": SpinTensorField(
            TensorSignature(alpha=1, beta=1, n=1, spinor_dim=sdim), scenario.gamma
        ),
        "chirality": SpinTensorField(
            TensorSignature(alpha=1, beta=1, spinor_dim=sdim), scenario.H
        ),
        "pairing": SpinTensorField(
            TensorSignature(beta=1, gamma=1, spinor_dim=sdim), scenario.D
        ),
    }
    out = {f"nabla-{name}": 0.0 for name in fields}
    out["chirality-involution-derivative"] = 0.0
    for point in points:
        conn = conn_at(point) if callable(conn_at) else conn_at
        grads = {}
        for name, fld in fields.items():
            grad = covariant_derivative(fld, conn, scenario, point)
            grads[name] = grad.components
            out[f"nabla-{name}"] = worst_residual(out[f"nabla-{name}"], grad.components)
        h = np.asarray(scenario.H(point), dtype=complex)
        dh = grads["chirality"]  # [a, b, r]
        involution = np.einsum("ab,bcr->acr", h, dh) + np.einsum("abr,bc->acr", dh, h)
        out["chirality-involution-derivative"] = worst_residual(
            out["chirality-involution-derivative"], involution
        )
    return out
