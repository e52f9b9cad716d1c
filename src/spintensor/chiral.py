"""Chiral spin-tensor constants and the metric spinor connection.

Canonical structure data: the antisymmetric 2x2 spin-metric d, its
conjugate dbar, and the mixed symbols G linking tangent vectors to
spinor bilinears (the slices of G with the tangent index fixed are the
Pauli matrices).  The builder produces the unique connection (Gamma, A,
Abar) annihilating g, d, dbar and G; the one concordance verifier walks
a scenario's STRUCTURE_FIELDS table and turns every defining property,
chiral or Dirac, into a residual.
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

from .expressions import EvaluationError
from .frames import (
    Chart,
    FrameField,
    FrameTransition,
    MatrixField,
    ThetaParameters,
    along_frame,
    check_points,
    einsum,
    lie_matrix,
    structural_constants,
)
from .lorentz_cover import MINKOWSKI, PAULI
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    SpinTensorValue,
    TensorSignature,
)
from .tetrads import derived_symbol_field, signed_cholesky

D_CHIRAL = np.array([[0, 1], [-1, 0]], dtype=complex)

# G[i, ibar, q]: both-upper mixed symbols, equal to sigma_q[i, ibar]
G_UPPER = np.transpose(np.asarray(PAULI.sigma), (1, 2, 0)).copy()


@dataclass(frozen=True)
class ChiralConstants:
    """Canonical chiral structure matrices and their companions."""

    d_lower: np.ndarray
    d_upper: np.ndarray
    dbar_lower: np.ndarray
    dbar_upper: np.ndarray
    G_upper: np.ndarray  # [i, ibar, q]
    G_lower: np.ndarray  # [q, i, ibar]
    g_lower: np.ndarray
    g_upper: np.ndarray


def compute_g_lower_symbols(g_upper_mixed, g_upper, d_lower, dbar_lower):
    """Both-lower mixed symbols from the both-upper ones.

    G^q_{i ibar} = sum_{j jbar k} G^{j jbar}_k g^{kq} d_{ji} dbar_{jbar ibar},
    at every point of any leading batch axes.
    """
    return einsum("jbk,kq,ji,bc->qic", g_upper_mixed, g_upper, d_lower, dbar_lower)


def canonical_chiral_constants() -> ChiralConstants:
    d_lower = D_CHIRAL.copy()
    d_upper = np.linalg.inv(d_lower)
    dbar_lower = np.conj(d_lower)
    dbar_upper = np.linalg.inv(dbar_lower)
    g_lower = MINKOWSKI.copy()
    g_upper = MINKOWSKI.copy()
    g_lower_symbols = compute_g_lower_symbols(G_UPPER, g_upper, d_lower, dbar_lower)
    constants = ChiralConstants(
        d_lower=d_lower,
        d_upper=d_upper,
        dbar_lower=dbar_lower,
        dbar_upper=dbar_upper,
        G_upper=G_UPPER.copy(),
        G_lower=g_lower_symbols,
        g_lower=g_lower,
        g_upper=g_upper,
    )
    residuals = verify_chiral_identities(constants)
    worst = max(residuals.values())
    if worst != 0.0:
        raise AssertionError(f"canonical chiral identity suite residual {worst}")
    return constants


def verify_chiral_identities(constants: ChiralConstants) -> dict:
    """Residuals of the mixed-symbol identity suite.

    All identities hold exactly (Gaussian-integer entries) on the
    canonical tables and to rounding on consistently transformed ones.
    """
    gu = constants.G_upper
    gl = constants.G_lower
    g = constants.g_lower
    ginv = constants.g_upper
    d = constants.d_lower
    du = constants.d_upper
    db = constants.dbar_lower
    dbu = constants.dbar_upper

    def residual(lhs, rhs):
        return float(np.max(np.abs(lhs - rhs)))

    out = {}
    # reality: G^{i ibar}_q = conj(G^{ibar i}_q), same for the lower symbols
    out["g-symbol-reality"] = max(
        residual(gu, np.conj(gu.transpose(1, 0, 2))),
        residual(gl, np.conj(gl.transpose(0, 2, 1))),
    )
    # lower symbols re-derived from the upper ones
    out["g-symbol-lowering"] = residual(
        gl, compute_g_lower_symbols(gu, ginv, d, db)
    )
    # sum_pq g_pq G^p G^q = 2 d dbar
    out["spin-metric-from-symbols"] = residual(
        np.einsum("pq,pix,qjy->ijxy", g, gl, gl),
        2.0 * np.einsum("ij,xy->ijxy", d, db),
    )
    # sum d dbar G G = 2 g
    out["metric-from-symbols"] = residual(
        np.einsum("ij,xy,ixp,jyq->pq", d, db, gu, gu), 2.0 * g
    )
    # upper-index versions of the two above
    out["spin-metric-upper-from-symbols"] = residual(
        np.einsum("pq,ixp,jyq->ijxy", ginv, gu, gu),
        2.0 * np.einsum("ij,xy->ijxy", du, dbu),
    )
    out["metric-upper-from-symbols"] = residual(
        np.einsum("ij,xy,pix,qjy->pq", du, dbu, gl, gl), 2.0 * ginv
    )
    # trace orthogonality and completeness
    out["symbol-trace-orthogonality"] = residual(
        np.einsum("ixp,qix->qp", gu, gl), 2.0 * np.eye(4)
    )
    out["symbol-completeness"] = residual(
        np.einsum("ixq,qjy->ijxy", gu, gl),
        2.0 * np.einsum("ij,xy->ijxy", np.eye(2), np.eye(2)),
    )
    return out


# --- scenarios and fields --------------------------------------------


@dataclass
class SpinTensorField:
    """Spin-tensor-valued field: one signature, array-valued components."""

    signature: TensorSignature
    components: MatrixField


class ScenarioError(ValueError):
    """Scenario data that fails validation; names the field and the point."""


class ChiralScenario:
    """Everything needed to build and test a chiral metric connection.

    g holds the frame components of the metric (coordinate metric
    contracted with the frame when the frame is non-holonomic); d, dbar
    and G are the spinor structure component fields, canonical constants
    by default and deformed only through frame transitions.

    STRUCTURE_FIELDS lists every field the metric connection annihilates
    as (check name, attribute, tensor type, real-valued?).  A field not
    passed by keyword is its CANONICAL constant, except the symbol field
    named by SYMBOLS, which is then derived from g and symbols_from_g is
    true.
    """

    spinor_dim = 2
    STRUCTURE_FIELDS = (
        ("metric", "g", TensorSignature(n=2), True),
        ("spin-metric", "d", TensorSignature(beta=2), False),
        ("conjugate-spin-metric", "dbar", TensorSignature(gamma=2), False),
        ("mixed-symbols", "G", TensorSignature(alpha=1, nu=1, n=1), False),
    )
    CANONICAL = {"d": D_CHIRAL, "dbar": np.conj(D_CHIRAL)}
    SYMBOLS = ("G", G_UPPER)

    def __init__(self, chart: Chart, frame: FrameField, g: MatrixField, torsion=None, **fields):
        self.chart = chart
        self.frame = frame
        self.g = g
        self.torsion = torsion
        symbols, table = self.SYMBOLS
        self.symbols_from_g = fields.get(symbols) is None
        if self.symbols_from_g:
            # The symbols are tied to g by the structure identities; in a
            # non-orthonormal frame they carry the orthonormal factor of
            # g on the tangent slot instead of staying canonical.
            fields[symbols] = derived_symbol_field(g, table)
        for _, attr, _, _ in self.STRUCTURE_FIELDS:
            if attr != "g":
                value = fields.pop(attr, None)
                setattr(self, attr, MatrixField.constant(self.CANONICAL[attr]) if value is None else value)
        if fields:
            raise TypeError(f"unknown structure fields {sorted(fields)}")
        self.validate()

    def validate(self):
        """Check the frame, g and the torsion at every sample point (g
        needs its time-first orthonormal factor when the symbols are
        derived from it); ScenarioError names the field and the point of
        the first failure.  All points are checked in one batch; only a
        failing batch is checked again point by point, to name the first
        failure."""
        if self._failure(self.chart.points) is None:
            return
        for point in self.chart.sample_points:
            failure = self._failure(point)
            if failure is not None:
                field, exc = failure
                raise ScenarioError(f"{field} at {point}: {exc}") from exc

    def _failure(self, points):
        """(field, error) of the first check that fails over points, else None."""
        field = "frame"
        try:
            self.frame(points)  # det check
            field = "metric"
            gval = np.asarray(self.g(points))
            if np.max(np.abs(gval - np.swapaxes(gval, -1, -2))) > 1e-10:
                raise ValueError("not symmetric")
            eigs = np.linalg.eigvalsh(np.real(gval))
            if np.any(np.sum(eigs > 0, axis=-1) != 1) or np.any(np.sum(eigs < 0, axis=-1) != 3):
                raise ValueError("signature is not (+,-,-,-)")
            if self.symbols_from_g:
                signed_cholesky(np.real(gval))
            if self.torsion is not None:
                field = "torsion"
                t = np.asarray(self.torsion(points))
                if np.max(np.abs(t + np.swapaxes(t, -1, -2))) > 1e-12:
                    raise ValueError("not antisymmetric")
        except (ValueError, EvaluationError) as exc:
            return field, exc
        return None

    def concordance_extras(self, values, grads):
        """sum g^{qp} nabla_r g_{qp} and sum G nabla g G + (i<->j) at every
        point, from the fields' values and covariant derivatives there."""
        ginv = np.linalg.inv(np.real(values["g"]))
        dg = grads["g"]  # [..., q, p, r]
        gl = compute_g_lower_symbols(values["G"], ginv, values["d"], values["dbar"])
        return {
            "metric-trace": einsum("qp,qpr->r", ginv, dg),
            "symbol-sandwich": einsum("aix,abr,bjy->ixjyr", gl, dg, gl)
            + einsum("ajx,abr,biy->ixjyr", gl, dg, gl),
        }

    def torsion_at(self, points):
        if self.torsion is None:
            return np.zeros(np.shape(points)[:-1] + (4, 4, 4))
        return np.asarray(self.torsion(points), dtype=float)


@dataclass(frozen=True)
class SpinorConnection:
    """Connection coefficient arrays at one point or a batch of points.

    Gamma[..., i, k, j] is the tangent coefficient with derivative
    direction i, upper index k and lower index j; A[..., r, i, j] /
    Abar[..., r, i, j] are the spinor and conjugate-spinor coefficient
    matrices per direction.  The leading axes are the batch axes of the
    points, the same for all three arrays.
    """

    Gamma: np.ndarray
    A: np.ndarray
    Abar: np.ndarray
    spinor_dim: int = 2

    def __post_init__(self):
        batch = np.shape(self.Gamma)[:-3]
        for name, shape in (
            ("Gamma", (4, 4, 4)),
            ("A", (4, self.spinor_dim, self.spinor_dim)),
            ("Abar", (4, self.spinor_dim, self.spinor_dim)),
        ):
            arr = np.asarray(getattr(self, name), dtype=complex).copy()
            if arr.shape != batch + shape:
                raise ValueError(f"{name} must have shape {shape} after the batch axes {batch}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def metric_tangent_connection(scenario, points, g_jet=None, frame_jet=None) -> np.ndarray:
    """Tangent coefficients Gamma[..., i, k, j] of the metric connection.

    Gamma^k_ij = sum_r g^{kr}/2 (L_i g_jr + L_j g_ri - L_r g_ij)
               + c^k_ij/2
               - sum_rs g^{kr} (c^s_ir/2) g_sj - sum_rs g^{kr} (c^s_jr/2) g_si
               + T^k_ij/2
               - sum_rs g^{kr} (T^s_ir/2) g_sj - sum_rs g^{kr} (T^s_jr/2) g_si
    with c the structural constants of the frame and T the torsion.
    g_jet and frame_jet are the metric's and the frame's jets at points
    when the caller already holds them.
    """
    g, dg = scenario.g.jet(points) if g_jet is None else g_jet
    frame_jet = scenario.frame.jet(points) if frame_jet is None else frame_jet
    g = np.real(g)
    lg = np.real(along_frame(frame_jet[0], dg))  # lg[..., r, a, b] = L_r(g)_{ab}
    ginv = np.linalg.inv(g)
    c = structural_constants(scenario.frame, points, frame_jet).c
    t = scenario.torsion_at(points)

    gamma = 0.5 * (
        einsum("kr,ijr->ikj", ginv, lg)
        + einsum("kr,jri->ikj", ginv, lg)
        - einsum("kr,rij->ikj", ginv, lg)
    )
    # c enters with the bracket order [frame_i, frame_j]; the sign is
    # pinned by torsion-freeness asym(Gamma) = c, not by metric
    # compatibility (the c-part is g-antisymmetric on its own).
    gamma += 0.5 * einsum("kij->ikj", c)
    gamma -= 0.5 * einsum("kr,sir,sj->ikj", ginv, c, g)
    gamma -= 0.5 * einsum("kr,sjr,si->ikj", ginv, c, g)
    gamma += 0.5 * einsum("kij->ikj", t)
    gamma -= 0.5 * einsum("kr,sir,sj->ikj", ginv, t, g)
    gamma -= 0.5 * einsum("kr,sjr,si->ikj", ginv, t, g)
    return gamma


def build_chiral_metric_connection(
    scenario: ChiralScenario, points, reality_tol=1e-9
) -> SpinorConnection:
    """The unique connection annihilating g, d, dbar and G at every point.

    The spinor coefficients come from contracting the tangent
    coefficients with the mixed symbols:

    A^i_rj    = 1/4 sum G^{i sbar}_p Gamma^p_rq G^q_{j sbar}
              - 1/4 sum L_r(G^{i sbar}_q) G^q_{j sbar}
              - 1/4 (sum L_r(dbar_{jbar ibar}) dbar^{ibar jbar}) delta^i_j
    Abar^ibar_r jbar mirrors this with the barred slot of G and the
    unbarred spin-metric trace.  For real metric data Abar = conj(A),
    checked at every point.  The frame and g are evaluated once for the
    whole batch.
    """
    frame_jet = scenario.frame.jet(points)
    g_jet = scenario.g.jet(points)
    gamma = metric_tangent_connection(scenario, points, g_jet, frame_jet)
    ginv = np.linalg.inv(np.real(np.asarray(g_jet[0])))
    gu, dgu = scenario.G.jet(points)
    d, dd = scenario.d.jet(points)
    db, ddb = scenario.dbar.jet(points)
    lgu, ld, ldb = (along_frame(frame_jet[0], x) for x in (dgu, dd, ddb))
    du = np.linalg.inv(d)
    dbu = np.linalg.inv(db)
    gl = compute_g_lower_symbols(gu, ginv, d, db)

    eye = np.eye(2, dtype=complex)
    a = 0.25 * einsum("ibp,rpq,qjb->rij", gu, gamma, gl)
    a -= 0.25 * einsum("ribq,qjb->rij", lgu, gl)
    a -= 0.25 * einsum("rji,ij,ab->rab", ldb, dbu, eye)

    abar = 0.25 * einsum("sip,rpq,qsj->rij", gu, gamma, gl)
    abar -= 0.25 * einsum("rsiq,qsj->rij", lgu, gl)
    abar -= 0.25 * einsum("rji,ij,ab->rab", ld, du, eye)

    scale = 1.0 + np.max(np.abs(a), axis=(-3, -2, -1))
    unreal = np.max(np.abs(abar - np.conj(a)), axis=(-3, -2, -1)) > reality_tol * scale
    check_points(unreal, points, "Abar is not the conjugate of A")
    return SpinorConnection(gamma, a, abar, spinor_dim=2)


def covariant_derivative(
    x: SpinTensorField, conn: SpinorConnection, scenario, points
) -> SpinTensorValue:
    """Covariant derivative of a spin-tensor field at points.

    Returns the type (..|..|m, n+1) value whose last axis is the
    derivative direction: the Lie-derivative term plus +A / -A on
    contravariant / covariant spinor slots, +Abar / -Abar on barred
    slots and +Gamma / -Gamma on tangent slots.
    """
    sig = x.signature
    value, lie = lie_matrix(x.components, scenario.frame, points)
    new_sig = TensorSignature(
        alpha=sig.alpha, beta=sig.beta, nu=sig.nu, gamma=sig.gamma,
        m=sig.m, n=sig.n + 1, spinor_dim=sig.spinor_dim,
    )
    return SpinTensorValue(new_sig, covariant_components(sig, value, lie, conn))


def covariant_components(sig: TensorSignature, value, lie, conn: SpinorConnection):
    """Components of the covariant derivative, direction last, from a
    field's value and its derivatives lie[..., r, :] along the frame
    vectors; one contraction per slot over every direction and point."""
    if sig.spinor_dim != conn.spinor_dim:
        raise ValueError("field and connection spinor dimensions differ")
    out = np.moveaxis(np.asarray(lie), -sig.rank - 1, -1).astype(complex)
    coeff = {SPINOR: conn.A, BARRED: conn.Abar, TANGENT: conn.Gamma}
    old = string.ascii_lowercase[: sig.rank]  # slot letters, all before "r"
    for axis, (family, up) in enumerate(sig.slots):
        new = old[:axis] + "z" + old[axis + 1:]
        # up: + sum_a M[r, z, a] x[..a..]; down: - sum_a x[..a..] M[r, a, z]
        mat = "r" + ("z" + old[axis] if up else old[axis] + "z")
        term = einsum(f"{mat},{old}->{new}r", coeff[family], value)
        out = out + term if up else out - term
    return out


def verify_concordance(conn_at, scenario: ChiralScenario, points=None) -> dict:
    """Residual report for the concordance conditions of a scenario.

    conn_at maps the batch of points (..., 4), the sample points by
    default, to the SpinorConnection there, in one call.  Each row of
    the scenario's STRUCTURE_FIELDS gives nabla-<check>, the max
    absolute covariant derivative of that field over all points from
    one jet of the field for the batch; the scenario's
    concordance_extras add its mode's other conditions.  A non-finite
    residual anywhere makes the reported maximum non-finite.
    """
    points = scenario.chart.points if points is None else np.asarray(points, dtype=float)
    conn = conn_at(points)
    u = scenario.frame(points)
    out, values, grads = {}, {}, {}
    for check, attr, sig, _ in scenario.STRUCTURE_FIELDS:
        value, d = getattr(scenario, attr).jet(points)
        values[attr] = value
        grads[attr] = covariant_components(sig, value, along_frame(u, d), conn)
        out[f"nabla-{check}"] = worst_residual(0.0, grads[attr])
    for check, residual in scenario.concordance_extras(values, grads).items():
        out[check] = worst_residual(0.0, residual)
    return out


def worst_residual(running, residual):
    """Running maximum of |residual| that keeps a NaN once one is seen."""
    return float(np.max(np.abs(residual), initial=running))


def transform_connection(
    conn: SpinorConnection, trans: FrameTransition, theta: ThetaParameters, points
) -> SpinorConnection:
    """Map a tilde-frame connection to the untilde frame.

    Gamma^k_ij = sum S^k_a T^b_j T^c_i tilde-Gamma^a_cb + theta^k_ij,
    with the spinor transitions and vartheta for A and their conjugates
    for Abar.  theta must be computed with Lie derivatives along the
    untilde frame.
    """
    s, t, ss, ts = (value for value, _ in trans.jets(points, deriv=False))
    gamma = einsum("ka,bj,ci,cab->ikj", s, t, t, conn.Gamma) + theta.theta
    a = einsum("ka,bj,ci,cab->ikj", ss, ts, t.astype(complex), conn.A) + theta.vartheta
    abar = (
        einsum("ka,bj,ci,cab->ikj", np.conj(ss), np.conj(ts), t.astype(complex), conn.Abar)
        + np.conj(theta.vartheta)
    )
    return SpinorConnection(gamma, a, abar, spinor_dim=conn.spinor_dim)
