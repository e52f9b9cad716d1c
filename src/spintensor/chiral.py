"""Chiral spin-tensor constants and the metric spinor connection.

Canonical structure data: the antisymmetric 2x2 spin-metric d, its
conjugate dbar, and the mixed symbols G linking tangent vectors to
spinor bilinears (the slices of G with the tangent index fixed are the
Pauli matrices).  The builder produces the unique connection (Gamma, A,
Abar) annihilating g, d, dbar and G.  A scenario gives its structure
data at a batch of points as one table of jets, scenario.jets(points),
with every entry evaluated once; the builders, the tangent connection
and the one concordance verifier read that table only.  The verifier
walks a scenario's STRUCTURE_FIELDS table and turns every defining
property, chiral or Dirac, into a residual.
"""

from __future__ import annotations

import string
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .expressions import EvaluationError
from .frames import (
    Chart,
    FrameField,
    MatrixField,
    ThetaParameters,
    along_frame,
    check_frame,
    check_points,
    constant_jet,
    einsum,
    einsum_jet,
    point_label,
    structural_constants,
    transform_components,
)
from .lorentz_cover import MINKOWSKI, PAULI
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    SpinTensorValue,
    TensorSignature,
)
from .tetrads import derived_symbol_jet

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


class FieldError(ScenarioError):
    """A table entry that cannot be evaluated or fails its check.

    field names the entry as validation reports it (frame, metric or
    torsion) and error is the underlying failure, whose batch index (if
    it has one) gives the point: "<field> at <point>: <error>".
    """

    def __init__(self, field, error, points):
        index = getattr(error, "index", None)
        where = "" if index is None else f" at {point_label(points, index)}"
        super().__init__(f"{field}{where}: {error}")


@contextmanager
def _entry(field, points):
    """Raise a failure inside as a FieldError of field at points."""
    try:
        yield
    except (ValueError, EvaluationError) as exc:
        raise FieldError(field, exc, points) from exc


def _check_metric(jet):
    """A metric jet, checked to be finite and symmetric of signature
    (+,-,-,-); a failure carries its first failing batch index."""
    gval = np.asarray(jet[0])
    check_points(~np.isfinite(gval).all(axis=(-2, -1)), None, "not finite", ValueError)
    check_points(np.max(np.abs(gval - np.swapaxes(gval, -1, -2)), axis=(-2, -1)) > 1e-10,
                 None, "not symmetric", ValueError)
    eigs = np.linalg.eigvalsh(np.real(gval))
    check_points((np.sum(eigs > 0, axis=-1) != 1) | (np.sum(eigs < 0, axis=-1) != 3), None,
                 "signature is not (+,-,-,-)", ValueError)
    return jet


def _check_torsion(jet):
    """A torsion jet, checked to be antisymmetric in its lower indices."""
    t = jet[0]
    check_points(~(np.max(np.abs(t + np.swapaxes(t, -1, -2)), axis=(-3, -2, -1)) <= 1e-12),
                 None, "not antisymmetric", ValueError)
    return jet


class ChiralScenario:
    """Everything needed to build and test a chiral metric connection.

    frame, g (the frame components of the metric: the coordinate metric
    contracted with the frame when the frame is non-holonomic) and the
    optional torsion are the scenario's own fields.  Its structure data
    at a batch of points is one table, jets(points): the frame, every
    STRUCTURE_FIELDS attribute and the torsion, each evaluated once.

    STRUCTURE_FIELDS lists every field the metric connection annihilates
    as (check name, attribute, tensor type, real-valued?).  Besides g,
    each is its CANONICAL constant, except the symbol field named by
    SYMBOLS, which is derived from g.  transitions, empty unless the
    scenario comes from scenarios.deform_scenario, move the table to the
    frames they deform to, in order.
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

    def __init__(self, chart: Chart, frame: FrameField, g: MatrixField, torsion=None):
        self.chart = chart
        self.frame = frame
        self.g = g
        self.torsion = torsion
        self.transitions = ()
        self.validate()

    def jets(self, points, deriv=True):
        """The structure data at points as one table of jets.

        Maps "frame", every STRUCTURE_FIELDS attribute and "torsion" to
        (value, d), d the coordinate partials (None without deriv; the
        torsion enters undifferentiated and always has None).  Each
        entry is evaluated once.  The symbols are derived from g: in a
        non-orthonormal frame they carry the orthonormal factor of g on
        the tangent slot instead of staying canonical.  A frame, metric
        or torsion that cannot be evaluated or fails its check raises a
        FieldError naming it and its first failing point.  Entries are
        evaluated and checked in table order (frame, metric, torsion,
        then each transition and its moved table), so the first failing
        entry is the one named, even where a later one fails at an
        earlier point.
        """
        with _entry("frame", points):
            table = {"frame": self.frame.jet(points, deriv)}
        symbols, canonical = self.SYMBOLS
        with _entry("metric", points):
            table["g"] = _check_metric(self.g.jet(points, deriv))
            table[symbols] = derived_symbol_jet(table["g"], canonical)
        for attr, value in self.CANONICAL.items():
            table[attr] = constant_jet(value, points, deriv)
        with _entry("torsion", points):
            table["torsion"] = (
                constant_jet(np.zeros((4, 4, 4)), points, deriv=False) if self.torsion is None
                else _check_torsion(self.torsion.jet(points, deriv=False))
            )
        for trans in self.transitions:
            table = self.deform_jets(table, trans, points)[0]
        return table

    def deform_jets(self, table, trans, points):
        """The table as seen from the frame a transition deforms to, and
        the transition's (S, T, Ss, Ts) jets, both at points.

        The transition is evaluated once, with partials exactly when
        the table's frame carries them, and its S and Ss are checked
        like a frame.  The frame becomes U S, checked to be non-singular;
        every other entry, the torsion included, is re-expressed with
        transform_components.  The moved metric and torsion are checked
        like the scenario's own.  A failure raises a FieldError.
        """
        deriv = table["frame"][1] is not None
        with _entry("frame", points):
            trans_jets = trans.jets(points, deriv)
            s = trans_jets[0]
            moved = {"frame": check_frame(
                einsum_jet("ij,jk->ik", table["frame"], s, deriv=deriv), points)}
        torsion = ("torsion", "torsion", TensorSignature(m=1, n=2, spinor_dim=self.spinor_dim), True)
        for _, attr, sig, real in self.STRUCTURE_FIELDS + (torsion,):
            value, d = table[attr]
            x = SpinTensorValue(sig, value)
            if d is None:
                value, d = transform_components(x, trans_jets).components, None
            else:
                x, d = transform_components(x, trans_jets, dx=d)
                value = x.components
            part = np.real if real else np.asarray
            moved[attr] = (part(value), None if d is None else part(d))
        with _entry("metric", points):
            _check_metric(moved["g"])
        with _entry("torsion", points):
            _check_torsion(moved["torsion"])
        return moved, trans_jets

    def validate(self):
        """Evaluate the table at all sample points as one batch, without
        partials; a failing entry raises a FieldError (a ScenarioError)
        naming the field and its first failing point."""
        self.jets(self.chart.points, deriv=False)

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


def metric_tangent_connection(jets) -> np.ndarray:
    """Tangent coefficients Gamma[..., i, k, j] of the metric connection.

    Gamma^k_ij = sum_r g^{kr}/2 (L_i g_jr + L_j g_ri - L_r g_ij)
               + c^k_ij/2
               - sum_rs g^{kr} (c^s_ir/2) g_sj - sum_rs g^{kr} (c^s_jr/2) g_si
               + T^k_ij/2
               - sum_rs g^{kr} (T^s_ir/2) g_sj - sum_rs g^{kr} (T^s_jr/2) g_si
    with c the structural constants of the frame and T the torsion, all
    read from a scenario's table of jets.
    """
    g, dg = jets["g"]
    g = np.real(g)
    lg = np.real(along_frame(jets["frame"][0], dg))  # lg[..., r, a, b] = L_r(g)_{ab}
    ginv = np.linalg.inv(g)
    c = structural_constants(jets["frame"]).c
    t = jets["torsion"][0]

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


def build_chiral_metric_connection(jets, points, reality_tol=1e-9) -> SpinorConnection:
    """The unique connection annihilating g, d, dbar and G at every point.

    jets is a chiral scenario's table at points.  The spinor
    coefficients come from contracting the tangent coefficients with
    the mixed symbols:

    A^i_rj    = 1/4 sum G^{i sbar}_p Gamma^p_rq G^q_{j sbar}
              - 1/4 sum L_r(G^{i sbar}_q) G^q_{j sbar}
              - 1/4 (sum L_r(dbar_{jbar ibar}) dbar^{ibar jbar}) delta^i_j
    Abar^ibar_r jbar mirrors this with the barred slot of G and the
    unbarred spin-metric trace.  For real metric data Abar = conj(A),
    checked at every point.
    """
    u = jets["frame"][0]
    gamma = metric_tangent_connection(jets)
    ginv = np.linalg.inv(np.real(np.asarray(jets["g"][0])))
    gu, dgu = jets["G"]
    d, dd = jets["d"]
    db, ddb = jets["dbar"]
    lgu, ld, ldb = (along_frame(u, x) for x in (dgu, dd, ddb))
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
    x: SpinTensorField, conn: SpinorConnection, jets, points
) -> SpinTensorValue:
    """Covariant derivative of a spin-tensor field at points.

    jets is the scenario's table at points (its frame gives the frame
    derivatives).  Returns the type (..|..|m, n+1) value whose last axis
    is the derivative direction: the Lie-derivative term plus +A / -A on
    contravariant / covariant spinor slots, +Abar / -Abar on barred
    slots and +Gamma / -Gamma on tangent slots.
    """
    sig = x.signature
    value, d = x.components.jet(points)
    lie = along_frame(jets["frame"][0], d)
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


def verify_concordance(build, scenario: ChiralScenario, points=None) -> dict:
    """Residual report for the concordance conditions of a scenario.

    The scenario's table is evaluated once at points (the sample points
    by default), and build(jets, points) builds the connection from that
    same table.  Each row of the scenario's STRUCTURE_FIELDS gives
    nabla-<check>, the max absolute covariant derivative of that field
    over all points; the scenario's concordance_extras add its mode's
    other conditions.  A non-finite residual anywhere makes the reported
    maximum non-finite.
    """
    points = scenario.chart.points if points is None else np.asarray(points, dtype=float)
    jets = scenario.jets(points)
    conn = build(jets, points)
    u = jets["frame"][0]
    out, values, grads = {}, {}, {}
    for check, attr, sig, _ in scenario.STRUCTURE_FIELDS:
        value, d = jets[attr]
        values[attr] = value
        grads[attr] = covariant_components(sig, value, along_frame(u, d), conn)
        out[f"nabla-{check}"] = worst_residual(0.0, grads[attr])
    for check, residual in scenario.concordance_extras(values, grads).items():
        out[check] = worst_residual(0.0, residual)
    return out


def worst_residual(running, residual):
    """Running maximum of |residual| that keeps a NaN once one is seen."""
    return float(np.max(np.abs(residual), initial=running))


def transform_connection(conn: SpinorConnection, jets, theta: ThetaParameters) -> SpinorConnection:
    """Map a tilde-frame connection to the untilde frame.

    jets are the transition's (S, T, Ss, Ts) jets at the connection's
    points.  Gamma^k_ij = sum S^k_a T^b_j T^c_i tilde-Gamma^a_cb +
    theta^k_ij, with the spinor transitions and vartheta for A and
    their conjugates for Abar.  theta must be computed with Lie
    derivatives along the untilde frame.
    """
    s, t, ss, ts = (value for value, _ in jets)
    gamma = einsum("ka,bj,ci,cab->ikj", s, t, t, conn.Gamma) + theta.theta
    a = einsum("ka,bj,ci,cab->ikj", ss, ts, t.astype(complex), conn.A) + theta.vartheta
    abar = (
        einsum("ka,bj,ci,cab->ikj", np.conj(ss), np.conj(ts), t.astype(complex), conn.Abar)
        + np.conj(theta.vartheta)
    )
    return SpinorConnection(gamma, a, abar, spinor_dim=conn.spinor_dim)
