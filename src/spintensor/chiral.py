"""Chiral spin-tensor constants and the metric spinor connection.

Canonical structure data: the antisymmetric 2x2 spin-metric d, its
conjugate dbar, and the mixed symbols G linking tangent vectors to
spinor bilinears (the slices of G with the tangent index fixed are the
Pauli matrices).  With the Minkowski metric they are one table of
values keyed like a scenario's (canonical_chiral_constants), which the
identity suite reads.  The builder produces the unique connection
(Gamma, A, Abar) annihilating g, d, dbar and G.  A scenario gives its structure
data at a batch of points as one table of jets, scenario.jets(points),
with every entry evaluated once; the builders and the one concordance
verifier read that table only.  The table's tangent half
(scenario.tangent_jets: the frame, the frame metric and its
orthonormal factor, the torsion, g^-1, the tangent coefficients Gamma
and the transition's jets) is the same for a chiral and a Dirac
scenario of the same fields, so a caller that holds it (a CLI run)
evaluates it once for both tables and both builders.  The verifier
walks a scenario's STRUCTURE_FIELDS table and turns every defining
property, chiral or Dirac, into a residual.
"""

from __future__ import annotations

import functools
import string
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .expressions import EvaluationError
from .frames import (
    MatrixField,
    along_frame,
    check_frame,
    check_points,
    einsum,
    einsum_jet,
    point_label,
    structural_constants,
    transform_components,
)
from .lorentz_cover import MINKOWSKI, PAULI, read_only
from .tensor_core import (
    BARRED,
    SPINOR,
    TANGENT,
    TensorSignature,
)
from .tetrads import orthonormal_factor_jet, symbol_jet

D_CHIRAL = read_only(np.array([[0.0, 1.0], [-1.0, 0.0]]))

# G[i, ibar, q]: both-upper mixed symbols, equal to sigma_q[i, ibar]
G_UPPER = read_only(np.transpose(PAULI, (1, 2, 0)).copy())


def compute_g_lower_symbols(g_upper_mixed, g_upper, d_lower, dbar_lower):
    """Both-lower mixed symbols from the both-upper ones.

    G^q_{i ibar} = sum_{j jbar k} G^{j jbar}_k g^{kq} d_{ji} dbar_{jbar ibar},
    at every point of any leading batch axes.
    """
    return einsum("jbk,kq,ji,bc->qic", g_upper_mixed, g_upper, d_lower, dbar_lower)


def canonical_table(structure_fields, canonical, symbols):
    """A bundle's structure fields' values in a canonical frame, keyed
    like its scenarios' tables (structure_fields): g is MINKOWSKI, the
    symbol field named by symbols its canonical table and every other
    field its canonical constant, all read-only module constants."""
    values = {"g": MINKOWSKI, symbols[0]: symbols[1], **canonical}
    return {attr: values[attr] for _, attr, _ in structure_fields}


def canonical_chiral_constants() -> dict:
    """The chiral canonical table: g, d, dbar and G.  Nothing is checked
    here: verify_chiral_identities gives residual 0 on it."""
    return canonical_table(ChiralScenario.STRUCTURE_FIELDS, ChiralScenario.CANONICAL,
                           ChiralScenario.SYMBOLS)


def table_residual(batch, lhs, rhs=0.0):
    """max |lhs - rhs| over each frame's entries, the frames being the
    batch leading axes of a suite's table: a float for one frame, an
    array with one residual per frame for a stack.  A NaN is kept."""
    diff = np.abs(lhs - rhs)
    return np.max(diff, axis=tuple(range(batch, diff.ndim)))


def suite_values(table, structure_fields):
    """A suite's table of values, every entry broadcast to the table's
    batch shape, and that shape's length.  The batch shape is that of
    the batched entries, the leading axes before each entry's per-point
    slots; a canonical constant in a scenario's table has none.  So
    every residual of a suite has one value per frame."""
    own = {attr: np.shape(table[attr])[:np.ndim(table[attr]) - sig.rank]
           for _, attr, sig in structure_fields}
    batch = np.broadcast_shapes(*own.values())
    return {attr: table[attr] if own[attr] == batch else
            np.broadcast_to(table[attr], batch + np.shape(table[attr])[len(own[attr]):])
            for attr in own}, len(batch)


def verify_chiral_identities(table) -> dict:
    """Residuals of the mixed-symbol identity suite on a chiral table of
    values (g, d, dbar, G), one frame or a stack along leading batch
    axes (suite_values); g^-1, d^-1, dbar^-1 and the lowered symbols
    are derived.

    All identities hold exactly (Gaussian-integer entries) on the
    canonical table and to rounding on any consistent frame's.
    """
    values, batch = suite_values(table, ChiralScenario.STRUCTURE_FIELDS)
    g, d, db, gu = (values[attr] for attr in ("g", "d", "dbar", "G"))
    ginv, du, dbu = (np.linalg.inv(m) for m in (g, d, db))
    gl = compute_g_lower_symbols(gu, ginv, d, db)
    residual = functools.partial(table_residual, batch)

    out = {}
    # reality: G^{i ibar}_q = conj(G^{ibar i}_q), same for the lower symbols
    out["g-symbol-reality"] = np.maximum(
        residual(gu, np.conj(np.swapaxes(gu, -3, -2))),
        residual(gl, np.conj(np.swapaxes(gl, -2, -1))),
    )
    # sum_pq g_pq G^p G^q = 2 d dbar
    out["spin-metric-from-symbols"] = residual(
        einsum("pq,pix,qjy->ijxy", g, gl, gl),
        2.0 * einsum("ij,xy->ijxy", d, db),
    )
    # sum d dbar G G = 2 g
    out["metric-from-symbols"] = residual(
        einsum("ij,xy,ixp,jyq->pq", d, db, gu, gu), 2.0 * g
    )
    # upper-index versions of the two above
    out["spin-metric-upper-from-symbols"] = residual(
        einsum("pq,ixp,jyq->ijxy", ginv, gu, gu),
        2.0 * einsum("ij,xy->ijxy", du, dbu),
    )
    out["metric-upper-from-symbols"] = residual(
        einsum("ij,xy,pix,qjy->pq", du, dbu, gl, gl), 2.0 * ginv
    )
    # trace orthogonality and completeness
    out["symbol-trace-orthogonality"] = residual(
        einsum("ixp,qix->qp", gu, gl), 2.0 * np.eye(4)
    )
    out["symbol-completeness"] = residual(
        einsum("ixq,qjy->ijxy", gu, gl),
        2.0 * einsum("ij,xy->ijxy", np.eye(2), np.eye(2)),
    )
    return out


# --- scenarios and fields --------------------------------------------


class ScenarioError(ValueError):
    """A table entry that cannot be evaluated or fails its check.

    field names the entry as validation reports it (frame, metric or
    torsion) and error is the underlying failure, whose batch index (if
    it has one) gives the point, named once: "<field> at <point>:
    <reason>", the reason being the error's message without its point.
    index keeps that batch index (None without one).
    """

    def __init__(self, field, error, points):
        self.index = getattr(error, "index", None)
        where = "" if self.index is None else f" at {point_label(points, self.index)}"
        super().__init__(f"{field}{where}: {getattr(error, 'reason', error)}")


@contextmanager
def _entry(field, points):
    """Raise a failure inside as a ScenarioError of field at points."""
    try:
        yield
    except (ValueError, EvaluationError) as exc:
        raise ScenarioError(field, exc, points) from exc


def _check_metric(jet):
    """A metric jet, checked to be finite and symmetric of signature
    (+,-,-,-); a failure carries its first failing batch index.  The
    symmetry test is relative to the metric's size at each point,
    1e-10 max(1, max|g|), so moving a valid large metric does not fail
    it by rounding."""
    gval = np.asarray(jet[0])
    check_points(~np.isfinite(gval).all(axis=(-2, -1)), None, "not finite", ValueError)
    size = np.maximum(1.0, np.max(np.abs(gval), axis=(-2, -1)))
    check_points(np.max(np.abs(gval - np.swapaxes(gval, -1, -2)), axis=(-2, -1)) > 1e-10 * size,
                 None, "not symmetric", ValueError)
    eigs = np.linalg.eigvalsh(gval)
    check_points((np.sum(eigs > 0, axis=-1) != 1) | (np.sum(eigs < 0, axis=-1) != 3), None,
                 "signature is not (+,-,-,-)", ValueError)
    return jet


def _check_torsion(t):
    """A torsion value, checked to be antisymmetric in its lower indices."""
    check_points(~(np.max(np.abs(t + np.swapaxes(t, -1, -2)), axis=(-3, -2, -1)) <= 1e-12),
                 None, "not antisymmetric", ValueError)
    return t


def _deform_tangent(entries, trans, points):
    """The frame, g and torsion entries seen from the frame a chiral
    transition deforms to, and its (S, T, Ss, Ts) jets, at points.

    The transition is evaluated once, its S and Ss checked like a
    frame; the frame becomes U S, checked to be non-singular; g is
    re-expressed with transform_components and the torsion (None stays
    None) with the transition's values alone, both then checked like
    the scenario's own.  A failure raises a ScenarioError.
    """
    with _entry("frame", points):
        trans_jets = trans.jets(points)
        frame = check_frame(einsum_jet("ij,jk->ik", entries["frame"], trans_jets[0]), points)
    g = transform_components(TensorSignature(n=2), entries["g"], trans_jets)
    torsion = entries["torsion"]
    if torsion is not None:
        values = tuple((value, None) for value, _ in trans_jets)
        torsion = transform_components(TensorSignature(m=1, n=2), (torsion, None), values)[0]
    with _entry("metric", points):
        _check_metric(g)
    if torsion is not None:
        with _entry("torsion", points):
            _check_torsion(torsion)
    return {"frame": frame, "g": g, "torsion": torsion}, trans_jets


def _with_tangent_connection(half, points):
    """The tangent half with "ginv", g^-1, checked as part of the metric
    entry, "lie", the frame derivatives of g ({"g": L(g)}, formed once
    here for every reader of the table), and "Gamma",
    metric_tangent_connection of the half."""
    g = half["g"][0]
    with _entry("metric", points):
        try:
            ginv = np.linalg.inv(g)
        except np.linalg.LinAlgError:
            # only now, find the first point where LAPACK cannot invert g
            singular = np.zeros(g.shape[:-2], dtype=bool)
            for index in np.ndindex(singular.shape):
                try:
                    np.linalg.inv(g[index])
                except np.linalg.LinAlgError:
                    singular[index] = True
                    break
            check_points(singular, None, "not invertible", ValueError)
            raise
    half = {**half, "ginv": ginv, "lie": {"g": along_frame(half["frame"][0], half["g"][1])}}
    return {**half, "Gamma": metric_tangent_connection(half, ginv)}


# table entries that are not jets: values, and "lie", a dict of them;
# the lowered symbols are the mode's, "G_lower" on a chiral table and
# "gamma_lower" on a Dirac one
BARE_ENTRIES = ("torsion", "ginv", "Gamma", "lie", "G_lower", "gamma_lower")


def _broadcast_table(table, ranks, batch):
    """The table's torsion and its jets named in ranks (attribute ->
    per-point rank of the value) as read-only views broadcast to batch,
    which ends with the table's own batch axes, those of its frame.  An
    array with no axes before its per-point ones (a canonical constant)
    is kept as it is."""
    own = table["frame"][0].ndim - 2

    def widen(array, rank):
        if array is None or array.ndim == rank:
            return array
        return np.broadcast_to(array, batch + array.shape[own:])

    out = {"torsion": widen(table["torsion"], 3)}
    for attr, rank in ranks.items():
        value, d = table[attr]
        out[attr] = widen(value, rank), widen(d, rank + 1)  # d: the partial axis first
    return out


class ChiralScenario:
    """Everything needed to build and test a chiral metric connection.

    points are the sample points, one read-only float64 (N, 4) array;
    frame (the MatrixField of the frame's expansion U, checked where
    tangent_jets reads it), g (the coordinate metric) and the optional
    torsion are the scenario's own fields.  Its structure data at a
    batch of points is one table, jets(points): the jets of the frame
    and of every STRUCTURE_FIELDS attribute (g among them as the frame
    components U^T g U) and the values of BARE_ENTRIES, each evaluated
    once.  Its tangent half (tangent_jets) holds nothing mode-specific,
    so a chiral and a Dirac scenario of the same fields can share it.
    Constructing a scenario evaluates nothing: the table is the only
    place its fields are evaluated and checked.

    STRUCTURE_FIELDS lists every field the metric connection annihilates
    as (check name, attribute, tensor type).  Besides g, each is its
    CANONICAL constant, except the symbol field named by SYMBOLS, which
    is derived from g.  transition (a chiral FrameTransition, None for
    an undeformed scenario) moves the table to the frame it deforms
    to; spinor_transition gives the spinor pair it moves this mode's
    spinor entries with.
    """

    STRUCTURE_FIELDS = (
        ("metric", "g", TensorSignature(n=2)),
        ("spin-metric", "d", TensorSignature(beta=2)),
        ("conjugate-spin-metric", "dbar", TensorSignature(gamma=2)),
        ("mixed-symbols", "G", TensorSignature(alpha=1, nu=1, n=1)),
    )
    CANONICAL = {"d": D_CHIRAL, "dbar": read_only(np.conj(D_CHIRAL))}
    SYMBOLS = ("G", G_UPPER)
    LIFT_INVARIANT = ()  # spinor entries every spinor_transition fixes exactly

    def __init__(self, points, frame: MatrixField, g: MatrixField, torsion=None,
                 transition=None):
        points = np.array(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 4:
            raise ValueError("sample points must be 4-vectors")
        points.flags.writeable = False
        self.points = points
        self.frame = frame
        self.g = g
        self.torsion = torsion
        self.transition = transition

    def tangent_jets(self, points):
        """The tangent half of the table at points.

        Maps "frame", "g" and "torsion" to the table's entries, moved by
        the transition, and "ginv" and "Gamma" to theirs, "factor" to
        the jet (L, dL) of the signed-Cholesky factor of the unmoved g,
        which the symbols derive from, and "transition" to the
        transition's (S, T, Ss, Ts) jets (None without one).  Each field
        is evaluated once and checked, in table order: the frame, the
        metric (U^T g U from the frame jet, then its factor), the torsion
        (None without one: exactly zero), the transition
        (_deform_tangent), then g^-1.  Within an entry its values come
        first, then its partials, then its checks; the first failure
        raises a ScenarioError naming the entry and its first failing
        point, even where a later one fails at an earlier point.
        """
        with _entry("frame", points):
            u = check_frame(self.frame.jet(points), points)
        with _entry("metric", points):
            g = _check_metric(einsum_jet("ai,ab,bj->ij", u, self.g.jet(points), u))
            factor = orthonormal_factor_jet(g)
        with _entry("torsion", points):
            torsion = None if self.torsion is None else _check_torsion(self.torsion(points))
        half, trans_jets = {"frame": u, "g": g, "torsion": torsion}, None
        if self.transition is not None:
            half, trans_jets = _deform_tangent(half, self.transition, points)
        half = _with_tangent_connection(half, points)
        return {**half, "factor": factor, "transition": trans_jets}

    def jets(self, points, tangent=None):
        """The structure data at points as one table of jets.

        Maps "frame" and every STRUCTURE_FIELDS attribute to a jet
        (value, d), d the coordinate partials or None where they are
        exactly zero (the CANONICAL entries, the coordinate frame, a
        constant metric), and each of BARE_ENTRIES to a value (the
        torsion None, exactly zero, without one; "lie" and the lowered
        symbols as _table forms them).  The frame, g, the torsion, g^-1
        and Gamma are the tangent half's, tangent_jets(points), which
        tangent holds where the caller has it (a run evaluates it once
        for both modes).  The symbols carry the half's factor of g on
        their tangent slot; they and the CANONICAL constants are moved
        by the transition's spinor_transition pair, except the
        LIFT_INVARIANT constants, which every such pair fixes exactly.
        A CANONICAL constant that is not moved is held as the read-only
        constant itself, (constant, None), with no batch axes: every
        other entry carries the batch of points.
        """
        if tangent is None:
            tangent = self.tangent_jets(points)
        symbols, canonical = self.SYMBOLS
        spinor = {symbols: symbol_jet(tangent["factor"], canonical)}
        spinor.update((attr, (value, None)) for attr, value in self.CANONICAL.items())
        if tangent["transition"] is not None:
            spinor = self._deform_spinor(spinor, tangent["transition"])
        return self._table(tangent, spinor)

    def deform_jets(self, table, trans, points):
        """The table as seen from the frame a chiral transition deforms
        to, and the transition's (S, T, Ss, Ts) jets, both at points.

        The frame, g and torsion move as in the tangent half
        (_deform_tangent), from one evaluation of the transition, then
        g^-1 and Gamma; every other entry but the LIFT_INVARIANT ones is
        re-expressed with transform_components by the spinor_transition
        pair.  A failure raises a ScenarioError.  points may carry leading
        axes before the table's batch (a stack of transitions at the
        table's points): the table is broadcast to them first, so that
        each entry of the stack is moved with the same operations as
        alone; a canonical constant, which has no batch axes, is kept
        as it is.
        """
        ranks = {"frame": 2, **{attr: sig.rank for _, attr, sig in self.STRUCTURE_FIELDS}}
        table = _broadcast_table(table, ranks, np.shape(points)[:-1])
        tangent, trans_jets = _deform_tangent(table, trans, points)
        tangent = _with_tangent_connection(tangent, points)
        spinor = {attr: table[attr] for _, attr, _ in self.STRUCTURE_FIELDS if attr != "g"}
        return self._table(tangent, self._deform_spinor(spinor, trans_jets)), trans_jets

    def _table(self, tangent, spinor):
        """A table in table order from its tangent half and spinor
        entries (complete_table)."""
        bare = {attr: tangent[attr] for attr in ("torsion", "ginv", "Gamma", "lie")}
        return self.complete_table({"frame": tangent["frame"], "g": tangent["g"], **spinor, **bare})

    def complete_table(self, table):
        """The table with the entries derived from its spinor jets
        formed again: "lie", which maps g and every spinor entry to its
        frame derivatives (along_frame; None for a constant), and this
        mode's lowered symbols (lowered_symbols).  Every table a
        scenario gives holds them, formed once for the builder and the
        concordance verifier, which read them as held: a caller that
        replaces a spinor entry of a table passes the result here.  L(g),
        like g^-1 and Gamma, is the tangent half's ("lie" holds it
        alone there): a new frame, g or torsion needs a new tangent
        half."""
        u = table["frame"][0]
        spinor = [attr for _, attr, _ in self.STRUCTURE_FIELDS if attr != "g"]
        lie = {"g": table["lie"]["g"], **{attr: along_frame(u, table[attr][1]) for attr in spinor}}
        table = {**table, "lie": lie}
        return {**table, **self.lowered_symbols(table)}

    def lowered_symbols(self, table):
        """{"G_lower": the both-lower mixed symbols of the table}
        (compute_g_lower_symbols), read by the builder and by
        concordance_extras."""
        return {"G_lower": compute_g_lower_symbols(table["G"][0], table["ginv"],
                                                   table["d"][0], table["dbar"][0])}

    def spinor_transition(self, trans_jets):
        """The (S, T, Ss, Ts) jets this mode's spinor entries move with,
        from a chiral transition's: for the chiral bundle, its own."""
        return trans_jets

    def _deform_spinor(self, entries, trans_jets):
        """Spinor entries re-expressed with transform_components by the
        spinor_transition pair of a chiral transition's jets; the
        LIFT_INVARIANT entries are kept as they are."""
        spin_jets = self.spinor_transition(trans_jets)
        signature = {attr: sig for _, attr, sig in self.STRUCTURE_FIELDS}
        return {attr: jet if attr in self.LIFT_INVARIANT
                else transform_components(signature[attr], jet, spin_jets)
                for attr, jet in entries.items()}

    def concordance_extras(self, jets, grads):
        """sum g^{qp} nabla_r g_{qp} and sum G nabla g G + (i<->j) at every
        point, from the table and the fields' covariant derivatives."""
        dg = grads["g"]  # [..., q, p, r]
        ginv, gl = jets["ginv"], jets["G_lower"]
        # the (i<->j) term is the first with its free i and j swapped
        sandwich = einsum("aix,abr,bjy->ixjyr", gl, dg, gl)
        return {
            "metric-trace": einsum("qp,qpr->r", ginv, dg),
            "symbol-sandwich": sandwich + np.swapaxes(sandwich, -5, -3),
        }


@dataclass(frozen=True)
class SpinorConnection:
    """Connection coefficient arrays at one point or a batch of points.

    Gamma[..., i, k, j] is the tangent coefficient with derivative
    direction i, upper index k and lower index j; A[..., r, i, j] /
    Abar[..., r, i, j] are the spinor and conjugate-spinor coefficient
    matrices per direction, 2x2 on the chiral bundle and 4x4 on the
    Dirac bundle (spinor_dim).  The leading axes are the batch axes of
    the points, the same for all three arrays.  Gamma is float64, A and
    Abar complex.
    """

    Gamma: np.ndarray
    A: np.ndarray
    Abar: np.ndarray

    def __post_init__(self):
        batch = np.shape(self.Gamma)[:-3]
        n = np.shape(self.A)[-1] if np.ndim(self.A) else 0
        if n not in (2, 4):
            raise ValueError("A must hold 2x2 or 4x4 matrices")
        for name, shape in (("Gamma", (4, 4, 4)), ("A", (4, n, n)), ("Abar", (4, n, n))):
            arr = np.array(getattr(self, name), dtype=float if name == "Gamma" else complex)
            if arr.shape != batch + shape:
                raise ValueError(f"{name} must have shape {shape} after the batch axes {batch}")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def spinor_dim(self):
        return self.A.shape[-1]


def metric_tangent_connection(jets, ginv) -> np.ndarray:
    """Tangent coefficients Gamma[..., i, k, j] of the metric connection.

    Gamma^k_ij = sum_r g^{kr}/2 (L_i g_jr + L_j g_ri - L_r g_ij)
               + c^k_ij/2
               - sum_rs g^{kr} (c^s_ir/2) g_sj - sum_rs g^{kr} (c^s_jr/2) g_si
               + T^k_ij/2
               - sum_rs g^{kr} (T^s_ir/2) g_sj - sum_rs g^{kr} (T^s_jr/2) g_si
    with c the structural constants of the frame, T the torsion and
    ginv g^-1, the frame, g, L(g) ("lie") and T read from a tangent
    half.  The L(g) terms drop out for a constant metric and the T
    terms for a torsion of None.  A tangent half holds the result as
    its "Gamma" entry.
    """
    g = jets["g"][0]
    lg = jets["lie"]["g"]  # lg[..., r, a, b] = L_r(g)_{ab}
    c = structural_constants(jets["frame"])
    t = jets["torsion"]

    if lg is None:
        gamma = np.zeros(g.shape[:-2] + (4, 4, 4))
    else:
        gamma = 0.5 * (
            einsum("kr,ijr->ikj", ginv, lg)
            + einsum("kr,jri->ikj", ginv, lg)
            - einsum("kr,rij->ikj", ginv, lg)
        )
    # c enters with the bracket order [frame_i, frame_j]; the sign is
    # pinned by torsion-freeness asym(Gamma) = c, not by metric
    # compatibility (the c-part is g-antisymmetric on its own).
    # each (i<->j) term is the one before it with its free i and j swapped
    gamma += 0.5 * einsum("kij->ikj", c)
    term = einsum("kr,sir,sj->ikj", ginv, c, g)
    gamma -= 0.5 * term
    gamma -= 0.5 * np.swapaxes(term, -3, -1)
    if t is not None:
        gamma += 0.5 * einsum("kij->ikj", t)
        term = einsum("kr,sir,sj->ikj", ginv, t, g)
        gamma -= 0.5 * term
        gamma -= 0.5 * np.swapaxes(term, -3, -1)
    return gamma


def build_chiral_metric_connection(jets, points) -> SpinorConnection:
    """The unique connection annihilating g, d, dbar and G at every point.

    jets is a chiral scenario's table at points, whose "Gamma" are the
    tangent coefficients, "G_lower" the lowered symbols and "lie" the
    frame derivatives L, read as held (a table whose spinor entries were
    replaced needs ChiralScenario.complete_table first).  The spinor
    coefficients come from contracting them with the mixed symbols:

    A^i_rj    = 1/4 sum G^{i sbar}_p Gamma^p_rq G^q_{j sbar}
              - 1/4 sum L_r(G^{i sbar}_q) G^q_{j sbar}
              - 1/4 (sum L_r(dbar_{jbar ibar}) dbar^{ibar jbar}) delta^i_j
    Abar^ibar_r jbar mirrors this with the barred slot of G and the
    unbarred spin-metric trace.  A term whose field is constant (its
    L None) drops out.  For real metric data Abar = conj(A), checked at
    every point to 1e-9 relative to 1 + max|A|.
    """
    gamma, gl = jets["Gamma"], jets["G_lower"]
    gu, d, db = (jets[attr][0] for attr in ("G", "d", "dbar"))
    lgu, ld, ldb = (jets["lie"][attr] for attr in ("G", "d", "dbar"))

    eye = np.eye(2)
    a = 0.25 * einsum("ibp,rpq,qjb->rij", gu, gamma, gl)
    abar = 0.25 * einsum("sip,rpq,qsj->rij", gu, gamma, gl)
    if lgu is not None:
        a -= 0.25 * einsum("ribq,qjb->rij", lgu, gl)
        abar -= 0.25 * einsum("rsiq,qsj->rij", lgu, gl)
    if ldb is not None:
        a -= 0.25 * einsum("rji,ij,ab->rab", ldb, np.linalg.inv(db), eye)
    if ld is not None:
        abar -= 0.25 * einsum("rji,ij,ab->rab", ld, np.linalg.inv(d), eye)

    scale = 1.0 + np.max(np.abs(a), axis=(-3, -2, -1))
    unreal = np.max(np.abs(abar - np.conj(a)), axis=(-3, -2, -1)) > 1e-9 * scale
    check_points(unreal, points, "Abar is not the conjugate of A")
    return SpinorConnection(gamma, a, abar)


def covariant_components(sig: TensorSignature, value, lie, conn: SpinorConnection):
    """Components of the covariant derivative, direction last, from a
    field's value and its derivatives lie[..., r, :] along the frame
    vectors; one contraction per slot over every direction and point.
    For a constant field (lie None) the connection terms alone."""
    if sig.spinor_dim != conn.spinor_dim:
        raise ValueError("field and connection spinor dimensions differ")
    out = None if lie is None else np.moveaxis(np.asarray(lie), -sig.rank - 1, -1)
    coeff = {SPINOR: conn.A, BARRED: conn.Abar, TANGENT: conn.Gamma}
    old = string.ascii_lowercase[: sig.rank]  # slot letters, all before "r"
    for axis, (family, up) in enumerate(sig.slots):
        new = old[:axis] + "z" + old[axis + 1:]
        # up: + sum_a M[r, z, a] x[..a..]; down: - sum_a x[..a..] M[r, a, z]
        mat = "r" + ("z" + old[axis] if up else old[axis] + "z")
        term = einsum(f"{mat},{old}->{new}r", coeff[family], value)
        if out is None:
            out = term if up else -term
        else:
            out = out + term if up else out - term
    return np.zeros(np.shape(value) + (4,), dtype=np.result_type(value)) if out is None else out


def verify_concordance(build, scenario: ChiralScenario, points=None) -> dict:
    """Residual report for the concordance conditions of a scenario at
    points (scenario.points, the sample points, by default): the
    scenario's table, evaluated once, build(jets, points) from that
    same table, then concordance_residuals."""
    points = scenario.points if points is None else np.asarray(points, dtype=float)
    jets = scenario.jets(points)
    conn = build(jets, points)
    return concordance_residuals(scenario, jets, conn, tangent_concordance(jets, conn))


def tangent_concordance(jets, conn: SpinorConnection):
    """nabla g of a table and a connection built from it: the tangent
    part of concordance.  It reads only the tangent half and Gamma, so
    the chiral and Dirac connections of one tangent half give it alike,
    and a run computes it once for both."""
    sig = TensorSignature(n=2, spinor_dim=conn.spinor_dim)
    return covariant_components(sig, jets["g"][0], jets["lie"]["g"], conn)


def concordance_residuals(scenario: ChiralScenario, jets, conn: SpinorConnection,
                          nabla_g) -> dict:
    """The concordance residuals of a connection built from the table.

    Each row of the scenario's STRUCTURE_FIELDS gives nabla-<check>, the
    max absolute covariant derivative of that field over all points of
    the table; the scenario's concordance_extras add its mode's other
    conditions.  nabla_g is tangent_concordance of the table and the
    connection.  A non-finite residual anywhere makes the reported
    maximum non-finite.
    """
    out, grads = {}, {"g": nabla_g}
    for check, attr, sig in scenario.STRUCTURE_FIELDS:
        if attr not in grads:
            grads[attr] = covariant_components(sig, jets[attr][0], jets["lie"][attr], conn)
        out[f"nabla-{check}"] = worst_residual(0.0, grads[attr])
    for check, residual in scenario.concordance_extras(jets, grads).items():
        out[check] = worst_residual(0.0, residual)
    return out


def worst_residual(running, residual):
    """Running maximum of |residual| that keeps a NaN once one is seen."""
    return float(np.max(np.abs(residual), initial=running))


def transform_connection(conn: SpinorConnection, jets, thetas) -> SpinorConnection:
    """Map a tilde-frame connection to the untilde frame.

    jets are the transition's (S, T, Ss, Ts) jets at the connection's
    points and thetas its (theta, vartheta) pair (theta_parameters).
    Gamma^k_ij = sum S^k_a T^b_j T^c_i tilde-Gamma^a_cb + theta^k_ij,
    with the spinor transitions and vartheta for A and their conjugates
    for Abar.  theta must be computed with Lie derivatives along the
    untilde frame.
    """
    s, t, ss, ts = (value for value, _ in jets)
    theta, vartheta = thetas
    gamma = einsum("ka,bj,ci,cab->ikj", s, t, t, conn.Gamma) + theta
    a = einsum("ka,bj,ci,cab->ikj", ss, ts, t, conn.A) + vartheta
    abar = (einsum("ka,bj,ci,cab->ikj", np.conj(ss), np.conj(ts), t, conn.Abar)
            + np.conj(vartheta))
    return SpinorConnection(gamma, a, abar)
