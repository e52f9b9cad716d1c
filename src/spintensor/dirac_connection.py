"""Metric connection construction on the Dirac bundle.

Every Dirac table holds the chirality operator H as the constant
H_DIRAC = diag(1, 1, -1, -1), so the chiral sub-bundle and its
conjugate are the coordinate blocks 0:2 and 2:4 (CHIRAL, DUAL), and
the gamma-symbols vanish on the same-chirality blocks.  The explicit
formula for the spinor coefficients A reads the table's gamma and
spin-metric on those blocks.  Two independent routes are implemented:
the simplified single formula, which contracts the full gamma, and the
block assembly, which contracts gamma's two cross blocks; they agree
to rounding and tests hold them against each other.  Restriction to
the chiral sub-bundle recovers the 2x2 connection of the chiral
builder.  The projector split of a Dirac table (chirality_split) is
one more residual suite of the Dirac structure, exactly zero on the
canonical table.
"""

from __future__ import annotations

import functools

import numpy as np

from . import dirac
from .chiral import ChiralScenario, SpinorConnection, suite_values, table_residual
from .dirac import H_DIRAC
from .frames import check_points, einsum

# the +1 and -1 eigenspaces of H_DIRAC: the chiral frame and the barred
# dual co-frame
CHIRAL, DUAL = slice(0, 2), slice(2, 4)


def chirality_split(table) -> dict:
    """Residuals of the projector split of a Dirac table of values (g,
    d, dbar, gamma, H, D), one frame or a stack along leading batch axes
    (suite_values).

    The projectors are formed from the table's H, whichever frame it is
    (P, T and PT frames included), with d^-1 and g^-1 derived.  Checks
    the projector algebra, the vanishing of the same-chirality gamma
    pieces, reconstruction of gamma from the two cross pieces, the
    split spin-metrics' antisymmetry and rank (|rank - 2|), and the
    metric-contraction identities relating split gammas to the split
    spin-metrics and to the projectors.  Each residual is exactly 0 on
    the canonical table.
    """
    values, batch = suite_values(table, dirac.STRUCTURE_FIELDS)
    h, d, gm, g = (values[attr] for attr in ("H", "d", "gamma", "g"))
    du, ginv = np.linalg.inv(d), np.linalg.inv(g)
    residual = functools.partial(table_residual, batch)
    eye = np.eye(4)
    bh, ch = 0.5 * (eye + h), 0.5 * (eye - h)

    def split(left, right):
        return einsum("ar,sb,rsm->abm", left, right, gm)

    bc, cb = split(bh, ch), split(ch, bh)
    bd_low, cd_low = (einsum("rb,rs,sh->bh", p, d, p) for p in (bh, ch))
    bd_up, cd_up = (einsum("ar,rs,es->ae", p, du, p) for p in (bh, ch))
    out = {
        "projector-sum": residual(bh + ch, eye),
        "projector-product": residual(bh @ ch),
        "projector-idempotence": residual(bh @ bh, bh),
        "projector-idempotence-circ": residual(ch @ ch, ch),
        "same-chirality-gamma-vanishing": residual(split(bh, bh)),
        "same-chirality-gamma-vanishing-circ": residual(split(ch, ch)),
        "gamma-reconstruction": residual(bc + cb, gm),
    }
    # split spin-metrics are antisymmetric, rank two; a non-finite one
    # (whose SVD does not converge) has a NaN rank residual
    for name, arr in (("b", bd_low), ("c", cd_low)):
        out[f"split-spin-metric-antisymmetry-{name}"] = residual(arr, -np.swapaxes(arr, -1, -2))
        finite = np.isfinite(arr).all(axis=(-2, -1))
        rank = np.linalg.matrix_rank(np.where(finite[..., None, None], arr, 0.0))
        out[f"split-spin-metric-rank-{name}"] = np.where(finite, np.abs(rank - 2.0), np.nan)[()]
    # sum_mn bc^a_{bm} g^{mn} bc^e_{hn} = 2 bd^{ae} cd_{bh}, and mirror
    out["split-gamma-metric-bb"] = residual(
        einsum("abm,mn,ehn->abeh", bc, ginv, bc), 2.0 * einsum("ae,bh->abeh", bd_up, cd_low)
    )
    out["split-gamma-metric-cc"] = residual(
        einsum("abm,mn,ehn->abeh", cb, ginv, cb), 2.0 * einsum("ae,bh->abeh", cd_up, bd_low)
    )
    # sum_mn bc^a_{bm} g^{mn} cb^e_{hn} = 2 bH^a_h cH^e_b, and mirror
    out["split-gamma-projector-bc"] = residual(
        einsum("abm,mn,ehn->abeh", bc, ginv, cb), 2.0 * einsum("ah,eb->abeh", bh, ch)
    )
    out["split-gamma-projector-cb"] = residual(
        einsum("abm,mn,ehn->abeh", cb, ginv, bc), 2.0 * einsum("ah,eb->abeh", ch, bh)
    )
    # contracted forms: sum_a bc^a_{bm} g^{mn} cb^i_{an} = 4 cH^i_b, mirror
    out["split-gamma-contracted-bc"] = residual(einsum("abm,mn,ian->ib", bc, ginv, cb), 4.0 * ch)
    out["split-gamma-contracted-cb"] = residual(einsum("abm,mn,ian->ib", cb, ginv, bc), 4.0 * bh)
    return out


class DiracScenario(ChiralScenario):
    """Scenario with 4-component spinor structure fields.

    d is the 4x4 Dirac spin-metric field, gamma the [a, b, m] symbol
    field (derived from g like the chiral mixed symbols), H the
    chirality operator field and D the Hermitian pairing field;
    canonical constants, deformed only through a frame transition.  Its
    transition is chiral, like a chiral scenario's, so both share one
    tangent half; its table lifts the transition's spinor part
    (spinor_transition).  The lift fixes H and D exactly, so every
    Dirac table, moved or not, is canonically chiral: it holds them as
    their CANONICAL constants themselves (LIFT_INVARIANT, d None, no
    batch axes).  Its
    STRUCTURE_FIELDS, CANONICAL and SYMBOLS are the dirac module's, the
    ones the canonical table (canonical_dirac_constants) is made of.
    """

    STRUCTURE_FIELDS = dirac.STRUCTURE_FIELDS
    CANONICAL = dirac.CANONICAL
    SYMBOLS = dirac.SYMBOLS
    LIFT_INVARIANT = ("H", "D")

    def spinor_transition(self, trans_jets):
        """The Dirac lift of a chiral transition's held (S, T, Ss, Ts)
        jets: S and T as they are, the spinor matrix
        blockdiag(Ss, Ts^dagger) and its inverse blockdiag(Ts,
        Ss^dagger), read off the held pair with no inversion and no
        check: FrameTransition.jets checked Ss and inverted it, and the
        block's |det| is 1.  This is the only Dirac lift of a
        transition: a Dirac table moves its spinor entries with it."""
        s, t, ss, ts = trans_jets
        return s, t, _dual_blocks_jet(ss, ts), _dual_blocks_jet(ts, ss)

    def concordance_extras(self, jets, grads):
        """H nabla H + nabla H H at every point."""
        h, dh = jets["H"][0], grads["H"]  # dh[..., a, b, r]
        return {
            "chirality-involution-derivative":
            einsum("ab,bcr->acr", h, dh) + einsum("abr,bc->acr", dh, h)
        }

    def lowered_symbols(self, table):
        """No lowered symbols: the Dirac builder and concordance_extras
        read the table's gamma as it is."""
        return {}


def _dual_blocks_jet(top, dual):
    """Jet of blockdiag(top, dual^dagger) from the jets of a transition
    pair's 2x2 matrices (partials both None or both arrays): the barred
    dual co-frame moves with the conjugate inverse transpose of top."""

    def place(a, b):
        out = np.zeros(a.shape[:-2] + (4, 4), dtype=complex)
        out[..., CHIRAL, CHIRAL] = a
        out[..., DUAL, DUAL] = np.conj(np.swapaxes(b, -1, -2))
        return out

    (a, da), (b, db) = top, dual
    return place(a, b), None if da is None else place(da, db)


def build_dirac_metric_connection(jets, points, method="simplified") -> SpinorConnection:
    """The unique metric connection of a Dirac scenario at every point.

    jets is a Dirac scenario's table at points; points only completes
    the builders' shared signature, as no check here names a point.
    The table's H must be the constant H_DIRAC, d None, as every Dirac
    table holds it (DiracScenario.LIFT_INVARIANT); any other H raises
    ValueError.  The tangent coefficients are the table's "Gamma", as
    in the chiral builder, and its "lie" the frame derivatives L, read
    as held (ChiralScenario.complete_table).  The spinor coefficients
    are computed either
    from the simplified closed formula over the full gamma
    ("simplified") or by assembling A's two diagonal 2x2 blocks from
    gamma's cross blocks ("blocks"); the off-chirality blocks of A are
    exact zeros in both.  The routes contract gamma independently and
    agree to rounding, so they are kept as mutual cross-checks.  A term
    with the frame derivative of a constant entry (its L None) drops
    out.  Abar is the conjugate of A.
    """
    if method not in ("simplified", "blocks"):
        raise ValueError("method must be 'simplified' or 'blocks'")
    h, dh = jets["H"]
    if dh is not None or not np.all(h == H_DIRAC):
        raise ValueError("the Dirac builder needs the table's H to be the constant H_DIRAC")
    ginv, gamma_t = jets["ginv"], jets["Gamma"]
    gamma, l_gamma, l_d = jets["gamma"][0], jets["lie"]["gamma"], jets["lie"]["d"]
    d_inv = None if l_d is None else np.linalg.inv(jets["d"][0])

    def trace(block):
        # sum_ab L_k(d)_{ab} d^{ba} over one chirality block
        return einsum("kab,ba->k", l_d[..., block, block], d_inv[..., block, block])

    if method == "blocks":
        a = np.zeros(gamma_t.shape[:-2] + (4, 4), dtype=complex)  # [..., k, i, j]
        for own, other in ((CHIRAL, DUAL), (DUAL, CHIRAL)):
            # A on the own block reads gamma's (other, own) and (own,
            # other) blocks and the spin-metric's other block
            cross, back = gamma[..., other, own, :], gamma[..., own, other, :]
            lie = 0.0
            if l_gamma is not None:
                lie = einsum("kajm,mn,ian->kij", l_gamma[..., other, own, :], ginv, back)
            if l_d is not None:
                lie = lie + trace(other)[..., None, None] * np.eye(2)
            a[..., own, own] = 0.25 * (
                lie - einsum("krm,ajr,mn,ian->kij", gamma_t, cross, ginv, back)
            )
    else:
        # gamma's same-chirality blocks are exact zeros, so each
        # contraction of the full gamma is the sum over both cross blocks
        lie = 0.0
        if l_gamma is not None:
            lie = einsum("kajm,mn,ian->kij", l_gamma, ginv, gamma)
        if l_d is not None:
            # each block's trace on the other block's diagonal
            diagonal = np.zeros(l_d.shape[:-1], dtype=complex)
            diagonal[..., CHIRAL] = trace(DUAL)[..., None]
            diagonal[..., DUAL] = trace(CHIRAL)[..., None]
            lie = lie + diagonal[..., None] * np.eye(4)
        a = 0.25 * (lie - einsum("krm,ajr,mn,ian->kij", gamma_t, gamma, ginv, gamma))
    return SpinorConnection(gamma_t, a, np.conj(a))


RESTRICTION_TOL = 1e-9  # both block checks of restrict_to_chiral


def restrict_to_chiral(dirac_conn: SpinorConnection, points=None) -> SpinorConnection:
    """Restrict a Dirac connection to its chiral sub-bundle.

    Valid in a canonically orthonormal chiral frame, where the spinor
    coefficients are block-diagonal: the CHIRAL block acts on the
    chiral frame vectors and the DUAL block acts on the barred dual
    co-frame, forcing it to be minus the conjugate transpose of the
    chiral block.  Gamma passes through unchanged.  Both block checks
    hold at every point to RESTRICTION_TOL, and fail on a non-finite
    entry; with points, the batch of points the connection was built
    at, a failure names the first failing point.
    """
    if dirac_conn.spinor_dim != 4:
        raise ValueError("expected a Dirac connection")
    a = dirac_conn.A
    axes = (-3, -2, -1)
    off = np.maximum(np.max(np.abs(a[..., CHIRAL, DUAL]), axis=axes),
                     np.max(np.abs(a[..., DUAL, CHIRAL]), axis=axes))
    # written so that a NaN fails: it compares False with anything
    check_points(~(off <= RESTRICTION_TOL), points,
                 f"connection not block-diagonal in chiral frame (off-block {np.max(off):.3e})")
    chiral_a = a[..., CHIRAL, CHIRAL]
    expected = -np.swapaxes(np.conj(chiral_a), -1, -2)
    pairing = np.max(np.abs(a[..., DUAL, DUAL] - expected), axis=axes)
    check_points(~(pairing <= RESTRICTION_TOL), points,
                 "dual co-frame block does not pair with the chiral block")
    return SpinorConnection(dirac_conn.Gamma, chiral_a, np.conj(chiral_a))
