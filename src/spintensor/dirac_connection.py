"""Metric connection construction on the Dirac bundle.

The chirality operator H, the same constant on every Dirac table,
yields two constant projectors whose splits of the gamma-symbols and
of the spin-metric drive the explicit formula for the spinor
coefficients A.  Two independent routes are implemented: the
four-block assembly and the simplified single formula; tests hold them
against each other.  Restriction to the chiral sub-bundle recovers the
2x2 connection of the chiral builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chiral import ChiralScenario, SpinorConnection
from .dirac import DD_DIRAC, D_DIRAC, GAMMA, H_DIRAC, DiracConstants
from .frames import (
    add_terms,
    along_frame,
    check_points,
    einsum,
    einsum_jet,
    inverse_jet,
)
from .tensor_core import TensorSignature


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
    from the value of H, which every Dirac table holds constant, and the
    jets of gamma and the spin-metric and its inverse.  The projectors
    are constant (d None); each split array has d None where every jet
    it is made from does."""
    eye = np.eye(4, dtype=complex)
    bh = (0.5 * (eye + h), None)
    ch = (0.5 * (eye - h), None)
    return (
        bh,
        ch,
        einsum_jet("ar,sb,rsm->abm", bh, ch, gamma),
        einsum_jet("ar,sb,rsm->abm", ch, bh, gamma),
        einsum_jet("rb,rs,sh->bh", bh, d_lower, bh),
        einsum_jet("rb,rs,sh->bh", ch, d_lower, ch),
        einsum_jet("ar,rs,es->ae", bh, d_upper, bh),
        einsum_jet("ar,rs,es->ae", ch, d_upper, ch),
    )


def chirality_split(constants: DiracConstants) -> ChiralitySplit:
    """Build and verify the projector split of one frame's constants.

    Verifies projector algebra, the vanishing of the same-chirality
    gamma pieces, reconstruction of gamma from the two cross pieces, and
    the metric-contraction identities relating split gammas to the split
    spin-metrics and to the projectors.  All checks are exact (residual
    0) on canonical constants.
    """
    jets = _split_arrays(
        constants.H, *((arr, None) for arr in (constants.gamma, constants.d_lower, constants.d_upper))
    )
    bh, ch, bc, cb, bd_low, cd_low, bd_up, cd_up = (value for value, _ in jets)
    eye = np.eye(4, dtype=complex)
    ginv = constants.g_upper.astype(complex)

    def check(name, lhs, rhs=None):
        diff = lhs if rhs is None else lhs - rhs
        if np.any(diff):
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
    field (derived from g like the chiral mixed symbols), H the
    chirality operator field and D the Hermitian pairing field;
    canonical constants, deformed only through a frame transition.  Its
    transition is chiral, like a chiral scenario's, so both share one
    tangent half; its table lifts the transition's spinor part
    (spinor_transition).  The lift fixes H and D exactly, so every
    Dirac table, moved or not, is canonically chiral: it holds them as
    their CANONICAL constants (LIFT_INVARIANT, d None).
    """

    STRUCTURE_FIELDS = (
        ("metric", "g", TensorSignature(n=2, spinor_dim=4)),
        ("spin-metric", "d", TensorSignature(beta=2, spinor_dim=4)),
        ("conjugate-spin-metric", "dbar", TensorSignature(gamma=2, spinor_dim=4)),
        ("gamma-symbols", "gamma", TensorSignature(alpha=1, beta=1, n=1, spinor_dim=4)),
        ("chirality", "H", TensorSignature(alpha=1, beta=1, spinor_dim=4)),
        ("pairing", "D", TensorSignature(beta=1, gamma=1, spinor_dim=4)),
    )
    CANONICAL = {"d": D_DIRAC, "dbar": np.conj(D_DIRAC), "H": H_DIRAC, "D": DD_DIRAC}
    SYMBOLS = ("gamma", GAMMA)
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


def _dual_blocks_jet(top, dual):
    """Jet of blockdiag(top, dual^dagger) from the jets of a transition
    pair's 2x2 matrices (partials both None or both arrays): the barred
    dual co-frame moves with the conjugate inverse transpose of top."""

    def place(a, b):
        out = np.zeros(a.shape[:-2] + (4, 4), dtype=complex)
        out[..., :2, :2] = a
        out[..., 2:, 2:] = np.conj(np.swapaxes(b, -1, -2))
        return out

    (a, da), (b, db) = top, dual
    return place(a, b), None if da is None else place(da, db)


def build_dirac_metric_connection(jets, points, method="simplified") -> SpinorConnection:
    """The unique metric connection of a Dirac scenario at every point.

    jets is a Dirac scenario's table at points; points only completes
    the builders' shared signature, as no check here names a point.
    The tangent coefficients are the table's "Gamma", as in the chiral
    builder.  The spinor coefficients are computed either from the
    simplified closed formula ("simplified") or by assembling the four
    chirality blocks ("blocks"); the two routes agree identically and
    are kept separate as mutual cross-checks.  In both, a term with the
    frame derivative of a constant split array (its L None) drops out:
    the projectors of the table's constant H always, so the blocks
    route has no cross-chirality blocks.  Abar is the conjugate of A.
    """
    if method not in ("simplified", "blocks"):
        raise ValueError("method must be 'simplified' or 'blocks'")
    ginv, gamma_t = jets["ginv"].astype(complex), jets["Gamma"]

    d_jet = jets["d"]
    split = _split_arrays(jets["H"][0], jets["gamma"], d_jet, inverse_jet(d_jet))
    u = jets["frame"][0]
    bh, ch, bc, cb, _, _, bd_up, cd_up = (value for value, _ in split)
    lie = {name: along_frame(u, d) for name, (_, d) in zip(SPLIT_NAMES, split)}

    def lie_term(subscripts, *operands):
        # None, exactly zero, when an operand is a constant's L (None)
        if any(op is None for op in operands):
            return None
        return einsum(subscripts, *operands)

    def lie_sum(*terms):
        # the Lie terms that do not drop out, summed in order; 0.0 if none
        total = add_terms(*terms)
        return 0.0 if total is None else total

    def trace_times(lie_d, d_up, projector):
        # (sum_ab L_k(d)_{ab} d^{ba}) P_ij
        trace = lie_term("kab,ba->k", lie_d, d_up)
        return None if trace is None else trace[..., None, None] * projector[..., None, :, :]

    # 0.25 (x + y - z) is 0.25 x + 0.25 y - 0.25 z to the last bit:
    # scaling by a power of two is exact.
    if method == "blocks":
        # same-chirality blocks
        cc_a = 0.25 * (
            lie_sum(lie_term("kabm,mn,ian,bj->kij", lie["bc"], ginv, cb, ch),
                    trace_times(lie["bd_low"], bd_up, ch))
            - einsum("krm,qjr,mn,iqn->kij", gamma_t, bc, ginv, cb)
        )
        bb_a = 0.25 * (
            lie_sum(lie_term("kabm,mn,ian,bj->kij", lie["cb"], ginv, bc, bh),
                    trace_times(lie["cd_low"], cd_up, bh))
            - einsum("krm,qjr,mn,iqn->kij", gamma_t, cb, ginv, bc)
        )
        # the cross blocks hold projector derivatives only: zero for
        # the constant H of every Dirac table
        a = cc_a + bb_a
    else:
        a = 0.25 * (
            lie_sum(
                add_terms(trace_times(lie["bd_low"], bd_up, ch),
                          trace_times(lie["cd_low"], cd_up, bh)),
                add_terms(lie_term("kajm,mn,ian->kij", lie["bc"], ginv, cb),
                          lie_term("kajm,mn,ian->kij", lie["cb"], ginv, bc)),
            )
            - (einsum("krm,ajr,mn,ian->kij", gamma_t, bc, ginv, cb)
               + einsum("krm,ajr,mn,ian->kij", gamma_t, cb, ginv, bc))
        )
    return SpinorConnection(gamma_t, a, np.conj(a), spinor_dim=4)


RESTRICTION_TOL = 1e-9  # both block checks of restrict_to_chiral


def restrict_to_chiral(dirac_conn: SpinorConnection, points=None) -> SpinorConnection:
    """Restrict a Dirac connection to its chiral sub-bundle.

    Valid in a canonically orthonormal chiral frame, where the spinor
    coefficients are block-diagonal: the top-left 2x2 block acts on the
    chiral frame vectors and the bottom-right block acts on the barred
    dual co-frame, forcing it to be minus the conjugate transpose of the
    chiral block.  Gamma passes through unchanged.  Both block checks
    hold at every point to RESTRICTION_TOL; with points, the batch of
    points the connection was built at, a failure names the first
    failing point.
    """
    if dirac_conn.spinor_dim != 4:
        raise ValueError("expected a Dirac connection")
    a = dirac_conn.A
    axes = (-3, -2, -1)
    off = np.maximum(
        np.max(np.abs(a[..., :2, 2:]), axis=axes), np.max(np.abs(a[..., 2:, :2]), axis=axes)
    )
    check_points(off > RESTRICTION_TOL, points, f"connection not block-diagonal in chiral frame "
                 f"(off-block {np.max(off):.3e})")
    chiral_a = a[..., :2, :2]
    dual_block = a[..., 2:, 2:]
    expected = -np.swapaxes(np.conj(chiral_a), -1, -2)
    check_points(np.max(np.abs(dual_block - expected), axis=axes) > RESTRICTION_TOL, points,
                 "dual co-frame block does not pair with the chiral block")
    return SpinorConnection(
        dirac_conn.Gamma, chiral_a, np.conj(chiral_a), spinor_dim=2
    )
