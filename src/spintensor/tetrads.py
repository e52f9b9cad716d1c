"""Orthonormal factorization of frame metrics.

A frame metric g of signature (+,-,-,-) factors as g = L eta L^T with L
lower triangular and positive diagonal (a signed Cholesky).  The
columns of L^{-T} are an orthonormal tetrad expanded in the frame, and
L^T is the tangent transition from that tetrad back to the frame.  The
spinor structure fields of a scenario in a non-orthonormal frame are
the canonical tables contracted with this factor on their tangent
slots, which is what keeps the structure identities tied to g.
"""

from __future__ import annotations

import numpy as np

from .frames import check_points, einsum_jet

SIGNS = (1.0, -1.0, -1.0, -1.0)


@np.errstate(all="ignore")  # a negative square or an overflow fails the check below
def signed_cholesky(g):
    """Lower-triangular L with positive diagonal and g = L eta L^T.

    g may carry leading batch axes; every point must admit a finite
    factor, else a ValueError carries the batch index of the first that
    does not.
    """
    g = np.asarray(g, dtype=float)
    n = g.shape[-1]
    lower = np.zeros(g.shape)
    for j in range(n):
        acc = g[..., j, j]
        for k in range(j):
            acc = acc - SIGNS[k] * lower[..., j, k] ** 2
        lower[..., j, j] = np.sqrt(SIGNS[j] * acc)
        for i in range(j + 1, n):
            acc = g[..., i, j]
            for k in range(j):
                acc = acc - SIGNS[k] * lower[..., i, k] * lower[..., j, k]
            lower[..., i, j] = SIGNS[j] * acc / lower[..., j, j]
    admits = np.isfinite(lower).all(axis=(-2, -1)) & (np.diagonal(lower, 0, -2, -1) > 0).all(-1)
    check_points(~admits, None, "metric does not admit a time-first orthonormal factor",
                 ValueError)
    return lower


def signed_cholesky_partial(lower, dg):
    """Derivative of L from the derivative of g at fixed factorization.

    With X = L^-1 dL (lower triangular) and M = L^-1 dg L^-T, the
    factorization differential reads X eta + eta X^T = M, which solves
    entrywise: X[i,j] = s_j M[i,j] below the diagonal and
    X[i,i] = s_i M[i,i] / 2 on it.  lower may carry batch axes; dg
    carries the same ones followed by any derivative axes.
    """
    lower = np.asarray(lower, dtype=float)
    dg = np.asarray(dg, dtype=float)
    # one broadcast axis per derivative axis of dg
    lower = lower.reshape(lower.shape[:-2] + (1,) * (dg.ndim - lower.ndim) + lower.shape[-2:])
    linv = np.linalg.inv(lower)
    scaled = (linv @ dg @ np.swapaxes(linv, -1, -2)) * np.asarray(SIGNS)
    x = np.tril(scaled) - 0.5 * scaled * np.eye(lower.shape[-1])
    return lower @ x


def orthonormal_factor_jet(g_jet):
    """Jet (L, dL) of the signed-Cholesky factor of a frame metric jet;
    its partials follow from g's through signed_cholesky_partial, and a
    constant g (dg None) gives a constant factor."""
    g, dg = g_jet
    lower = signed_cholesky(g)
    return lower, None if dg is None else signed_cholesky_partial(lower, dg)


def symbol_jet(factor_jet, canonical):
    """Jet of a structure-symbol field tied to g on its covariant tangent slot.

    canonical is the orthonormal-frame table (rank 3) with the tangent
    index last; the frame components are sum_c canonical[a, b, c] L[q, c]
    with (L, dL) the jet of the signed-Cholesky factor of g
    (orthonormal_factor_jet).
    """
    return einsum_jet("abc,qc->abq", (np.asarray(canonical, dtype=complex), None), factor_jet)
