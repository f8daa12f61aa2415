"""Batched small-matrix kernels: Gram, determinant, adjugate over all units.

Two implementations of the hot per-unit sweep: a numba ``@njit`` kernel and
a vectorized pure-numpy fallback. The numpy path is selected when numba is
unavailable or when the ``TMGPANEL_NO_NUMBA=1`` environment variable is set.
Determinants and adjugates use exact cofactor expansion for k <= 4; larger k
falls back to LU-based determinants (per-minor for the adjugate).

``benchmarks/bench_kernels.py`` compares the two paths.
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("TMGPANEL_NO_NUMBA", "") != "1"

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover
        USE_NUMBA = False

# ---------------------------------------------------------------------------
# pure-numpy path (also the only path for k > 4)
# ---------------------------------------------------------------------------


def _det_adj_2(g):
    d = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    adj = np.empty_like(g)
    adj[:, 0, 0] = g[:, 1, 1]
    adj[:, 0, 1] = -g[:, 0, 1]
    adj[:, 1, 0] = -g[:, 1, 0]
    adj[:, 1, 1] = g[:, 0, 0]
    return d, adj


def _det_adj_3(g):
    c00 = g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 1]
    c01 = g[:, 1, 2] * g[:, 2, 0] - g[:, 1, 0] * g[:, 2, 2]
    c02 = g[:, 1, 0] * g[:, 2, 1] - g[:, 1, 1] * g[:, 2, 0]
    d = g[:, 0, 0] * c00 + g[:, 0, 1] * c01 + g[:, 0, 2] * c02
    adj = np.empty_like(g)
    adj[:, 0, 0] = c00
    adj[:, 1, 0] = c01
    adj[:, 2, 0] = c02
    adj[:, 0, 1] = g[:, 0, 2] * g[:, 2, 1] - g[:, 0, 1] * g[:, 2, 2]
    adj[:, 1, 1] = g[:, 0, 0] * g[:, 2, 2] - g[:, 0, 2] * g[:, 2, 0]
    adj[:, 2, 1] = g[:, 0, 1] * g[:, 2, 0] - g[:, 0, 0] * g[:, 2, 1]
    adj[:, 0, 2] = g[:, 0, 1] * g[:, 1, 2] - g[:, 0, 2] * g[:, 1, 1]
    adj[:, 1, 2] = g[:, 0, 2] * g[:, 1, 0] - g[:, 0, 0] * g[:, 1, 2]
    adj[:, 2, 2] = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    return d, adj


def _det_adj_4(g):
    # 2x2 complementary-minor (Laplace on rows 0,1 vs 2,3) for the determinant,
    # cofactors of 3x3 minors for the adjugate.
    s0 = g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]
    s1 = g[:, 0, 0] * g[:, 1, 2] - g[:, 0, 2] * g[:, 1, 0]
    s2 = g[:, 0, 0] * g[:, 1, 3] - g[:, 0, 3] * g[:, 1, 0]
    s3 = g[:, 0, 1] * g[:, 1, 2] - g[:, 0, 2] * g[:, 1, 1]
    s4 = g[:, 0, 1] * g[:, 1, 3] - g[:, 0, 3] * g[:, 1, 1]
    s5 = g[:, 0, 2] * g[:, 1, 3] - g[:, 0, 3] * g[:, 1, 2]
    c5 = g[:, 2, 2] * g[:, 3, 3] - g[:, 2, 3] * g[:, 3, 2]
    c4 = g[:, 2, 1] * g[:, 3, 3] - g[:, 2, 3] * g[:, 3, 1]
    c3 = g[:, 2, 1] * g[:, 3, 2] - g[:, 2, 2] * g[:, 3, 1]
    c2 = g[:, 2, 0] * g[:, 3, 3] - g[:, 2, 3] * g[:, 3, 0]
    c1 = g[:, 2, 0] * g[:, 3, 2] - g[:, 2, 2] * g[:, 3, 0]
    c0 = g[:, 2, 0] * g[:, 3, 1] - g[:, 2, 1] * g[:, 3, 0]
    d = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = np.empty_like(g)
    adj[:, 0, 0] = g[:, 1, 1] * c5 - g[:, 1, 2] * c4 + g[:, 1, 3] * c3
    adj[:, 0, 1] = -g[:, 0, 1] * c5 + g[:, 0, 2] * c4 - g[:, 0, 3] * c3
    adj[:, 0, 2] = g[:, 3, 1] * s5 - g[:, 3, 2] * s4 + g[:, 3, 3] * s3
    adj[:, 0, 3] = -g[:, 2, 1] * s5 + g[:, 2, 2] * s4 - g[:, 2, 3] * s3
    adj[:, 1, 0] = -g[:, 1, 0] * c5 + g[:, 1, 2] * c2 - g[:, 1, 3] * c1
    adj[:, 1, 1] = g[:, 0, 0] * c5 - g[:, 0, 2] * c2 + g[:, 0, 3] * c1
    adj[:, 1, 2] = -g[:, 3, 0] * s5 + g[:, 3, 2] * s2 - g[:, 3, 3] * s1
    adj[:, 1, 3] = g[:, 2, 0] * s5 - g[:, 2, 2] * s2 + g[:, 2, 3] * s1
    adj[:, 2, 0] = g[:, 1, 0] * c4 - g[:, 1, 1] * c2 + g[:, 1, 3] * c0
    adj[:, 2, 1] = -g[:, 0, 0] * c4 + g[:, 0, 1] * c2 - g[:, 0, 3] * c0
    adj[:, 2, 2] = g[:, 3, 0] * s4 - g[:, 3, 1] * s2 + g[:, 3, 3] * s0
    adj[:, 2, 3] = -g[:, 2, 0] * s4 + g[:, 2, 1] * s2 - g[:, 2, 3] * s0
    adj[:, 3, 0] = -g[:, 1, 0] * c3 + g[:, 1, 1] * c1 - g[:, 1, 2] * c0
    adj[:, 3, 1] = g[:, 0, 0] * c3 - g[:, 0, 1] * c1 + g[:, 0, 2] * c0
    adj[:, 3, 2] = -g[:, 3, 0] * s3 + g[:, 3, 1] * s1 - g[:, 3, 2] * s0
    adj[:, 3, 3] = g[:, 2, 0] * s3 - g[:, 2, 1] * s1 + g[:, 2, 2] * s0
    return d, adj


def _det_adj_lu(g):
    # LU (via np.linalg) determinants; adjugate entries from per-minor LU dets.
    n, k, _ = g.shape
    d = np.linalg.det(g)
    adj = np.empty_like(g)
    rows = np.arange(k)
    for p in range(k):
        for q in range(k):
            minor = g[:, rows != q][:, :, rows != p]
            adj[:, p, q] = (-1.0) ** (p + q) * np.linalg.det(minor)
    return d, adj


def _gram_det_adj_numpy(W):
    g = np.einsum("ntp,ntq->npq", W, W)
    k = W.shape[2]
    if k == 1:
        d = g[:, 0, 0].copy()
        adj = np.ones_like(g)
    elif k == 2:
        d, adj = _det_adj_2(g)
    elif k == 3:
        d, adj = _det_adj_3(g)
    elif k == 4:
        d, adj = _det_adj_4(g)
    else:
        d, adj = _det_adj_lu(g)
    return g, d, adj


# ---------------------------------------------------------------------------
# numba path (k <= 4; larger k delegates to numpy)
# ---------------------------------------------------------------------------

if USE_NUMBA:

    @njit(cache=True)
    def _gram_det_adj_nb(W):  # pragma: no cover - exercised via dispatch
        n, T, k = W.shape
        g = np.empty((n, k, k))
        d = np.empty(n)
        adj = np.empty((n, k, k))
        for i in range(n):
            for p in range(k):
                for q in range(p, k):
                    s = 0.0
                    for t in range(T):
                        s += W[i, t, p] * W[i, t, q]
                    g[i, p, q] = s
                    g[i, q, p] = s
            a = g[i]
            b = adj[i]
            if k == 1:
                d[i] = a[0, 0]
                b[0, 0] = 1.0
            elif k == 2:
                d[i] = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
                b[0, 0] = a[1, 1]
                b[0, 1] = -a[0, 1]
                b[1, 0] = -a[1, 0]
                b[1, 1] = a[0, 0]
            elif k == 3:
                c00 = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
                c01 = a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2]
                c02 = a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]
                d[i] = a[0, 0] * c00 + a[0, 1] * c01 + a[0, 2] * c02
                b[0, 0] = c00
                b[1, 0] = c01
                b[2, 0] = c02
                b[0, 1] = a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2]
                b[1, 1] = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
                b[2, 1] = a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1]
                b[0, 2] = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
                b[1, 2] = a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2]
                b[2, 2] = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
            else:
                s0 = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
                s1 = a[0, 0] * a[1, 2] - a[0, 2] * a[1, 0]
                s2 = a[0, 0] * a[1, 3] - a[0, 3] * a[1, 0]
                s3 = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
                s4 = a[0, 1] * a[1, 3] - a[0, 3] * a[1, 1]
                s5 = a[0, 2] * a[1, 3] - a[0, 3] * a[1, 2]
                c5 = a[2, 2] * a[3, 3] - a[2, 3] * a[3, 2]
                c4 = a[2, 1] * a[3, 3] - a[2, 3] * a[3, 1]
                c3 = a[2, 1] * a[3, 2] - a[2, 2] * a[3, 1]
                c2 = a[2, 0] * a[3, 3] - a[2, 3] * a[3, 0]
                c1 = a[2, 0] * a[3, 2] - a[2, 2] * a[3, 0]
                c0 = a[2, 0] * a[3, 1] - a[2, 1] * a[3, 0]
                d[i] = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
                b[0, 0] = a[1, 1] * c5 - a[1, 2] * c4 + a[1, 3] * c3
                b[0, 1] = -a[0, 1] * c5 + a[0, 2] * c4 - a[0, 3] * c3
                b[0, 2] = a[3, 1] * s5 - a[3, 2] * s4 + a[3, 3] * s3
                b[0, 3] = -a[2, 1] * s5 + a[2, 2] * s4 - a[2, 3] * s3
                b[1, 0] = -a[1, 0] * c5 + a[1, 2] * c2 - a[1, 3] * c1
                b[1, 1] = a[0, 0] * c5 - a[0, 2] * c2 + a[0, 3] * c1
                b[1, 2] = -a[3, 0] * s5 + a[3, 2] * s2 - a[3, 3] * s1
                b[1, 3] = a[2, 0] * s5 - a[2, 2] * s2 + a[2, 3] * s1
                b[2, 0] = a[1, 0] * c4 - a[1, 1] * c2 + a[1, 3] * c0
                b[2, 1] = -a[0, 0] * c4 + a[0, 1] * c2 - a[0, 3] * c0
                b[2, 2] = a[3, 0] * s4 - a[3, 1] * s2 + a[3, 3] * s0
                b[2, 3] = -a[2, 0] * s4 + a[2, 1] * s2 - a[2, 3] * s0
                b[3, 0] = -a[1, 0] * c3 + a[1, 1] * c1 - a[1, 2] * c0
                b[3, 1] = a[0, 0] * c3 - a[0, 1] * c1 + a[0, 2] * c0
                b[3, 2] = -a[3, 0] * s3 + a[3, 1] * s1 - a[3, 2] * s0
                b[3, 3] = a[2, 0] * s3 - a[2, 1] * s1 + a[2, 2] * s0
        return g, d, adj


def gram_det_adj(W: np.ndarray):
    """Per-unit Gram matrix W_i'W_i, its determinant and adjugate.

    Parameters
    ----------
    W : (n, T, k) array of per-unit design matrices.

    Returns
    -------
    gram : (n, k, k), d : (n,) clamped at zero, adj : (n, k, k)
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    nb = USE_NUMBA and W.shape[2] <= 4
    gram, d, adj = _gram_det_adj_nb(W) if nb else _gram_det_adj_numpy(W)
    np.maximum(d, 0.0, out=d)  # W'W is PSD: a negative d is cofactor rounding
    return gram, d, adj


def det_adj_single(a: np.ndarray):
    """Determinant and adjugate of one k x k matrix (cofactors for k <= 4, LU above)."""
    a = np.asarray(a, dtype=np.float64)
    d, adj = _det_adj_stack(a[None])
    return float(d[0]), adj[0]


def _det_adj_stack(g):
    k = g.shape[1]
    if k == 1:
        return g[:, 0, 0].copy(), np.ones_like(g)
    if k == 2:
        return _det_adj_2(g)
    if k == 3:
        return _det_adj_3(g)
    if k == 4:
        return _det_adj_4(g)
    return _det_adj_lu(g)
