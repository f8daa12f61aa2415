"""Batched small-matrix kernels: Gram, determinant, adjugate over all units.

One vectorized numpy sweep serves every estimator. Determinants and
adjugates use exact cofactor expansion for k <= 4; larger k falls back to
LU-based determinants (per-minor for the adjugate).
"""

from __future__ import annotations

import numpy as np

#: There is no compiled backend; the numpy sweep is the only kernel path.
#: Kept as a constant because the benchmark's environment record reads it.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# cofactor expansions (k <= 4) and the LU fallback
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


def _det_adj_stack(g):
    """Determinants and adjugates of a stack of k x k matrices, (n,) and (n, k, k)."""
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
    gram = np.einsum("ntp,ntq->npq", W, W)
    d, adj = _det_adj_stack(gram)
    np.maximum(d, 0.0, out=d)  # W'W is PSD: a negative d is cofactor rounding
    return gram, d, adj
