"""Batched small-matrix kernels: Gram, determinant, adjugate and the tiny
per-unit products, over all units.

One vectorized numpy sweep serves every estimator. Determinants and
adjugates use exact cofactor expansion for k <= 4; larger k falls back to
LU-based determinants (per-minor for the adjugate).

The per-unit products (``small_matmul``, ``small_matvec``) and the Gram
matrix are sums over axes of two to a few terms. ``np.einsum`` iterates such
tiny axes one unit at a time, so here each output entry is a vector over the
stack's leading axes, and its contracted index is summed in order with
elementwise numpy ops: the first product plus 0.0 (einsum's zero start, so a
sum of -0.0 terms reads +0.0), then one in-place add per further term.

That order gives einsum's bits wherever einsum's inner loop does not reduce
over the contracted axis -- the axis is strided in one of the operands --
and wherever the axis has at most two terms. Where einsum reduces over a
unit-stride axis of three or more terms, numpy's SIMD sum-of-products adds
the terms in lanes (on an AVX-512 x86-64 machine, the even and odd terms in
two accumulators), which rounds differently; the callers keep ``np.einsum``
at those sites.
"""

from __future__ import annotations

import numpy as np

#: There is no compiled backend; the numpy sweep is the only kernel path.
#: Kept as a constant because the benchmark's environment record reads it.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# cofactor expansions (k <= 4) and the LU fallback
# ---------------------------------------------------------------------------


def _det_2(g):
    return g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 1, 0]


def _det_adj_2(g):
    d = _det_2(g)
    adj = np.empty_like(g)
    adj[:, 0, 0] = g[:, 1, 1]
    adj[:, 0, 1] = -g[:, 0, 1]
    adj[:, 1, 0] = -g[:, 1, 0]
    adj[:, 1, 1] = g[:, 0, 0]
    return d, adj


def _cofactors_3(g):
    """The cofactors of row 0: column 0 of the adjugate."""
    c00 = g[:, 1, 1] * g[:, 2, 2] - g[:, 1, 2] * g[:, 2, 1]
    c01 = g[:, 1, 2] * g[:, 2, 0] - g[:, 1, 0] * g[:, 2, 2]
    c02 = g[:, 1, 0] * g[:, 2, 1] - g[:, 1, 1] * g[:, 2, 0]
    return c00, c01, c02


def _det_3(g, c00, c01, c02):
    return g[:, 0, 0] * c00 + g[:, 0, 1] * c01 + g[:, 0, 2] * c02


def _det_adj_3(g):
    c00, c01, c02 = _cofactors_3(g)
    d = _det_3(g, c00, c01, c02)
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


def _minors_4(g):
    """The 2x2 minors of rows 0, 1 (s) and of rows 2, 3 (c)."""
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
    return (s0, s1, s2, s3, s4, s5), (c0, c1, c2, c3, c4, c5)


def _det_4(s, c):
    return s[0] * c[5] - s[1] * c[4] + s[2] * c[3] + s[3] * c[2] - s[4] * c[1] + s[5] * c[0]


def _det_adj_4(g):
    # 2x2 complementary-minor (Laplace on rows 0,1 vs 2,3) for the determinant,
    # cofactors of 3x3 minors for the adjugate.
    s, c = _minors_4(g)
    s0, s1, s2, s3, s4, s5 = s
    c0, c1, c2, c3, c4, c5 = c
    d = _det_4(s, c)
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
    """Determinants and adjugates of k x k matrices stacked on any leading
    axes, (...,) and (..., k, k)."""
    lead, k = g.shape[:-2], g.shape[-1]
    g = g.reshape(-1, k, k)
    if k == 1:
        d, adj = g[:, 0, 0].copy(), np.ones_like(g)
    elif k == 2:
        d, adj = _det_adj_2(g)
    elif k == 3:
        d, adj = _det_adj_3(g)
    elif k == 4:
        d, adj = _det_adj_4(g)
    else:
        d, adj = _det_adj_lu(g)
    return d.reshape(lead), adj.reshape(lead + (k, k))


#: The determinant alone of a (m, k, k) stack, k <= 4: the expression that
#: ``_det_adj_stack`` evaluates, so the same bits.
_DETS = {
    1: lambda g: g[:, 0, 0].copy(),
    2: _det_2,
    3: lambda g: _det_3(g, *_cofactors_3(g)),
    4: lambda g: _det_4(*_minors_4(g)),
}


def det_stack(g):
    """Determinants of k x k matrices stacked on any leading axes: the cofactor
    expansion for k <= 4, without the adjugate; LU beyond (without the
    adjugate's k^2 minors)."""
    lead, k = g.shape[:-2], g.shape[-1]
    if k > 4:
        return np.linalg.det(g)
    return _DETS[k](g.reshape(-1, k, k)).reshape(lead)


def _gram(W: np.ndarray) -> np.ndarray:
    """W_i'W_i for a stack of (T, k) designs, summed over periods in order:
    the value of ``einsum("ntp,ntq->npq", W, W)`` in a tenth of its time for
    short panels (einsum iterates the tiny (T, k) axes one unit at a time)."""
    m, T, k = W.shape
    gram = np.empty((m, k, k))
    for p in range(k):
        for q in range(p, k):
            acc = W[:, 0, p] * W[:, 0, q]
            for t in range(1, T):
                acc += W[:, t, p] * W[:, t, q]
            gram[:, p, q] = acc
            gram[:, q, p] = acc
    return gram


def small_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of tiny matrices, (..., m, p) by (..., p, q) to
    (..., m, q), broadcast on the leading axes; p is summed in order.

    Like ``_gram``, each output entry is one sum of products of vectors over
    the leading axes: an elementwise op over the whole (..., m, q) stack at
    once would run numpy's inner loop over the tiny trailing axis."""
    (m, p), q = a.shape[-2:], b.shape[-1]
    out = np.empty(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, q))
    for i in range(m):
        for j in range(q):
            acc = a[..., i, 0] * b[..., 0, j]
            acc += 0.0  # einsum's zero start
            for t in range(1, p):
                acc += a[..., i, t] * b[..., t, j]
            out[..., i, j] = acc
    return out


def small_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a v for stacks of tiny matrices and vectors, (..., m, p) by (..., p) to
    (..., m), broadcast on the leading axes; p is summed in order."""
    return small_matmul(a, v[..., :, None])[..., 0]


def gram_det_adj(W: np.ndarray):
    """Per-unit Gram matrix W_i'W_i, its determinant and adjugate.

    Parameters
    ----------
    W : (m, T, k) array of per-unit design matrices (a block passes the units
        of all its replications as one stack).

    Returns
    -------
    gram : (m, k, k), d : (m,) clamped at zero, adj : (m, k, k)
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    gram = _gram(W)
    d, adj = _det_adj_stack(gram)
    np.maximum(d, 0.0, out=d)  # W'W is PSD: a negative d is cofactor rounding
    return gram, d, adj
