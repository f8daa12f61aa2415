"""The batched kernels: Gram/determinant/adjugate and the small-matrix products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmgpanel import PanelBlock, _kernels
from tmgpanel.designs import PanelDesign, chamberlain_projectors

from _helpers import random_panel

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_large_k_uses_numpy_path(rng):
    # k = 6 exceeds the cofactor kernels; LU fallback must still satisfy
    # the adjugate identity
    n, T, k = 10, 9, 6
    W = rng.normal(0, 1, (n, T, k))
    gram, d, adj = _kernels.gram_det_adj(W)
    for i in range(n):
        np.testing.assert_allclose(
            gram[i] @ adj[i], d[i] * np.eye(k), atol=1e-8 * max(abs(d[i]), 1.0)
        )


def test_gram_is_the_period_sum(rng):
    # the kernel sums W_i'W_i over periods in order, which is einsum's value
    for T, k in [(2, 2), (3, 2), (4, 3), (9, 5)]:
        W = rng.normal(0, 1, (50, T, k)) * 10.0 ** rng.uniform(-4, 4, (50, 1, 1))
        gram, _, _ = _kernels.gram_det_adj(W)
        np.testing.assert_allclose(gram, np.einsum("ntp,ntq->npq", W, W), rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# the in-order small-matrix products
# ---------------------------------------------------------------------------


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def inorder_matmul(a, b):
    """Pure-Python a @ b over broadcast leading axes: each entry is
    0.0 + a_0 b_0 + a_1 b_1 + ... in float arithmetic, term by term."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a = np.broadcast_to(a, lead + a.shape[-2:])
    b = np.broadcast_to(b, lead + b.shape[-2:])
    (m, p), q = a.shape[-2:], b.shape[-1]
    out = np.empty(lead + (m, q))
    for idx in np.ndindex(*lead):
        for i in range(m):
            for j in range(q):
                s = 0.0
                for t in range(p):
                    s += float(a[idx + (i, t)]) * float(b[idx + (t, j)])
                out[idx + (i, j)] = s
    return out


def inorder_matvec(a, v):
    return inorder_matmul(a, v[..., :, None])[..., 0]


def einsum_in_order(p, *contracted_strides):
    """Whether einsum sums the contracted axis in order: it has at most two
    terms, or it is strided in one of the operands (otherwise numpy's SIMD
    sum-of-products adds the terms in lanes)."""
    return p <= 2 or any(s != 8 for s in contracted_strides)


def _draw(rng, shape, log_scale, zeros):
    """Normals scaled by 10**log_scale, with a share of entries set to exact
    zeros (and the rest of either sign)."""
    a = rng.standard_normal(shape) * 10.0 ** log_scale
    a[rng.uniform(size=shape) < zeros] = 0.0
    return a


SITES = ("W@B", "X@X'", "Q'r", "adj@v", "X@coef", "Q'phi")


@settings(max_examples=300, deadline=None)
@given(
    site=st.sampled_from(SITES),
    T=st.integers(2, 6),
    k=st.integers(1, 4),
    lead=st.sampled_from([(), (1,), (2,), (3,)]),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_small_products_sum_in_order(site, T, k, lead, n, seed, log_scale, zeros):
    # the shapes and layouts of the per-unit contractions that route through
    # the kernel; a block's per-replication vector broadcasts against (B, n, ...)
    rng = np.random.default_rng(seed)
    la, lb = log_scale
    un = lead + (n,)
    if site == "W@B":  # Q_i = W_i B_i, qx
        a = _draw(rng, un + (T, k), la, zeros)
        b = _draw(rng, un + (k, k), lb, zeros)
        got, want = _kernels.small_matmul(a, b), inorder_matmul(a, b)
        ref, strides = np.einsum("...tk,...kj->...tj", a, b), (a.strides[-1], b.strides[-2])
    elif site == "X@X'":  # the projector product (X_i psi_i^-1) X_i'
        a = _draw(rng, un + (T, k), la, zeros)
        b = _draw(rng, un + (T, k), lb, zeros).swapaxes(-1, -2)
        got, want = _kernels.small_matmul(a, b), inorder_matmul(a, b)
        ref, strides = np.einsum("...tp,...ps->...ts", a, b), (a.strides[-1], b.strides[-2])
    elif site == "Q'r":  # tilde, wty: a sum over periods of a (T, k) design
        a = _draw(rng, un + (T, k), la, zeros).swapaxes(-1, -2)
        v = _draw(rng, un + (T,), lb, zeros)
        got, want = _kernels.small_matvec(a, v), inorder_matvec(a, v)
        ref, strides = np.einsum("...kt,...t->...k", a, v), (a.strides[-1], v.strides[-1])
    elif site == "adj@v":  # adj_wty, m t_i
        a = _draw(rng, un + (k, k), la, zeros)
        v = _draw(rng, un + (k,), lb, zeros)
        got, want = _kernels.small_matvec(a, v), inorder_matvec(a, v)
        ref, strides = np.einsum("...kj,...j->...k", a, v), (a.strides[-1], v.strides[-1])
    elif site == "X@coef":  # X_i beta with one coefficient vector per replication
        a = _draw(rng, un + (T, k), la, zeros)
        coef = _draw(rng, lead + (k,), lb, zeros)
        v = coef[..., None, :]
        got, want = _kernels.small_matvec(a, v), inorder_matvec(a, v)
        ref, strides = np.einsum("...ntp,...p->...nt", a, coef), (a.strides[-1], v.strides[-1])
    else:  # Q_i phi with one period-effect vector per replication
        a = _draw(rng, un + (T, k), la, zeros).swapaxes(-1, -2)
        phi = _draw(rng, lead + (T,), lb, zeros)
        v = phi[..., None, :]
        got, want = _kernels.small_matvec(a, v), inorder_matvec(a, v)
        ref, strides = np.einsum("...nkt,...t->...nk", a, phi), (a.strides[-1], v.strides[-1])
    assert got.shape == want.shape == ref.shape
    np.testing.assert_array_equal(bits(got), bits(want))
    if einsum_in_order(a.shape[-1], *strides):
        np.testing.assert_array_equal(bits(got), bits(ref))


def test_signed_zero_matches_einsum():
    # a stayer with x = 0 and a negative slope: every product is -0.0, which
    # einsum's zero-started sum turns into +0.0
    x = np.zeros((3, 3, 2))
    x[1:] = np.arange(1.0, 13.0).reshape(2, 3, 2)
    coef = np.array([-1.5, -0.25])
    got = _kernels.small_matvec(x, coef[None, :])
    want = np.einsum("ntp,p->nt", x, coef)
    np.testing.assert_array_equal(bits(got), bits(want))
    assert not np.signbit(got[0]).any()
    # planted zeros against negative entries in a product of stacks
    a = np.array([[[0.0, 0.0], [2.0, 0.0]], [[0.0, -0.0], [1.0, 3.0]]])
    b = -np.ones((2, 2, 2))
    got = _kernels.small_matmul(a, b)
    np.testing.assert_array_equal(bits(got), bits(np.einsum("nij,njk->nik", a, b)))
    np.testing.assert_array_equal(bits(got), bits(inorder_matmul(a, b)))
    assert not np.signbit(got[:, 0]).any()


def test_k1_cofactor_inverse_is_linalg_inv(rng):
    # at k' = 1 the projectors' adj/det is 1/psi_i, the bits of LAPACK's inverse
    psi = rng.uniform(0.1, 10.0, (2, 1000)) * 10.0 ** rng.uniform(-8, 8, (2, 1000))
    psi = psi[..., None, None]
    det, adj = _kernels._det_adj_stack(psi)
    np.testing.assert_array_equal(bits(adj / det[..., None, None]), bits(np.linalg.inv(psi)))


@pytest.mark.parametrize("k_prime", [1, 2, 3])
def test_routed_products_keep_einsum_values(rng, k_prime):
    # the design's W_i'y_i and adj(W_i'W_i) W_i'y_i and the Chamberlain
    # projectors, on a block and on one panel, against the einsum and
    # np.linalg.inv formulas: the same bits at k' = 1, and within 1e-12 at
    # k' >= 2, where the sums over k' + 1 terms may round differently
    T = k_prime + 2
    panels = [random_panel(rng, n=40, T=T, k_prime=k_prime) for _ in range(3)]
    block = PanelBlock(y=np.stack([p.y for p in panels]), x=np.stack([p.x for p in panels]))
    for panel in (block, panels[0]):
        pd = PanelDesign(panel)
        wty = np.einsum("...ntk,...nt->...nk", pd.W, panel.y)
        xd = panel.xd
        inv = np.linalg.inv(np.einsum("...ntp,...ntq->...npq", xd, xd))
        proj = np.einsum("...ntp,...npq,...nsq->...nts", xd, inv, xd)
        pairs = [
            (pd.wty(), wty),
            (pd.adj_wty(), np.einsum("...nkj,...nj->...nk", pd.adj, wty)),
            (chamberlain_projectors(panel).M, np.eye(T) - proj),
        ]
        for got, want in pairs:
            if k_prime == 1:
                np.testing.assert_array_equal(bits(got), bits(want))
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * abs(want).max())


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_det_stack_is_the_cofactor_determinant(rng, k):
    # det_stack evaluates the determinant expression of _det_adj_stack alone:
    # the same bits, on random, singular and signed-zero stacks, with leading
    # axes kept
    g = rng.normal(0, 1, (3, 40, k, k)) * 10.0 ** rng.uniform(-3, 3, (3, 40, 1, 1))
    g[0, :10, -1] = g[0, :10, 0]  # repeated rows: singular
    g[0, 10:20] = 0.0
    g[0, 20:30] = -0.0
    g[1][rng.random((40, k, k)) < 0.3] = 0.0
    g[2][rng.random((40, k, k)) < 0.3] = -0.0
    want = _kernels._det_adj_stack(g)[0]
    got = _kernels.det_stack(g)
    assert got.shape == want.shape == (3, 40)
    assert got.tobytes() == want.tobytes()
