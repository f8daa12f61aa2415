"""The batched Gram/determinant/adjugate kernel."""

import numpy as np

from tmgpanel import _kernels


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
