import numpy as np
import pytest

from tmgpanel import BalancedPanel, SingularDesignError, mg, within
from tmgpanel._kernels import _det_adj_stack, gram_det_adj
from tmgpanel.designs import RANK_RTOL, PanelDesign, mt, rank_deficient, rank_ratio

import oracles
from _helpers import random_panel


def panel_from_x(x, y=None):
    x = np.asarray(x, dtype=float)
    if x.ndim == 2:
        x = x[:, :, None]
    n, T, _ = x.shape
    if y is None:
        y = np.zeros((n, T))
    return BalancedPanel(
        y=y, x=x, unit_ids=tuple(range(n)), time_ids=tuple(range(T))
    )


class TestDeterminantAdjugate:
    def test_hand_2x2(self):
        # unit with x = (0, 1): W'W = [[2,1],[1,1]], det = 1
        pd = PanelDesign(panel_from_x([[0.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pd.gram[0], [[2.0, 1.0], [1.0, 1.0]])
        assert pd.d[0] == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(pd.adj[0], [[1.0, -1.0], [-1.0, 2.0]])

    def test_zero_within_variation(self):
        pd = PanelDesign(panel_from_x([[0.0, 0.0], [1.0, 2.0]]))
        assert pd.d[0] == pytest.approx(0.0, abs=1e-14)
        assert np.isfinite(pd.adj[0]).all()
        np.testing.assert_array_equal(np.flatnonzero(pd.singular()), [0])

    @pytest.mark.parametrize("k_prime,T", [(1, 2), (1, 4), (2, 3), (3, 4)])
    def test_det_matches_lu_oracle(self, rng, k_prime, T):
        x = rng.normal(0, 1, (40, T, k_prime))
        W = panel_from_x(x).design_tensor()
        _, d, _ = gram_det_adj(W)
        expected = np.array([np.linalg.det(W[i].T @ W[i]) for i in range(40)])
        np.testing.assert_allclose(d, expected, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("k_prime,T", [(1, 2), (2, 3), (3, 4), (4, 6), (5, 7)])
    def test_adjugate_identity(self, rng, k_prime, T):
        x = rng.normal(0, 1, (25, T, k_prime))
        W = panel_from_x(x).design_tensor()
        gram, d, adj = gram_det_adj(W)
        k = k_prime + 1
        for i in range(25):
            resid = gram[i] @ adj[i] - d[i] * np.eye(k)
            scale = np.abs(gram[i]).max() * max(abs(d[i]), 1.0)
            assert np.abs(resid).max() <= 1e-10 * scale

    def test_det_scaling_homogeneity(self, rng):
        # scaling x by c multiplies d by c^(2k')
        x = rng.normal(0, 1, (10, 3, 2))
        c = 1.7
        _, d1, _ = gram_det_adj(panel_from_x(x).design_tensor())
        _, d2, _ = gram_det_adj(panel_from_x(c * x).design_tensor())
        np.testing.assert_allclose(d2, c**4 * d1, rtol=1e-9)

    def test_det_row_permutation_invariant(self, rng):
        x = rng.normal(0, 1, (6, 4, 1))
        _, d1, _ = gram_det_adj(panel_from_x(x).design_tensor())
        perm = rng.permutation(4)
        _, d2, _ = gram_det_adj(panel_from_x(x[:, perm]).design_tensor())
        np.testing.assert_allclose(d2, d1, rtol=1e-10)

    def test_square_design_det_squared(self, rng):
        # at T = k, d equals det(W_i)^2
        x = rng.normal(0, 1, (12, 2, 1))
        p = panel_from_x(x)
        W = p.design_tensor()
        _, d, _ = gram_det_adj(W)
        detw = np.array([np.linalg.det(W[i]) for i in range(12)])
        np.testing.assert_allclose(d, detw**2, rtol=1e-10)

    def test_det_adj_stack_large_k(self, rng):
        # k = 6 takes the LU fallback
        a = rng.normal(0, 1, (6, 6))
        a = a @ a.T
        d, adj = _det_adj_stack(a[None])
        d, adj = d[0], adj[0]
        np.testing.assert_allclose(d, np.linalg.det(a), rtol=1e-9)
        np.testing.assert_allclose(a @ adj, d * np.eye(6), atol=1e-9 * abs(d))


class TestRankRule:
    """rank_deficient: det(G) <= RANK_RTOL prod diag(G), whatever the units."""

    @staticmethod
    def grams(rng, m):
        # well-conditioned and exactly rank-deficient PSD matrices, 8 of each
        full = rng.normal(0, 1, (8, m, m + 3))
        low = rng.normal(0, 1, (8, m, m - 1)) if m > 1 else np.zeros((8, 1, 1))
        return full @ mt(full), low @ mt(low)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("power", [20, -20])
    def test_verdict_ignores_coefficient_units(self, rng, m, power):
        full, low = self.grams(rng, m)
        d = 2.0 ** (power * (np.arange(m) % 2 == 0))  # D = diag(2^power, 1, 2^power, ...)
        for g, want in ((full, False), (low, True)):
            dgd = g * d[:, None] * d[None, :]
            np.testing.assert_array_equal(rank_deficient(g), want)
            np.testing.assert_array_equal(rank_deficient(dgd), want)
            for a, b in zip(g, dgd):
                assert rank_ratio(b) == pytest.approx(rank_ratio(a), rel=1e-12, abs=1e-15)

    def test_one_by_one_is_the_sign_test(self):
        g = np.array([0.0, -0.0, 1e-200, 5.0, -1e-200, np.nan])[:, None, None]
        with np.errstate(all="raise"):
            got = rank_deficient(g)
        np.testing.assert_array_equal(got, [True, True, False, False, True, True])
        assert rank_ratio(np.zeros((1, 1))) == 0.0

    def test_threshold_and_zero_diagonal(self):
        # det / prod diag = 1 - c^2 for the correlation c
        cs = np.sqrt(1.0 - np.array([0.5, 4.0, 0.25]) * RANK_RTOL)
        g = np.array([[[1.0, c], [c, 1.0]] for c in cs])
        np.testing.assert_array_equal(rank_deficient(g), [True, False, True])
        zero_col = np.array([[[2.0, 0.0], [0.0, 0.0]]])
        with np.errstate(all="raise"):
            assert rank_deficient(zero_col).all()
            assert rank_ratio(zero_col[0]) == 0.0


class TestUnitOls:
    """Per-unit OLS through the batched design: the rows of ``mg(...).per_unit``."""

    def test_exact_fit(self, rng):
        x = rng.normal(0, 1, (3, 4, 1))
        y = 1.0 + x[:, :, 0]  # every unit on the line (1, 1)
        theta = mg(panel_from_x(x, y)).per_unit
        np.testing.assert_allclose(theta, 1.0, atol=1e-12)

    def test_hand_line(self):
        # x = (0,1,2), y = (1,3,5): intercept 1, slope 2
        y = np.array([[1.0, 3.0, 5.0], [0.0, 0.0, 0.0]])
        p = panel_from_x([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]], y)
        np.testing.assert_allclose(mg(p).per_unit[0], [1.0, 2.0], atol=1e-12)

    def test_matches_lstsq(self, rng):
        x = rng.normal(0, 1, (20, 4, 2))
        y = rng.normal(0, 1, (20, 4))
        pd = PanelDesign(panel_from_x(x, y))
        theta = mg(pd.panel, design=pd).per_unit
        for i in range(20):
            want = np.linalg.lstsq(pd.W[i], y[i], rcond=None)[0]
            np.testing.assert_allclose(theta[i], want, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(
                theta[i], oracles.unit_theta(y[i], x[i]), rtol=1e-9, atol=1e-12
            )

    def test_residuals_orthogonal(self, rng):
        x = rng.normal(0, 1, (5, 4, 1))
        y = rng.normal(0, 1, (5, 4))
        pd = PanelDesign(panel_from_x(x, y))
        resid = y - np.einsum("ntk,nk->nt", pd.W, mg(pd.panel, design=pd).per_unit)
        wtr = np.einsum("ntk,nt->nk", pd.W, resid)
        assert np.abs(wtr).max() <= 1e-9 * max(np.abs(y).max(), 1.0)

    def test_singular_raises(self):
        p = panel_from_x([[1.0, 1.0], [0.0, 1.0]], np.array([[0.0, 1.0], [0.0, 1.0]]))
        with pytest.raises(SingularDesignError) as exc:
            mg(p)
        assert exc.value.units == [0]


class TestWithinOperator:
    """The time de-meaning operator M_T, applied by ``within``."""

    def test_annihilates_constants(self):
        np.testing.assert_allclose(within(np.full(5, 3.3)), 0.0, atol=1e-12)

    def test_idempotent_and_zero_mean(self, rng):
        v = rng.normal(0, 4, 7)
        once = within(v)
        np.testing.assert_allclose(within(once), once, atol=1e-12)
        assert abs(once.mean()) <= 1e-12

    def test_matches_matrix_form(self, rng):
        v = rng.normal(size=4)
        np.testing.assert_allclose(within(v), oracles.mt(4) @ v, atol=1e-12)
        x = rng.normal(size=(3, 4, 2))
        want = np.einsum("ts,nsp->ntp", oracles.mt(4), x)
        np.testing.assert_allclose(within(x, axis=1), want, atol=1e-12)

    def test_short_and_long_axes_match_numpy_mean(self, rng):
        # below eight periods the mean is summed period by period; at eight
        # and above it is numpy's own
        for T in (2, 3, 7, 8, 11):
            v = rng.normal(0, 1, (40, T, 2)) * 10.0 ** rng.uniform(-4, 4, (40, 1, 1))
            np.testing.assert_allclose(
                within(v, axis=1), v - v.mean(axis=1, keepdims=True), rtol=1e-15, atol=0
            )


def test_panel_design_matches_per_unit(rng):
    p = random_panel(rng, n=12, T=3, k_prime=2)
    pd = PanelDesign(p)
    for i in range(p.n):
        W = oracles.unit_w(p.x[i])
        gram = W.T @ W
        np.testing.assert_allclose(pd.W[i], W, rtol=1e-15)
        np.testing.assert_allclose(pd.gram[i], gram, rtol=1e-12)
        np.testing.assert_allclose(pd.d[i], oracles.unit_det(p.x[i]), rtol=1e-10)
        np.testing.assert_allclose(
            pd.adj[i], pd.d[i] * np.linalg.inv(gram), rtol=1e-10, atol=1e-12
        )
