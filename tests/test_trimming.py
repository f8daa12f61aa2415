import numpy as np
import pytest

from tmgpanel import AllSingularError, TrimConfig, compute_threshold, delta_weights, mg, tmg
from tmgpanel.designs import PanelDesign

import oracles
from _helpers import random_panel
from test_designs import panel_from_x


class TestThreshold:
    def test_mean_rule_hand_value(self):
        # four unit determinants, alpha = 1/3: threshold is 4^(-1/3)
        a_n = compute_threshold(np.ones(4), TrimConfig(alpha=1 / 3))
        assert a_n == pytest.approx(4.0 ** (-1 / 3), abs=1e-12)
        assert a_n == pytest.approx(0.6299605249474366, abs=1e-12)

    def test_explicit_rule(self):
        a_n = compute_threshold(np.ones(8), TrimConfig(alpha=0.5, c_n=2.0))
        assert a_n == pytest.approx(2.0 / np.sqrt(8.0), rel=1e-14)

    def test_scaling_linearity(self, rng):
        d = rng.uniform(0.1, 3.0, 50)
        cfg = TrimConfig(alpha=1 / 3)
        a1 = compute_threshold(d, cfg)
        a2 = compute_threshold(7.5 * d, cfg)
        assert a2 == pytest.approx(7.5 * a1, rel=1e-12)

    def test_all_singular(self):
        with pytest.raises(AllSingularError):
            compute_threshold(np.zeros(5), TrimConfig())

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            TrimConfig(alpha=1.0)
        with pytest.raises(ValueError):
            TrimConfig(alpha=0.0)
        with pytest.raises(ValueError):
            TrimConfig(c_n=-1.0)
        for c_n in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                TrimConfig(c_n=c_n)


class TestDeltaWeights:
    def test_formula_cases(self):
        state = delta_weights(np.array([2.0, 0.5, 0.0]), a_n=1.0)
        np.testing.assert_allclose(state.delta, [0.0, -0.5, -1.0])
        np.testing.assert_array_equal(state.trimmed, [False, True, True])
        assert state.pi_n == pytest.approx(2 / 3)
        assert state.delta_bar == pytest.approx(-0.5)

    def test_tie_counts_as_trimmed(self):
        state = delta_weights(np.array([1.0, 2.0]), a_n=1.0)
        assert state.trimmed[0] and not state.trimmed[1]
        assert state.delta[0] == 0.0  # deficit is zero exactly at the tie

    def test_bounds_and_monotonicity(self, rng):
        d = np.sort(rng.uniform(0.0, 2.0, 100))
        state = delta_weights(d, a_n=0.8)
        assert np.all(state.delta >= -1.0) and np.all(state.delta <= 0.0)
        assert np.all(np.diff(state.delta) >= -1e-15)

    def test_squared_weight_identity(self, rng):
        # (1+delta)^2 = 1{d > a} + d^2/a^2 1{d <= a}
        d = rng.uniform(0.0, 2.0, 64)
        a_n = 0.7
        state = delta_weights(d, a_n)
        lhs = (1.0 + state.delta) ** 2
        rhs = np.where(d > a_n, 1.0, (d / a_n) ** 2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-14, atol=1e-16)

    def test_weights_sum_to_one(self, rng):
        d = rng.uniform(0.0, 2.0, 37)
        state = delta_weights(d, a_n=0.5)
        assert state.weights().sum() == pytest.approx(1.0, abs=1e-12)


def threshold_config(a_n, n, alpha=0.5):
    """An explicit-C_n rule whose threshold is a_n on n units."""
    return TrimConfig(alpha=alpha, c_n=a_n * n**alpha)


class TestTrimmedUnitEstimate:
    """Per-unit rows of ``tmg(...).per_unit``: OLS above the threshold, the
    inversion-free adjugate form adj(W'W) W'y_i / a_n at or below it."""

    def test_untrimmed_equals_ols(self, rng):
        p = random_panel(rng, n=4, T=3)
        pd = PanelDesign(p)
        est = tmg(p, threshold_config(pd.d.min() / 2.0, p.n))
        assert not est.trim.trimmed.any()
        np.testing.assert_array_equal(est.per_unit, mg(p).per_unit)
        for i in range(p.n):
            np.testing.assert_allclose(
                est.per_unit[i], oracles.unit_theta(p.y[i], p.x[i]), rtol=1e-10
            )

    def test_zero_design_zero_outcome(self):
        p = panel_from_x([[0.0, 0.0], [0.0, 1.0]])
        est = tmg(p)
        assert PanelDesign(p).d[0] == 0.0 and est.trim.trimmed[0]
        np.testing.assert_array_equal(est.per_unit[0], 0.0)
        assert np.isfinite(est.per_unit).all()

    def test_trimmed_branch_shrinks_ols(self, rng):
        # 0 < d <= a_n: estimate equals (d/a_n) * OLS
        p = random_panel(rng, n=6, T=3)
        pd = PanelDesign(p)
        top = np.sort(pd.d)[-2:]
        est = tmg(p, threshold_config(top.mean(), p.n))
        a_n = est.trim.a_n
        trimmed = np.flatnonzero(est.trim.trimmed)
        assert trimmed.size == 5
        for i in trimmed:
            want = (pd.d[i] / a_n) * oracles.unit_theta(p.y[i], p.x[i])
            np.testing.assert_allclose(est.per_unit[i], want, rtol=1e-10)

    def test_trimming_set_scale_free(self, rng):
        # with the mean rule, rescaling regressors never changes who is trimmed
        p = random_panel(rng, n=40, T=2)
        cfg = TrimConfig()
        d1 = PanelDesign(p).d
        s1 = delta_weights(d1, compute_threshold(d1, cfg))
        for c in (0.01, 3.0, 250.0):
            p2 = panel_from_x(c * p.x, p.y)
            d2 = PanelDesign(p2).d
            s2 = delta_weights(d2, compute_threshold(d2, cfg))
            np.testing.assert_array_equal(s1.trimmed, s2.trimmed)
            assert s2.pi_n == s1.pi_n
