import numpy as np
import pytest

from tmgpanel import (
    BalancedPanel,
    PanelBlock,
    RequiresTGreaterKError,
    TrimConfig,
    chamberlain_phi,
    chamberlain_projectors,
    fe,
    fete,
    gp_te,
    tmg,
    tmg_te,
)
from tmgpanel.designs import PanelDesign, within
from tmgpanel.errors import SingularUnitGramError

from _helpers import random_panel

# a RuntimeWarning (say, a mean over no OK replication) is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def te_panel(rng, n=12, T=3, phi=None, noise=0.0, beta_spread=0.0):
    """Panel with known time effects; zero noise gives exact identification."""
    T_phi = T if phi is None else len(phi)
    assert T_phi == T
    if phi is None:
        phi = np.arange(1.0, T + 1)
        phi[-1] = -T * (T - 1) / 2.0
    phi = np.asarray(phi, dtype=float)
    x = rng.normal(1, 1, (n, T, 1))
    beta = 1.0 + beta_spread * rng.standard_normal(n)
    alpha = rng.standard_normal(n)
    y = alpha[:, None] + phi[None, :] + beta[:, None] * x[:, :, 0]
    if noise > 0:
        y = y + noise * rng.standard_normal((n, T))
    panel = BalancedPanel(
        y=y, x=x, unit_ids=tuple(range(n)), time_ids=tuple(range(T))
    )
    return panel, phi, beta


class TestFete:
    def test_recovers_phi_exactly(self, rng):
        p, phi, _ = te_panel(rng, n=10, T=3, phi=[1.0, -1.0, 0.0])
        est, te = fete(p)
        np.testing.assert_allclose(te.phi, phi, atol=1e-10)
        np.testing.assert_allclose(est.coef, [1.0], atol=1e-10)

    def test_two_period_phi(self, rng):
        p, phi, _ = te_panel(rng, n=10, T=2, phi=[1.0, -1.0])
        _, te = fete(p)
        np.testing.assert_allclose(te.phi, [1.0, -1.0], atol=1e-10)

    def test_equals_fe_when_xbar_constant(self, rng):
        # cross-section regressor means constant over t make the extra
        # de-meaning a no-op for the slope
        n, T = 9, 3
        w = rng.normal(0, 1, (n, T))
        w -= w.mean(axis=0, keepdims=True)  # zero cross-section mean each t
        x = (rng.normal(1, 1, n)[:, None] + w)[:, :, None]
        beta = 1.0 + 0.2 * rng.standard_normal(n)
        y = rng.standard_normal(n)[:, None] + beta[:, None] * x[:, :, 0]
        y += 0.3 * rng.standard_normal((n, T))
        p = BalancedPanel(y=y, x=x, unit_ids=tuple(range(n)), time_ids=(0, 1, 2))
        np.testing.assert_allclose(fete(p)[0].coef, fe(p).coef, atol=1e-10)

    def test_phi_sums_to_zero(self, rng):
        p = random_panel(rng, n=20, T=4)
        _, te = fete(p)
        assert abs(te.phi.sum()) <= 1e-10


class TestChamberlain:
    def test_projector_properties(self, rng):
        p = random_panel(rng, n=10, T=4, k_prime=2)
        proj = chamberlain_projectors(p)
        xd = within(p.x, axis=1)
        for i in range(p.n):
            m = proj.M[i]
            np.testing.assert_allclose(m @ m, m, atol=1e-9)
            np.testing.assert_allclose(m @ xd[i], 0.0, atol=1e-9)
            np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_exact_recovery_noiseless(self, rng):
        # projector annihilates X_i beta_i for arbitrary heterogeneous slopes
        p, phi, _ = te_panel(rng, n=15, T=3, phi=[1.0, 2.0, -3.0], beta_spread=0.7)
        te = chamberlain_phi(p)
        np.testing.assert_allclose(te.phi, phi, atol=1e-9)

    def test_requires_t_greater_k(self, rng):
        p = random_panel(rng, n=10, T=2, k_prime=1)
        with pytest.raises(RequiresTGreaterKError):
            chamberlain_phi(p)

    def test_phi_sums_to_zero(self, rng):
        p = random_panel(rng, n=25, T=3)
        te = chamberlain_phi(p)
        assert abs(te.phi.sum()) <= 1e-10


def scaled_panels(rng, scale, **kw):
    """Three random panels with regressors times ``scale``, and their block."""
    panels = []
    for _ in range(3):
        p = random_panel(rng, **kw)
        panels.append(
            BalancedPanel(y=p.y, x=p.x * scale, unit_ids=p.unit_ids, time_ids=p.time_ids)
        )
    block = PanelBlock(y=np.stack([p.y for p in panels]), x=np.stack([p.x for p in panels]))
    return panels, block


class TestProjectorFactors:
    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("extra", [1, 2, 3])
    @pytest.mark.parametrize("k_prime", [1, 2, 3])
    def test_factor_form_matches_formed_stack(self, rng, k_prime, extra, scale):
        # M_i v and M_bar from the factors equal the formed (n, T, T) stack
        # and its mean, on one panel and on a block, at T = k + 1 .. k + 3
        T = k_prime + 1 + extra
        panels, block = scaled_panels(rng, scale, n=30, T=T, k_prime=k_prime)
        for panel in (panels[0], block):
            proj = chamberlain_projectors(panel)
            M = proj.M
            # part of v lies in the regressor span, which M_i annihilates
            c = rng.standard_normal(panel.y.shape[:-1] + (k_prime,)) / scale
            v = rng.standard_normal(panel.y.shape) + np.einsum("...ntp,...np->...nt", panel.xd, c)
            np.testing.assert_allclose(
                proj.apply(v), (M @ v[..., None])[..., 0], rtol=1e-12, atol=1e-12 * abs(v).max()
            )
            np.testing.assert_allclose(proj.M_bar, M.mean(axis=-3), rtol=1e-12, atol=1e-12)

    def test_block_rows_keep_single_panel_bits(self, rng):
        # one matmul per replication: a replication's M_bar and M_i v are the
        # same bits in a block as on its own
        panels, block = scaled_panels(rng, 1.0, n=40, T=4, k_prime=2)
        proj = chamberlain_projectors(block)
        for b, panel in enumerate(panels):
            alone = chamberlain_projectors(panel)
            np.testing.assert_array_equal(proj.M_bar[b], alone.M_bar)
            np.testing.assert_array_equal(proj.apply(block.yd)[b], alone.apply(panel.yd))

    @pytest.mark.parametrize("k_prime", [1, 2, 3])
    def test_constant_regressor_fails_its_replication(self, rng, k_prime):
        panels, _ = scaled_panels(rng, 1.0, n=12, T=k_prime + 3, k_prime=k_prime)
        bad = panels[1]
        x = bad.x.copy()
        x[7, :, k_prime - 1] = 2.5  # unit 7: a constant regressor
        panels[1] = BalancedPanel(y=bad.y, x=x, unit_ids=bad.unit_ids, time_ids=bad.time_ids)
        with pytest.raises(SingularUnitGramError, match=r"units \[7\]"):
            chamberlain_projectors(panels[1])
        block = PanelBlock(y=np.stack([p.y for p in panels]), x=np.stack([p.x for p in panels]))
        fail = chamberlain_projectors(block).fail
        assert fail[0] is None and fail[2] is None
        assert isinstance(fail[1], SingularUnitGramError) and "units [7]" in str(fail[1])


class TestTmgTe:
    def test_system_branch_fixed_point(self, rng):
        # T = k: estimates must satisfy theta = theta_tmg - Qbar'phi and
        # phi = M_T(ybar - Wbar theta) simultaneously
        p = random_panel(rng, n=40, T=2)
        est, te = tmg_te(p)
        assert te.method == "system"
        from tmgpanel.designs import PanelDesign
        from tmgpanel.trimming import compute_threshold, delta_weights

        pd = PanelDesign(p)
        cfg = TrimConfig()
        st = delta_weights(pd.d, compute_threshold(pd.d, cfg))
        B = pd.bmats(st.a_n, st.trimmed)
        Q = np.einsum("ntk,nkj->ntj", pd.W, B)
        qbar = Q.mean(axis=0) / st.weight_scale
        theta_tmg = tmg(p, cfg).coef
        np.testing.assert_allclose(est.coef, theta_tmg - qbar.T @ te.phi, atol=1e-9)
        wbar = pd.W.mean(axis=0)
        np.testing.assert_allclose(
            te.phi, within(p.y.mean(axis=0) - wbar @ est.coef, axis=0), atol=1e-9
        )

    def test_chamberlain_branch_strips_phi(self, rng):
        # T > k with zero time effects: same coefficient as plain trimming on
        # the phi-stripped outcomes
        p, phi, _ = te_panel(rng, n=30, T=3, beta_spread=0.4, noise=0.6)
        est, te = tmg_te(p)
        assert te.method == "chamberlain"
        stripped = BalancedPanel(
            y=p.y - te.phi[None, :],
            x=p.x,
            unit_ids=p.unit_ids,
            time_ids=p.time_ids,
        )
        ref = tmg(stripped)
        np.testing.assert_allclose(est.coef, ref.coef, atol=1e-8)

    def test_zero_phi_data(self, rng):
        p = random_panel(rng, n=30, T=3)
        est, te = tmg_te(p)
        ref = tmg(
            BalancedPanel(
                y=p.y - te.phi[None, :], x=p.x, unit_ids=p.unit_ids, time_ids=p.time_ids
            )
        )
        np.testing.assert_allclose(est.coef, ref.coef, atol=1e-8)

    def test_exact_recovery_noiseless_teqk(self, rng):
        # noiseless homogeneous slopes: phi and the slope are recovered
        # exactly; the intercept is the trim-weighted mean of the true
        # unit effects
        n = 12
        x = rng.normal(1, 1, (n, 2, 1))
        alpha = rng.standard_normal(n)
        phi = np.array([1.0, -1.0])
        y = alpha[:, None] + phi[None, :] + 1.0 * x[:, :, 0]
        p = BalancedPanel(y=y, x=x, unit_ids=tuple(range(n)), time_ids=(0, 1))
        est, te = tmg_te(p)
        np.testing.assert_allclose(te.phi, phi, atol=1e-8)
        assert est.coef[1] == pytest.approx(1.0, abs=1e-8)
        from tmgpanel.designs import PanelDesign
        from tmgpanel.trimming import compute_threshold, delta_weights

        pd = PanelDesign(p)
        st = delta_weights(pd.d, compute_threshold(pd.d, TrimConfig()))
        alpha_w = (st.weights() * alpha).sum()
        assert est.coef[0] == pytest.approx(alpha_w, abs=1e-8)

    @pytest.mark.parametrize("T", [2, 3])
    def test_phi_normalized(self, rng, T):
        p = random_panel(rng, n=35, T=T)
        _, te = tmg_te(p)
        assert abs(te.phi.sum()) <= 1e-10

    @pytest.mark.parametrize("T", [2, 3])
    def test_shift_only_moves_intercept(self, rng, T):
        p = random_panel(rng, n=25, T=T)
        est1, te1 = tmg_te(p)
        c = 4.25
        p2 = BalancedPanel(y=p.y + c, x=p.x, unit_ids=p.unit_ids, time_ids=p.time_ids)
        est2, te2 = tmg_te(p2)
        np.testing.assert_allclose(est2.coef[0], est1.coef[0] + c, atol=1e-9)
        np.testing.assert_allclose(est2.coef[1:], est1.coef[1:], atol=1e-9)
        np.testing.assert_allclose(te2.phi, te1.phi, atol=1e-9)

    def test_system_cov_singular_in_tau_direction(self, rng):
        p = random_panel(rng, n=40, T=2)
        _, te = tmg_te(p)
        np.testing.assert_allclose(te.cov @ np.ones(p.T), 0.0, atol=1e-10)


class TestSolvedInverse:
    """``TimeEffects.inv``: the inverse the effects were solved through."""

    @pytest.mark.parametrize("k_prime", [1, 2])
    def test_projector_route_keeps_mbar_inverse(self, rng, k_prime):
        # T > k: M_bar^{-1}, with the bits of inverting the projector average
        # on each replication that does not fail; NaN on the one that does
        panels, _ = scaled_panels(rng, 1.0, n=30, T=k_prime + 2, k_prime=k_prime)
        bad = panels[1]
        x = bad.x.copy()
        x[4, :, 0] = 2.5  # unit 4: a constant regressor
        panels[1] = BalancedPanel(y=bad.y, x=x, unit_ids=bad.unit_ids, time_ids=bad.time_ids)
        block = PanelBlock(y=np.stack([p.y for p in panels]), x=np.stack([p.x for p in panels]))
        te = chamberlain_phi(block)
        assert te.fail[1] is not None and np.isnan(te.inv[1]).all()
        m_bar = chamberlain_projectors(block).M_bar
        for b in (0, 2):
            np.testing.assert_array_equal(te.inv[b], np.linalg.inv(m_bar[b]))
        np.testing.assert_array_equal(tmg_te(block)[1].inv, te.inv)  # TMG-TE's effects

    @pytest.mark.parametrize("k_prime", [1, 2, 3])
    def test_system_inverse_slope_block(self, rng, k_prime):
        # T = k: Wbar's intercept column de-means to 0, so the system's inverse
        # has first column e_1 and slope block (I_k' - Qbar_x'M_T Xbar)^{-1}
        for _ in range(5):
            p = random_panel(rng, n=40, T=k_prime + 1, k_prime=k_prime)
            est, te = tmg_te(p)
            assert te.method == "system"
            np.testing.assert_array_equal(te.inv[:, 0], np.eye(k_prime + 1)[:, 0])
            wt = est.weighting
            B = PanelDesign(p).bmats(wt.trim.a_n, wt.trim.trimmed)
            xd = within(p.x, axis=-2)
            qx_bar = np.einsum("ntp,npq->tq", xd, B[:, 1:, 1:]) / p.n / wt.scale
            a_x = np.eye(k_prime) - qx_bar.T @ within(p.x.mean(axis=0), axis=0)
            want = np.linalg.inv(a_x)
            np.testing.assert_allclose(
                te.inv[1:, 1:], want, rtol=1e-12, atol=1e-12 * abs(want).max()
            )

    @pytest.mark.parametrize("T", [2, 3])
    def test_shapes(self, rng, T):
        # (k, k) at T = k, (T, T) at T > k, stacked over a block; FE-TE has none
        p = random_panel(rng, n=20, T=T)
        block = PanelBlock(y=np.stack([p.y, p.y]), x=np.stack([p.x, p.x]))
        side = max(T, p.k_prime + 1)
        assert tmg_te(p)[1].inv.shape == (side, side)
        assert tmg_te(block)[1].inv.shape == (2, side, side)
        assert fete(p)[1].inv is None and fete(block)[1].inv is None


class TestGpTe:
    @pytest.mark.parametrize("T", [2, 3])
    def test_phi_normalized(self, rng, T):
        p = random_panel(rng, n=35, T=T)
        _, te = gp_te(p)
        assert abs(te.phi.sum()) <= 1e-10

    def test_chamberlain_branch_shares_phi(self, rng):
        # T > k: same period-effect estimator as the trimmed variant
        p = random_panel(rng, n=30, T=3)
        _, te_gp = gp_te(p)
        _, te_tmg = tmg_te(p)
        np.testing.assert_allclose(te_gp.phi, te_tmg.phi, atol=1e-12)
