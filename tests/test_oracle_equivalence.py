"""Every estimator against an independently coded brute-force implementation
on random small fixtures (naive matrix algebra, no adjugate shortcuts)."""

import numpy as np
import pytest

from tmgpanel import (
    TrimConfig,
    chamberlain_phi,
    fe,
    fete,
    gp,
    gp_te,
    hausman_no_te,
    hausman_te,
    mg,
    tmg,
    tmg_te,
)

import oracles
from _helpers import random_panel

N_FIXTURES = 100
RTOL = 1e-9


def fixtures():
    rng = np.random.default_rng(987654321)
    out = []
    for idx in range(N_FIXTURES):
        k_prime = int(rng.integers(1, 3))
        T = int(rng.integers(k_prime + 1, 5))
        n = int(rng.integers(max(4, k_prime + 2), 11))
        out.append((idx, random_panel(rng, n=n, T=T, k_prime=k_prime, noise=0.7)))
    return out


FIXTURES = fixtures()
ALPHA = 1 / 3


@pytest.mark.parametrize("idx,panel", FIXTURES)
def test_estimators_match_bruteforce(idx, panel):
    y, x = panel.y, panel.x

    beta_fe, cov_fe = oracles.fe_oracle(y, x)
    est = fe(panel)
    np.testing.assert_allclose(est.coef, beta_fe, rtol=RTOL, atol=1e-12)
    np.testing.assert_allclose(est.cov, cov_fe, rtol=1e-8, atol=1e-12)

    coef_mg, cov_mg = oracles.mg_oracle(y, x)
    est = mg(panel)
    np.testing.assert_allclose(est.coef, coef_mg, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(est.cov, cov_mg, rtol=1e-8, atol=1e-10)

    coef_t, cov_t, pi_t = oracles.tmg_oracle(y, x, ALPHA)
    est = tmg(panel, TrimConfig(alpha=ALPHA))
    np.testing.assert_allclose(est.coef, coef_t, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(est.cov, cov_t, rtol=1e-8, atol=1e-10)
    assert est.pi_n == pytest.approx(pi_t, abs=1e-12)

    coef_g, cov_g, pi_g = oracles.gp_oracle(y, x, ALPHA)
    est = gp(panel, ALPHA)
    np.testing.assert_allclose(est.coef, coef_g, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(est.cov, cov_g, rtol=1e-8, atol=1e-10)
    assert est.pi_n == pytest.approx(pi_g, abs=1e-12)


@pytest.mark.parametrize("idx,panel", FIXTURES)
def test_time_effects_match_bruteforce(idx, panel):
    y, x = panel.y, panel.x

    beta_fete, phi_fete = oracles.fete_oracle(y, x)
    est, te = fete(panel)
    np.testing.assert_allclose(est.coef, beta_fete, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(te.phi, phi_fete, rtol=1e-8, atol=1e-10)

    if panel.T > panel.k:
        phi_c, cov_c = oracles.chamberlain_oracle(y, x)
        te = chamberlain_phi(panel)
        np.testing.assert_allclose(te.phi, phi_c, rtol=RTOL, atol=1e-10)
        np.testing.assert_allclose(te.cov, cov_c, rtol=1e-8, atol=1e-12)

    coef_te, phi_te = oracles.tmgte_oracle(y, x, ALPHA)
    est, te = tmg_te(panel, TrimConfig(alpha=ALPHA))
    np.testing.assert_allclose(est.coef, coef_te, rtol=RTOL, atol=1e-9)
    np.testing.assert_allclose(te.phi, phi_te, rtol=1e-8, atol=1e-9)

    coef_gte, phi_gte = oracles.gpte_oracle(y, x, ALPHA)
    est, te = gp_te(panel, ALPHA)
    np.testing.assert_allclose(est.coef, coef_gte, rtol=RTOL, atol=1e-9)
    np.testing.assert_allclose(te.phi, phi_gte, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("idx,panel", FIXTURES)
def test_hausman_match_bruteforce(idx, panel):
    y, x = panel.y, panel.x
    stat, delta = oracles.hausman_oracle(y, x, ALPHA)
    res = hausman_no_te(panel, TrimConfig(alpha=ALPHA))
    np.testing.assert_allclose(res.delta, delta, rtol=RTOL, atol=1e-12)
    assert res.statistic == pytest.approx(stat, rel=1e-8)

    stat_te, delta_te = oracles.hausman_te_oracle(y, x, ALPHA)
    res = hausman_te(panel, TrimConfig(alpha=ALPHA))
    np.testing.assert_allclose(res.delta, delta_te, rtol=1e-8, atol=1e-12)
    assert res.statistic == pytest.approx(stat_te, rel=1e-8)
