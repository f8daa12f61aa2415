"""Every estimator against an independently coded brute-force implementation
on random small fixtures (naive matrix algebra, no adjugate shortcuts)."""

import numpy as np
import pytest

from tmgpanel import (
    BalancedPanel,
    SingularDesignError,
    SingularUnitGramError,
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

# the rank rule multiplies Gram diagonals and the fits divide by determinants:
# an overflow, a 0/0 or a mean over nothing is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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

    beta_fete, phi_fete, cov_fete, cov_phi_fete = oracles.fete_oracle(y, x)
    est, te = fete(panel)
    np.testing.assert_allclose(est.coef, beta_fete, rtol=RTOL, atol=1e-10)
    np.testing.assert_allclose(est.cov, cov_fete, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(te.phi, phi_fete, rtol=1e-8, atol=1e-10)
    np.testing.assert_allclose(te.cov, cov_phi_fete, rtol=1e-8, atol=1e-12)

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


# A second fixture set at the edges of the design: k' up to 3 (the k = 4
# cofactor path), T in {k, k + 1, k + 3}, one planted stayer per panel and
# regressor scales from 1e-3 to 1e3 (slopes scaled inversely, so the fit is
# as well determined at every scale). The stayer makes MG raise, and at T > k
# it leaves the projector route without an inverse, so those fits are checked
# on the panel without it. Next to the stayer sits a nearly singular unit,
# cond(W_i) between 1e3 and 1e4: far from the rank rule's tolerance, so every
# fit must keep it and still match its oracle.

NEAR_COND = (1e3, 1e4)


def near_singular_x(x_i, scale, rng):
    """x_i moved off a constant by a small step, so that cond(W_i) lands in
    NEAR_COND; the step is found from cond(W_i) being inverse to it when small."""
    T, k_prime = x_i.shape
    z = rng.standard_normal((T, k_prime))
    step = 1e-7
    cond = np.linalg.cond(oracles.unit_w(x_i + step * scale * z))
    step *= cond / 10.0 ** rng.uniform(3.2, 3.8)
    return x_i + step * scale * z


def stress_fixtures():
    rng = np.random.default_rng(20261018)
    out = []
    for k_prime in (1, 2, 3):
        for extra in (0, 1, 3):
            for rep in range(3):
                T = k_prime + 1 + extra
                n = int(rng.integers(8, 15))
                scale = 10.0 ** rng.uniform(-3.0, 3.0)
                x = scale * rng.normal(1.0, 1.0, (n, T, k_prime))
                stayer = int(rng.integers(n))
                # dyadic constants keep the stayer's Gram sums and d_i = 0 exact
                x[stayer] = 2.0 ** np.floor(np.log2(scale)) * rng.integers(1, 16, k_prime) / 8
                near = (stayer + 1) % n
                x[near] = near_singular_x(x[stayer], scale, np.random.default_rng(n * T + rep))
                beta = (1.0 + 0.3 * rng.standard_normal((n, k_prime))) / scale
                y = rng.standard_normal(n)[:, None] + np.einsum("ntp,np->nt", x, beta)
                y = y + rng.standard_normal(T) + 0.7 * rng.standard_normal((n, T))
                panel = BalancedPanel(
                    y=y, x=x, unit_ids=tuple(range(n)), time_ids=tuple(range(1, T + 1))
                )
                out.append(pytest.param(panel, stayer, id=f"k{k_prime}-T{T}-{rep}"))
    return out


STRESS = stress_fixtures()


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_near_singular_unit(panel, stayer):
    near = (stayer + 1) % panel.n
    cond = np.linalg.cond(oracles.unit_w(panel.x[near]))
    assert NEAR_COND[0] <= cond <= NEAR_COND[1]


def te_panel(panel, stayer):
    """The panel the time-effects fits run on: without the stayer at T > k,
    after checking that the projector route refuses it."""
    if panel.T == panel.k:
        return panel
    with pytest.raises(SingularUnitGramError, match=rf"units \[{stayer}\]$"):
        tmg_te(panel, TrimConfig(alpha=ALPHA))
    keep = np.arange(panel.n) != stayer
    return BalancedPanel(
        y=panel.y[keep],
        x=panel.x[keep],
        unit_ids=tuple(np.flatnonzero(keep).tolist()),
        time_ids=panel.time_ids,
    )


def assert_close(got, want, rtol):
    """Entrywise within ``rtol``, or within ``rtol`` of the largest entry."""
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.abs(want).max())


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_estimators_match_bruteforce(panel, stayer):
    y, x = panel.y, panel.x
    with pytest.raises(SingularDesignError) as exc:
        mg(panel)
    assert stayer in exc.value.units

    coef, cov = oracles.fe_oracle(y, x)
    est = fe(panel)
    assert_close(est.coef, coef, RTOL)
    assert_close(est.cov, cov, RTOL)

    coef, cov, pi_n = oracles.tmg_oracle(y, x, ALPHA)
    est = tmg(panel, TrimConfig(alpha=ALPHA))
    assert est.weighting.trim.trimmed[stayer]
    assert_close(est.coef, coef, RTOL)
    assert_close(est.cov, cov, RTOL)
    assert est.pi_n == pytest.approx(pi_n, abs=1e-12)

    coef, cov, pi_n = oracles.gp_oracle(y, x, ALPHA)
    est = gp(panel, ALPHA)
    assert not est.weighting.keep[stayer]
    assert_close(est.coef, coef, RTOL)
    assert_close(est.cov, cov, RTOL)
    assert est.pi_n == pytest.approx(pi_n, abs=1e-12)


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_time_effects_match_bruteforce(panel, stayer):
    beta, phi, cov, cov_phi = oracles.fete_oracle(panel.y, panel.x)
    est, te = fete(panel)
    assert_close(est.coef, beta, RTOL)
    assert_close(est.cov, cov, RTOL)
    assert_close(te.phi, phi, RTOL)
    assert_close(te.cov, cov_phi, RTOL)

    p = te_panel(panel, stayer)
    y, x = p.y, p.x
    if p.T > p.k:
        phi, cov = oracles.chamberlain_oracle(y, x)
        te = chamberlain_phi(p)
        assert_close(te.phi, phi, RTOL)
        assert_close(te.cov, cov, RTOL)

    coef, phi = oracles.tmgte_oracle(y, x, ALPHA)
    est, te = tmg_te(p, TrimConfig(alpha=ALPHA))
    assert_close(est.coef, coef, RTOL)
    assert_close(te.phi, phi, RTOL)

    coef, phi = oracles.gpte_oracle(y, x, ALPHA)
    est, te = gp_te(p, ALPHA)
    assert_close(est.coef, coef, RTOL)
    assert_close(te.phi, phi, RTOL)


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_hausman_match_bruteforce(panel, stayer):
    stat, delta = oracles.hausman_oracle(panel.y, panel.x, ALPHA)
    res = hausman_no_te(panel, TrimConfig(alpha=ALPHA))
    assert_close(res.delta, delta, RTOL)
    assert res.statistic == pytest.approx(stat, rel=RTOL)

    p = te_panel(panel, stayer)
    stat, delta = oracles.hausman_te_oracle(p.y, p.x, ALPHA)
    res = hausman_te(p, TrimConfig(alpha=ALPHA))
    assert_close(res.delta, delta, RTOL)
    assert res.statistic == pytest.approx(stat, rel=RTOL)


def permuted(panel, rng):
    perm = rng.permutation(panel.n)
    return BalancedPanel(
        y=panel.y[perm],
        x=panel.x[perm],
        unit_ids=tuple(panel.unit_ids[i] for i in perm),
        time_ids=panel.time_ids,
    )


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_unit_order_does_not_matter(panel, stayer):
    rng = np.random.default_rng(panel.n)
    cfg = TrimConfig(alpha=ALPHA)
    fits = [
        fe,
        lambda p: tmg(p, cfg),
        lambda p: gp(p, ALPHA),
        lambda p: fete(p)[0],
    ]
    te_fits = [lambda p: tmg_te(p, cfg)[0], lambda p: gp_te(p, ALPHA)[0]]
    p = te_panel(panel, stayer)
    for base, fit in [(panel, f) for f in fits] + [(p, f) for f in te_fits]:
        assert_close(fit(permuted(base, rng)).coef, fit(base).coef, 1e-12)

    for base, test in [(panel, hausman_no_te), (p, hausman_te)]:
        stat = test(base, cfg).statistic
        assert test(permuted(base, rng), cfg).statistic == pytest.approx(stat, rel=1e-10)


@pytest.mark.parametrize("panel,stayer", STRESS)
def test_stress_trimming_ignores_regressor_scale(panel, stayer):
    # a power-of-two scale multiplies every d_i and a_n exactly (trimming.py)
    base = tmg(panel, TrimConfig(alpha=ALPHA))
    for s in (2.0**-10, 2.0**10):
        scaled = BalancedPanel(
            y=panel.y, x=panel.x * s, unit_ids=panel.unit_ids, time_ids=panel.time_ids
        )
        est = tmg(scaled, TrimConfig(alpha=ALPHA))
        np.testing.assert_array_equal(est.weighting.trim.trimmed, base.weighting.trim.trimmed)
        assert est.pi_n == base.pi_n
