import numpy as np
import pytest

from tmgpanel import (
    DgpConfig,
    ScenarioError,
    calibrate_kappa,
    generate_replication,
    gp,
    run_experiment,
    with_calibrated_kappa,
)
from tmgpanel.designs import PanelDesign
from tmgpanel.montecarlo import (
    default_power_grid,
    load_scenario,
    scenario_from_dict,
    standardized_quadratic,
)


def base_cfg(**kw):
    kw.setdefault("n", 200)
    kw.setdefault("T", 2)
    kw.setdefault("rho_alpha", 0.5)
    kw.setdefault("rho_beta", 0.5)
    kw.setdefault("kappa2", 15.5)
    kw.setdefault("seed", 123)
    return DgpConfig(**kw)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ScenarioError):
            DgpConfig(n=1, T=2)
        with pytest.raises(ScenarioError):
            DgpConfig(n=10, T=2, pr2=0.0)
        with pytest.raises(ScenarioError):
            DgpConfig(n=10, T=2, rho_beta=1.0)
        with pytest.raises(ScenarioError):
            DgpConfig(n=10, T=2, y_error_dist="cauchy")

    def test_derived_parameters_consistent(self):
        cfg = base_cfg(sigma2_beta=0.5, rho_beta=0.5)
        assert cfg.psi_beta == pytest.approx(0.5 * np.sqrt(0.5))
        assert cfg.sigma2_eps_beta == pytest.approx(0.75 * 0.5)
        # decomposition reproduces the total slope variance
        assert cfg.psi_beta**2 + cfg.sigma2_eps_beta == pytest.approx(0.5)

    def test_phi_normalization(self):
        cfg = base_cfg(T=4, time_effects=True)
        phi = cfg.phi()
        np.testing.assert_allclose(phi[:-1], [1.0, 2.0, 3.0])
        assert phi[-1] == -6.0
        assert phi.sum() == 0.0


class TestGenerate:
    def test_degenerate_noise_exact(self):
        cfg = base_cfg(
            sigma2_alpha=0.0, sigma2_beta=0.0, rho_alpha=0.0, rho_beta=0.0,
            kappa2=0.0, time_effects=True,
        )
        panel, truth = generate_replication(cfg, 0)
        want = 1.0 + truth.phi[None, :] + panel.x[:, :, 0]
        np.testing.assert_allclose(panel.y, want, atol=1e-12)
        np.testing.assert_allclose(truth.theta, 1.0, atol=1e-14)

    def test_t2_gaussian_lambda_formula(self):
        # T = 2, gaussian innovations: lambda = (e'Me - 1)/sqrt(2)
        rng = np.random.default_rng(5)
        e = rng.standard_normal((500, 2))
        lam = standardized_quadratic(e, 2, 0.0)
        q = 0.5 * (e[:, 0] - e[:, 1]) ** 2
        np.testing.assert_allclose(lam, (q - 1.0) / np.sqrt(2.0), atol=1e-12)

    def test_lambda_moments(self):
        # E -> 0, Var -> 1 within 3 MC standard errors over 1e5 draws
        cfg = base_cfg(n=100_000, T=3)
        _, truth = generate_replication(cfg, 0)
        lam = truth.lam
        m = lam.size
        se_mean = lam.std(ddof=1) / np.sqrt(m)
        assert abs(lam.mean()) <= 3 * se_mean
        v = lam.var(ddof=1)
        se_var = np.sqrt(np.var((lam - lam.mean()) ** 2, ddof=1) / m)
        assert abs(v - 1.0) <= 3 * se_var

    def test_lambda_equals_standardized_determinant(self):
        # static regressors without factors: lambda is the standardized
        # d_i/(T sigma_ix^2) quadratic form
        cfg = base_cfg(n=500, T=3, rho_ix_mode="zero")
        panel, truth = generate_replication(cfg, 1)
        d = PanelDesign(panel).d
        T = cfg.T
        q = d / (T * truth.sigma_ix**2)
        lam = (q - (T - 1)) / np.sqrt(2.0 * (T - 1))
        np.testing.assert_allclose(lam, truth.lam, rtol=1e-10, atol=1e-10)

    def test_theta_moments(self):
        # Var(beta_i) -> sigma_beta^2 and Corr(beta_i, lambda_i) -> rho_beta
        cfg = base_cfg(n=1_000_000, T=2)
        _, truth = generate_replication(cfg, 2)
        beta = truth.theta[:, 1]
        m = beta.size
        v = beta.var(ddof=1)
        se_v = np.sqrt(np.var((beta - beta.mean()) ** 2, ddof=1) / m)
        assert abs(v - 0.5) <= 3 * se_v
        corr = np.corrcoef(beta, truth.lam)[0, 1]
        assert abs(corr - 0.5) <= 3 * np.sqrt((1 - 0.5**2) ** 2 / m) + 0.01

    def test_requires_kappa(self):
        cfg = base_cfg(kappa2=None)
        with pytest.raises(ScenarioError):
            generate_replication(cfg, 0)

    def test_uniform_x_errors(self):
        cfg = base_cfg(n=50_000, T=2, x_error_dist="uniform", rho_ix_mode="zero")
        assert cfg.excess_kurtosis_x == pytest.approx(-1.2)
        _, truth = generate_replication(cfg, 0)
        assert abs(truth.lam.mean()) < 0.05
        assert abs(truth.lam.var() - 1.0) < 0.05

    def test_heteroskedasticity_cases(self):
        for het in ("random", "lambda2", "ex2"):
            cfg = base_cfg(n=500, heterosked=het)
            panel, truth = generate_replication(cfg, 3)
            assert np.isfinite(panel.y).all()

    def test_serially_correlated_errors(self):
        cfg = base_cfg(n=40_000, T=8, rho_ie_mode="uniform095", kappa2=1.0)
        _, truth = generate_replication(cfg, 4)
        u = truth.u
        # unit-variance errors on average despite serial correlation
        assert abs((u**2).mean() - 1.0) < 0.05
        lag1 = (u[:, 1:] * u[:, :-1]).mean()
        assert lag1 > 0.2  # positive average autocorrelation


class TestCalibration:
    def test_realized_fit_matches_target(self):
        # with calibrated kappa^2, the realized pooled fit is within 0.01
        cfg = DgpConfig(n=5000, T=2, rho_alpha=0.5, rho_beta=0.5, seed=77)
        k2 = calibrate_kappa(cfg, r_kappa=150, n_cal=5000)
        cfg = base_cfg(n=5000, seed=77, kappa2=k2)
        num = den = 0.0
        reps = 200
        for r in range(reps):
            panel, truth = generate_replication(cfg, r)
            u = truth.u
            bx = truth.theta[:, 1][:, None] * panel.x[:, :, 0]
            num += u.var()
            den += (bx + u).var()
        pr2_hat = 1.0 - num / den
        assert pr2_hat == pytest.approx(cfg.pr2, abs=0.01)

    def test_with_calibrated_kappa_passthrough(self):
        cfg = base_cfg(kappa2=3.0)
        assert with_calibrated_kappa(cfg) is cfg


class TestRunExperiment:
    def test_homogeneous_noiseless_zero_error(self):
        cfg = base_cfg(
            n=60, sigma2_alpha=0.0, sigma2_beta=0.0, rho_alpha=0.0, rho_beta=0.0,
            kappa2=0.0,
        )
        results = run_experiment(cfg, ["fe", "mg", "tmg", "gp"], reps=5)
        for res in results:
            np.testing.assert_allclose(res.bias, 0.0, atol=1e-9)
            np.testing.assert_allclose(res.rmse, 0.0, atol=1e-9)
            assert res.failures == 0

    def test_metrics_shape_and_invariants(self):
        cfg = base_cfg(n=150)
        results = run_experiment(cfg, ["tmg", "hausman"], reps=30)
        by_tag = {r.estimator: r for r in results}
        tmg_res = by_tag["tmg"]
        assert tmg_res.coef_names == ("beta",)
        assert np.all(tmg_res.rmse >= np.abs(tmg_res.bias))
        assert 0.0 <= tmg_res.size[0] <= 1.0
        assert 0.0 <= by_tag["hausman"].size[0] <= 1.0
        assert tmg_res.reps == 30

    def test_te_tags_report_phi(self):
        cfg = base_cfg(n=150, T=3, time_effects=True)
        results = run_experiment(cfg, ["tmgte"], reps=10)
        assert results[0].coef_names == ("beta", "phi1", "phi2")
        assert results[0].bias.shape == (3,)

    def test_power_curve(self):
        cfg = base_cfg(n=150)
        grid = default_power_grid(1.0, points=5)
        results = run_experiment(cfg, ["tmg"], reps=40, beta0_grid=grid)
        curve = results[0].power_curve
        assert len(curve) == 5
        assert curve[2][0] == pytest.approx(1.0)
        rates = [c[1] for c in curve]
        assert all(0.0 <= r <= 1.0 for r in rates)

    def test_reproducible_across_jobs(self):
        cfg = base_cfg(n=80, seed=31)
        res1 = run_experiment(cfg, ["fe", "tmg"], reps=8, jobs=1)
        res2 = run_experiment(cfg, ["fe", "tmg"], reps=8, jobs=2)
        for a, b in zip(res1, res2):
            np.testing.assert_array_equal(a.bias, b.bias)
            np.testing.assert_array_equal(a.rmse, b.rmse)
            np.testing.assert_array_equal(a.size, b.size)
            assert a.pi_hat == b.pi_hat

    def test_same_seed_same_results(self):
        cfg = base_cfg(n=80, seed=99)
        r1 = run_experiment(cfg, ["tmg"], reps=6)
        r2 = run_experiment(cfg, ["tmg"], reps=6)
        np.testing.assert_array_equal(r1[0].bias, r2[0].bias)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ScenarioError):
            run_experiment(base_cfg(), ["nope"], reps=2)

    def test_estimator_failures_counted_and_skipped(self):
        # an absurd explicit threshold trims every unit in every replication
        from tmgpanel import TrimConfig

        cfg = base_cfg(n=50)
        res = run_experiment(
            cfg, ["tmg", "fe"], reps=4, trim_cfg=TrimConfig(alpha=0.5, c_n=1e12)
        )
        by_tag = {r.estimator: r for r in res}
        assert by_tag["tmg"].failures == 4 and by_tag["tmg"].reps == 0
        assert np.isnan(by_tag["tmg"].bias).all()
        assert by_tag["fe"].failures == 0 and by_tag["fe"].reps == 4

    def test_undefined_se_counts_as_failure(self):
        # with three units GP sometimes keeps one: a finite estimate with no
        # standard error, which cannot be tested and must not count as a
        # non-rejection
        cfg = base_cfg(n=3)
        reps = 130
        single = [
            r for r in range(reps) if gp(generate_replication(cfg, r)[0]).n_used == 1
        ]
        assert single
        (res,) = run_experiment(cfg, ["gp"], reps=reps)
        assert res.failures == len(single)
        assert res.reps == reps - len(single)
        assert np.isfinite(res.size).all()


@pytest.mark.parametrize(
    "T, tags",
    [
        (2, ["fe", "mg", "tmg", "gp", "hausman"]),
        (3, ["fete", "tmgte", "gpte", "hausman_te"]),
    ],
)
def test_replication_computes_each_shared_piece_once(monkeypatch, T, tags):
    # the tags of one replication share one design, one set of projectors
    # and one fit of each estimator that several of them compare
    import sys

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for k, m in sys.modules.items() if k.startswith("tmgpanel")]
    from tmgpanel import designs, estimators, timeeffects

    for home, name in [
        (designs, "chamberlain_projectors"),
        (estimators, "fe"),
        (estimators, "tmg"),
        (timeeffects, "chamberlain_phi"),
        (timeeffects, "fete"),
        (timeeffects, "tmg_te"),
    ]:
        original = getattr(home, name)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted(name, original))
    monkeypatch.setattr(
        PanelDesign, "__init__", counted("PanelDesign", PanelDesign.__init__)
    )
    cfg = base_cfg(n=100, T=T, time_effects=T > 2)
    results = run_experiment(cfg, tags, reps=1)
    assert all(r.failures == 0 for r in results)
    assert counts.pop("PanelDesign") == 1
    assert counts and all(c == 1 for c in counts.values()), counts


class TestScenario:
    def test_roundtrip(self, tmp_path):
        import json

        payload = {
            "n": 100,
            "T": 2,
            "rho_beta": 0.5,
            "rho_alpha": 0.5,
            "kappa2": 15.5,
            "estimators": ["tmg"],
            "reps": 10,
            "trim_alpha": 0.34,
        }
        path = tmp_path / "scen.json"
        path.write_text(json.dumps(payload))
        cfg, extras = load_scenario(path)
        assert cfg.n == 100 and cfg.rho_beta == 0.5
        assert extras["reps"] == 10 and extras["trim_alpha"] == 0.34

    def test_unknown_field_flagged(self):
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict({"n": 10, "T": 2, "bogus": 1})
        assert "bogus" in str(exc.value)

    def test_missing_required(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"T": 2})
