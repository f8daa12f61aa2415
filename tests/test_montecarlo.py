import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tmgpanel
from tmgpanel import (
    DgpConfig,
    ScenarioError,
    calibrate_kappa,
    generate_replication,
    gp,
    run_experiment,
)
from tmgpanel.designs import PanelDesign
from tmgpanel.montecarlo import (
    load_scenario,
    scenario_from_dict,
    standardized_quadratic,
)

# a RuntimeWarning (say, a mean over no OK replication) is an error here
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"r_kappa": 0}, "r_kappa must be an integer >= 1 and at most 1000000, got 0"),
            ({"r_kappa": 2.5}, "r_kappa must be an integer >= 1 and at most 1000000, got 2.5"),
            ({"r_kappa": True}, "r_kappa must be an integer >= 1"),
            ({"n_cal": 1}, "n_cal must be an integer from 2 to 10000000, got 1"),
            ({"n_cal": 50.0}, "n_cal must be an integer from 2 to 10000000, got 50.0"),
            ({"n_cal": 10**14}, "n_cal must be an integer from 2 to 10000000"),
        ],
    )
    def test_arguments_checked_by_the_field_table(self, kwargs, message):
        # the library call fails at its boundary, naming the argument, before
        # it draws anything
        with pytest.raises(ScenarioError) as exc:
            calibrate_kappa(DgpConfig(n=50, T=2), **{"r_kappa": 3, "n_cal": 50, **kwargs})
        assert message in str(exc.value)


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
        grid = np.linspace(0.5, 1.5, 5)
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

    @pytest.mark.parametrize(
        "name,value", [("reps", 0), ("reps", True), ("reps", 2.5), ("jobs", 0), ("jobs", -3),
                       ("jobs", True), ("jobs", 1.5)],
    )
    def test_reps_and_jobs_must_be_positive_integers(self, name, value):
        args = {"reps": 2, "jobs": 1, name: value}
        with pytest.raises(ScenarioError, match=f"{name} must be an integer >= 1"):
            run_experiment(base_cfg(n=20), ["fe"], **args)

    def test_workers_capped_at_the_cores(self, monkeypatch):
        # jobs=64 on two cores starts two workers, and the results are those
        # of one; the pool runs in this process and records its size
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = base_cfg(n=80, seed=31)
        one = run_experiment(cfg, ["fe", "tmg", "hausman"], reps=8, jobs=1)
        many = run_experiment(cfg, ["fe", "tmg", "hausman"], reps=8, jobs=64)
        assert sizes == [2]
        for a, b in zip(one, many):
            _fields_equal(a, b)

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
        assert res.failures_by_reason == {"NonFiniteStandardError": len(single)}
        assert res.reps == reps - len(single)
        assert np.isfinite(res.size).all()


#: The counted pieces that the tags of each T compute.
_PIECES = {
    2: {"fe", "tmg", "hausman_no_te"},
    3: {"chamberlain_projectors", "chamberlain_phi", "fete", "tmg_te", "hausman_te"},
}


@pytest.mark.parametrize(
    "T, tags",
    [
        (2, ["fe", "mg", "tmg", "gp", "hausman"]),
        (3, ["fete", "tmgte", "gpte", "hausman_te"]),
    ],
)
def test_replication_computes_each_shared_piece_once(monkeypatch, T, tags):
    # the tags of one block of replications share one design, one set of
    # projectors and one fit of each estimator that several of them compare,
    # and the Hausman tags run the tests themselves
    import sys

    from tmgpanel import montecarlo

    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    modules = [m for k, m in sys.modules.items() if k.startswith("tmgpanel")]
    from tmgpanel import designs, estimators, hausman, timeeffects

    for home, name in [
        (designs, "chamberlain_projectors"),
        (estimators, "fe"),
        (estimators, "tmg"),
        (timeeffects, "chamberlain_phi"),
        (timeeffects, "fete"),
        (timeeffects, "tmg_te"),
        (hausman, "hausman_no_te"),
        (hausman, "hausman_te"),
    ]:
        # one wrapper per fit, installed in every module that holds the fit:
        # a block caches a fit by its function object
        original = getattr(home, name)
        wrapper = counted(name, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(
        PanelDesign, "__init__", counted("PanelDesign", PanelDesign.__init__)
    )
    cfg = base_cfg(n=100, T=T, time_effects=T > 2)
    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 3 * 100)  # blocks of 2 and 3
    results = run_experiment(cfg, tags, reps=5)
    assert all(r.failures == 0 for r in results)
    assert counts.pop("PanelDesign") == 2
    assert set(counts) == _PIECES[T], counts
    assert all(c == 2 for c in counts.values()), counts


@pytest.mark.parametrize(
    "T,tags", [(2, ["fe", "tmg", "hausman"]), (3, ["fete", "tmgte", "hausman_te"])]
)
def test_hausman_reads_the_pooled_fit(monkeypatch, T, tags):
    # a pooled fit forms two pooled sums, Psi and sum xw'y; the Hausman test
    # reads the fit's scores, bread and residuals and forms none of its own
    import sys

    from tmgpanel import designs, montecarlo

    calls = []
    original = designs.pooled

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("tmgpanel") and getattr(mod, "pooled", None) is original:
            monkeypatch.setattr(mod, "pooled", counted)
    cfg = base_cfg(n=100, T=T, time_effects=T > 2)
    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 3 * 100)  # blocks of 2 and 3
    results = run_experiment(cfg, tags, reps=5)
    assert all(r.failures == 0 for r in results)
    assert len(calls) == 2 * 2, calls  # one pooled fit in each of the two blocks


def _fields_equal(a, b):
    import dataclasses

    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y, err_msg=f.name)
        else:
            assert x == y or (x != x and y != y), (f.name, x, y)


@pytest.mark.parametrize(
    "cfg",
    [
        base_cfg(n=3, T=2),
        base_cfg(n=3, T=3, time_effects=True),
        base_cfg(n=3, T=4, time_effects=True),
    ],
    ids=["T2", "T3-te", "T4-te"],
)
def test_results_independent_of_block_size_and_jobs(monkeypatch, cfg):
    # every McResult field is identical for one replication per block, an
    # intermediate block, the whole run in one block, and one to three workers;
    # the tiny designs make failures (GP keeping one unit) part of the check
    from tmgpanel import montecarlo
    from tmgpanel.montecarlo import ESTIMATOR_TAGS, TEST_TAGS

    tags = list(ESTIMATOR_TAGS + TEST_TAGS)
    reps = 40
    runs = []
    blocks = []  # replications per block of each single-worker run
    original = montecarlo._block_records

    def counted(cfg, block, *args):
        blocks[-1].append(len(block))
        return original(cfg, block, *args)

    monkeypatch.setattr(montecarlo, "_block_records", counted)
    # run_experiment starts no more workers than there are cores: allow three
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    for cap in (cfg.n, 4 * cfg.n, reps * cfg.n):
        monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", cap)
        for jobs in (1, 2, 3):  # three workers take 13 + 13 + 14 replications
            blocks.append([])
            runs.append(run_experiment(cfg, tags, reps, beta0_grid=[0.5, 1.0], jobs=jobs))
    # the workers count in their own processes
    assert blocks[::3] == [[1] * reps, [4] * (reps // 4), [reps]]
    assert any(r.failures for r in runs[0])
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            _fields_equal(a, b)


@pytest.mark.parametrize(
    "n,reps,sizes",
    [
        (1000, 6, [3, 3]),
        (1000, 10, [3, 3, 4]),
        (1000, 2000, [4] * 500),
        (1000, 1, [1]),
        (5000, 3, [1, 1, 1]),
        (100, 45, [22, 23]),
    ],
)
def test_fewest_balanced_blocks(n, reps, sizes):
    # the fewest blocks of at most MAX_BLOCK_UNITS units, as equal as possible
    from tmgpanel.montecarlo import _blocks, block_size

    blocks = _blocks(list(range(reps)), block_size(n))
    assert [len(b) for b in blocks] == sizes
    assert [r for b in blocks for r in b] == list(range(reps))


def _assert_row(block_fit, one, b, tag):
    """Every field of a single-panel result equals row ``b`` of the block's."""
    import dataclasses

    if isinstance(one, tuple):
        for part_block, part_one in zip(block_fit, one):
            _assert_row(part_block, part_one, b, tag)
        return
    for f in dataclasses.fields(one):
        got, want = getattr(block_fit, f.name), getattr(one, f.name)
        where = f"{tag}.{type(one).__name__}.{f.name}"
        if f.name == "fail":
            assert want is None and got[b] is None, where
        elif dataclasses.is_dataclass(want):
            _assert_row(got, want, b, tag)
        elif isinstance(got, np.ndarray):
            assert np.shape(got[b]) == np.shape(want), where
            np.testing.assert_array_equal(got[b], want, err_msg=where)
        else:
            assert got == want, where


def test_failing_replication_fails_alone():
    # a block of three panels whose middle one has a constant regressor: only
    # that replication fails, with the reason each estimator meets first (with
    # an explicit C_n its every d_i = 0 is trimmed, so 1 + delta_bar = 0), and
    # without a RuntimeWarning. A single panel is fitted as its block of one:
    # every field of the others' single-panel fits equals their row of the
    # block, and the failing panel raises the exception the block records
    from tmgpanel import PanelBlock, TrimConfig, fe, fete, gp_te, hausman_no_te, hausman_te
    from tmgpanel import mg, tmg, tmg_te

    from _helpers import random_panel

    rng = np.random.default_rng(11)
    for T, c_n in [(2, None), (3, None), (2, 1.0), (3, 1.0)]:
        panels = [random_panel(rng, n=20, T=T) for _ in range(3)]
        bad = panels[1]
        panels[1] = type(bad)(
            y=bad.y, x=np.full_like(bad.x, 2.5), unit_ids=bad.unit_ids, time_ids=bad.time_ids
        )
        block = PanelBlock(y=np.stack([p.y for p in panels]), x=np.stack([p.x for p in panels]))
        cfg = TrimConfig(c_n=c_n)
        no_threshold = "AllSingularError" if c_n is None else "AllTrimmedError"
        fits = {
            "fe": (fe, "SingularPooledGramError"),
            "fete": (fete, "SingularPooledGramError"),
            "mg": (mg, "SingularDesignError"),
            "tmg": (lambda p: tmg(p, cfg), no_threshold),
            "gp": (gp, "AllTrimmedError"),
            "tmgte": (lambda p: tmg_te(p, cfg), no_threshold),
            "gpte": (gp_te, "AllTrimmedError"),
            "hausman": (lambda p: hausman_no_te(p, cfg), "SingularPooledGramError"),
            "hausman_te": (lambda p: hausman_te(p, cfg), "SingularPooledGramError"),
        }
        for tag, (fit, reason) in fits.items():
            where = (tag, T, c_n)
            got = fit(block)
            head = got[0] if isinstance(got, tuple) else got
            assert head.fail[0] is None and head.fail[2] is None, where
            assert type(head.fail[1]).__name__ == reason, (where, head.fail[1])
            with pytest.raises(type(head.fail[1])) as raised:
                fit(panels[1])
            assert str(raised.value) == str(head.fail[1]), where
            if tag.startswith("hausman"):
                assert np.isnan(got.statistic[1]) and np.isnan(got.p_value[1])
            else:
                assert np.isnan(head.coef[1]).all() and np.isnan(head.cov[1]).all()
            for b in (0, 2):
                _assert_row(got, fit(panels[b]), b, where)


def test_failures_counted_by_reason():
    from tmgpanel import TrimConfig

    cfg = base_cfg(n=3)
    res = run_experiment(
        cfg, ["tmg", "gp", "fe"], reps=40, trim_cfg=TrimConfig(alpha=0.5, c_n=1e12)
    )
    by_tag = {r.estimator: r for r in res}
    assert by_tag["tmg"].failures_by_reason == {"AllTrimmedError": 40}
    gp_res = by_tag["gp"]
    assert gp_res.failures and sum(gp_res.failures_by_reason.values()) == gp_res.failures
    assert set(gp_res.failures_by_reason) <= {"AllTrimmedError", "NonFiniteStandardError"}
    assert by_tag["fe"].failures_by_reason == {}
    rows = by_tag["tmg"].rows()
    assert rows[-2:] == [
        ("tmg", "failures", "", 40.0),
        ("tmg", "failures.AllTrimmedError", "", 40.0),
    ]


def test_block_shaped_failure_fails_every_replication(monkeypatch):
    # a fit that raises for the whole block fails each of its replications
    # with that reason, and leaves the other tags alone
    from tmgpanel import AllTrimmedError, montecarlo

    def raises(block, trim_cfg, alpha_gp):
        raise AllTrimmedError("every unit trimmed")

    monkeypatch.setitem(montecarlo._TAG_FITS, "tmgte", raises)
    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 2 * 50)  # blocks of 2, 2 and 1
    cfg = base_cfg(n=50, T=3, time_effects=True)
    bad, good = run_experiment(cfg, ["tmgte", "fete"], reps=5, beta0_grid=[1.0])
    assert (bad.reps, bad.failures) == (0, 5)
    assert bad.failures_by_reason == {"AllTrimmedError": 5}
    assert bad.bias.shape == (3,) and np.isnan(bad.bias).all() and bad.power_curve is None
    assert (good.reps, good.failures) == (5, 0) and good.power_curve is not None


def _oracle_replication(tag, panel, trim_cfg):
    """One replication fitted alone: (coef row, se row, pi) or (statistic,
    p-value, 0) for a test, and the failure reason; NaN rows if it raised."""
    from tmgpanel import NumericalError, fe, fete, gp_te, hausman_no_te, hausman_te
    from tmgpanel import mg, tmg, tmg_te

    fits = {
        "fe": lambda: fe(panel),
        "mg": lambda: mg(panel),
        "tmg": lambda: tmg(panel, trim_cfg),
        "gp": lambda: gp(panel),
        "fete": lambda: fete(panel),
        "tmgte": lambda: tmg_te(panel, trim_cfg),
        "gpte": lambda: gp_te(panel),
        "hausman": lambda: hausman_no_te(panel, trim_cfg),
        "hausman_te": lambda: hausman_te(panel, trim_cfg),
    }
    width = panel.T if tag in ("fete", "tmgte", "gpte") else 1
    try:
        fit = fits[tag]()
    except NumericalError as exc:
        return [np.nan] * width, [np.nan] * width, np.nan, type(exc).__name__
    if tag.startswith("hausman"):
        return [fit.statistic], [fit.p_value], 0.0, None
    est, te = fit if isinstance(fit, tuple) else (fit, None)
    j = est.coef_names.index("beta1")
    coef, se = [est.coef[j]], [est.se[j]]
    if te is not None:
        coef, se = coef + list(te.phi[:-1]), se + list(te.se[:-1])
    return coef, se, est.pi_n, None


def _oracle_results(cfg, tags, reps, trim_cfg, grid):
    """McResults built replication by replication from single-panel fits."""
    from tmgpanel.montecarlo import CRIT_5PCT, NONFINITE_SE, McResult

    panels = [generate_replication(cfg, r)[0] for r in range(reps)]
    out = []
    for tag in tags:
        recs = [_oracle_replication(tag, p, trim_cfg) for p in panels]
        est = np.array([r[0] for r in recs])
        se = np.array([r[1] for r in recs])
        pi = np.array([r[2] for r in recs])
        ok = np.isfinite(est).all(axis=1) & np.isfinite(se).all(axis=1)
        by_reason = {}
        for (_, _, _, reason), good in zip(recs, ok):
            if not good:
                reason = reason or NONFINITE_SE
                by_reason[reason] = by_reason.get(reason, 0) + 1
        est, se, pi, r_ok = est[ok], se[ok], pi[ok], int(ok.sum())
        width = est.shape[1]
        nan = np.full(width, np.nan)
        res = dict(
            estimator=tag, reps=r_ok, failures=reps - r_ok,
            failures_by_reason=dict(sorted(by_reason.items())),
            bias=nan, rmse=nan, size=nan, pi_hat=np.nan, mc_se_bias=nan, mc_se_size=nan,
        )
        if tag.startswith("hausman"):
            res["coef_names"] = ("statistic",)
            if r_ok:
                rate = (se[:, 0] < 0.05).mean()
                res["size"] = np.array([rate])
                res["mc_se_size"] = np.array([np.sqrt(rate * (1 - rate) / r_ok)])
            out.append(McResult(**res))
            continue
        res["coef_names"] = ("beta",) + tuple(f"phi{t}" for t in range(1, width))
        if r_ok:
            truth = np.concatenate([[cfg.theta0[1]], cfg.phi()[: width - 1]])
            err = est - truth
            size = (np.abs(err) / se > CRIT_5PCT).mean(axis=0)
            res.update(
                bias=err.mean(axis=0), rmse=np.sqrt((err**2).mean(axis=0)), size=size,
                pi_hat=float(pi.mean()), mc_se_size=np.sqrt(size * (1 - size) / r_ok),
            )
            if r_ok > 1:
                res["mc_se_bias"] = est.std(axis=0, ddof=1) / np.sqrt(r_ok)
            res["power_curve"] = []
            for b0 in grid:
                rate = (np.abs(est[:, 0] - b0) / se[:, 0] > CRIT_5PCT).mean()
                res["power_curve"].append(
                    (float(b0), float(rate), float(np.sqrt(rate * (1 - rate) / r_ok)))
                )
        out.append(McResult(**res))
    return out


@pytest.mark.parametrize(
    "cfg,trim_cfg",
    [
        (base_cfg(n=3, T=2), {"alpha": 0.5, "c_n": 1e12}),
        (base_cfg(n=3, T=3, time_effects=True), {}),
    ],
    ids=["T2-tmg-all-failed", "T3-te"],
)
def test_aggregates_match_single_panel_oracle(cfg, trim_cfg):
    # every McResult field equals the metrics built in replication order from
    # fits of each replication alone, failures and their reasons included
    from tmgpanel import TrimConfig
    from tmgpanel.montecarlo import ESTIMATOR_TAGS, TEST_TAGS

    tags = list(ESTIMATOR_TAGS + TEST_TAGS)
    trim_cfg = TrimConfig(**trim_cfg)
    grid = np.linspace(0.5, 1.5, 5)
    got = run_experiment(cfg, tags, 30, beta0_grid=grid, trim_cfg=trim_cfg)
    want = _oracle_results(cfg, tags, 30, trim_cfg, grid)
    assert [r.estimator for r in got] == tags
    for a, b in zip(got, want):
        _fields_equal(a, b)
    by_tag = {r.estimator: r for r in got}
    assert any(r.failures for r in got)
    if trim_cfg.c_n == 1e12:
        assert by_tag["tmg"].reps == 0 and by_tag["tmg"].power_curve is None


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

    def test_defaults_filled_in(self):
        from tmgpanel import TrimConfig
        from tmgpanel.estimators import DEFAULT_ALPHA_GP

        cfg, extras = scenario_from_dict({"n": 10, "T": 2, "theta0": [0.5, 2]})
        assert cfg.theta0 == (0.5, 2)
        assert extras == {
            "estimators": ("tmg",), "reps": 2000, "trim_alpha": TrimConfig().alpha,
            "trim_c_n": None, "alpha_gp": DEFAULT_ALPHA_GP, "beta0_grid": None,
            "trim_cfg": TrimConfig(),
        }

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"T": 10**30}, "T must be an integer from 2 to 10000, got 10"),
            ({"n": 10**14}, "n must be an integer from 2 to 10000000, got 10"),
            ({"seed": 2.0}, "seed must be non-negative: an integer >= 0, got 2.0"),
            ({"pr2": 10**400}, "pr2 must be a finite number in (0, 1), got 10"),
            ({"rho_alpha": 1.0}, "rho_alpha must be a finite number in [0, 1), got 1.0"),
            ({"x_error_dist": ["uniform"]}, "x_error_dist must be one of"),
        ],
    )
    def test_library_config_checked_by_the_same_table(self, kwargs, message):
        with pytest.raises(ScenarioError) as exc:
            DgpConfig(**{"n": 10, "T": 2, **kwargs})
        assert message in str(exc.value)

    def test_run_experiment_rejects_no_estimators(self):
        with pytest.raises(ScenarioError, match="estimators must be a list of tags, at least one"):
            run_experiment(base_cfg(n=20), [], reps=2)


def test_import_leaves_process_pool_out():
    # run_experiment imports the process pool only when it splits the work
    src = str(Path(tmgpanel.__file__).resolve().parents[1])
    script = "import sys, tmgpanel; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\n"
