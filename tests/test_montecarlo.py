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
    _ROLE_CAL_COEF,
    _ROLE_CAL_X,
    _ROLE_COEF,
    _ROLE_X,
    _ROLE_Y,
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
        # jobs=64 on two cores runs in two processes, and the results are
        # those of one
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg, usage = base_cfg(n=80, seed=31), {}
        one = run_experiment(cfg, ["fe", "tmg", "hausman"], reps=8, jobs=1)
        many = run_experiment(cfg, ["fe", "tmg", "hausman"], reps=8, jobs=64, usage=usage)
        assert usage["processes"] == 2
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
    # the tiny designs make failures (GP keeping one unit) part of the check.
    # kappa^2 of a cell with a shared factor path and uniform x errors, whose
    # calibration blocks as the runs do, keeps its bits at each cap too
    from dataclasses import replace

    from tmgpanel import montecarlo
    from tmgpanel.montecarlo import ESTIMATOR_TAGS, TEST_TAGS, _blocks, block_size

    tags = list(ESTIMATOR_TAGS + TEST_TAGS)
    reps = 40
    runs = []
    cal_cfg, kappas = replace(cfg, interactive_x=True, x_error_dist="uniform"), set()
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
        usage = {}
        kappas.add(repr(calibrate_kappa(cal_cfg, reps, cfg.n, usage)))
        assert usage["blocks"] == len(_blocks(range(reps), block_size(cfg.n, cfg.T)))
    # the workers count in their own processes
    assert blocks[::3] == [[1] * reps, [4] * (reps // 4), [reps]]
    assert len(kappas) == 1, kappas
    assert any(r.failures for r in runs[0])
    for other in runs[1:]:
        for a, b in zip(runs[0], other):
            _fields_equal(a, b)


def test_failed_replications_named_whatever_the_split(monkeypatch):
    # each tag names the first five failed replications of each reason by
    # index, the same for one and two workers, blocks of three or the whole
    # run, and with a draw thread per process or none (one or two cores to a
    # process, four cores for two threaded workers); generate_replication draws a
    # named one again, and it fails alone for that reason
    import itertools

    from tmgpanel import AllTrimmedError, TrimConfig, montecarlo, tmg

    cfg, trim_cfg = base_cfg(n=3, T=3), TrimConfig(c_n=3.0)
    named = set()
    for cap, jobs, threaded in itertools.product((3 * cfg.n, 10000), (1, 2), (False, True)):
        monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", cap)
        cores = set(range(jobs * (1 + threaded)))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        assert montecarlo._draw_threads(jobs) == threaded
        results = run_experiment(cfg, ["tmg", "gp", "hausman"], 60, trim_cfg=trim_cfg, jobs=jobs)
        named.add(repr([(r.failures_by_reason, r.failed_replications) for r in results]))
    trimmed = {"AllTrimmedError": [5, 9, 12, 14, 25]}
    assert named == {repr([
        ({"AllTrimmedError": 8}, trimmed),
        ({"NonFiniteStandardError": 17}, {"NonFiniteStandardError": [1, 4, 6, 15, 16]}),
        ({"AllTrimmedError": 8}, trimmed),
    ])}
    for rep in trimmed["AllTrimmedError"]:
        with pytest.raises(AllTrimmedError):
            tmg(generate_replication(cfg, rep)[0], trim_cfg)
    assert np.isfinite(tmg(generate_replication(cfg, 6)[0], trim_cfg).coef).all()
    assert not np.isfinite(gp(generate_replication(cfg, 6)[0]).se).all()


@pytest.mark.parametrize(
    "n,reps,sizes",
    [
        (1000, 6, [6]),  # fewer replications than a block holds
        (1000, 10, [10]),  # the n = 1000 cells run blocks of ten
        (1000, 2000, [10] * 200),
        (1000, 1, [1]),
        (5000, 3, [1, 2]),  # 5000 units run blocks of two, balanced
        (100, 45, [45]),
        (1000, 25, [8, 8, 9]),  # the fewest blocks, lengths differing by one
        (5000, 1000, [2] * 500),  # the default calibration, n_cal = 5000
        (5001, 3, [1, 1, 1]),  # more than half the cap: one at a time
    ],
)
def test_fewest_balanced_blocks(n, reps, sizes):
    # the fewest blocks of at most MAX_BLOCK_UNITS units, as equal as possible
    from tmgpanel.montecarlo import _blocks, block_size

    blocks = _blocks(list(range(reps)), block_size(n, 2))
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
        by_reason, first = {}, {}
        for rep, ((_, _, _, reason), good) in enumerate(zip(recs, ok)):
            if not good:
                reason = reason or NONFINITE_SE
                by_reason[reason] = by_reason.get(reason, 0) + 1
                if len(first.setdefault(reason, [])) < 5:
                    first[reason].append(rep)
        est, se, pi, r_ok = est[ok], se[ok], pi[ok], int(ok.sum())
        width = est.shape[1]
        nan = np.full(width, np.nan)
        res = dict(
            estimator=tag, reps=r_ok, failures=reps - r_ok,
            failures_by_reason=dict(sorted(by_reason.items())),
            failed_replications=dict(sorted(first.items())),
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
    # a split run forks its workers itself, with no process pool; the package
    # loads the engine lazily, so the engine is imported after it as well
    src = str(Path(tmgpanel.__file__).resolve().parents[1])
    script = (
        "import sys, tmgpanel; print('concurrent.futures.process' in sys.modules)\n"
        "import tmgpanel.montecarlo; print('concurrent.futures.process' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    )
    assert proc.stdout == "False\nFalse\n"


def test_engine_names_resolve_on_first_use():
    # the package binds the engine's six names lazily (PEP 562): each is the
    # engine's own object, a star import binds all of __all__, dir lists
    # them, and any other missing name is an AttributeError naming it
    lazy = {"DgpConfig", "McResult", "ReplicationTruth", "calibrate_kappa",
            "generate_replication", "run_experiment"}
    assert tmgpanel.DgpConfig is tmgpanel.montecarlo.DgpConfig
    assert all(getattr(tmgpanel, name) is getattr(tmgpanel.montecarlo, name) for name in lazy)
    namespace = {}
    exec("from tmgpanel import *", namespace)
    assert set(tmgpanel.__all__) <= namespace.keys()
    assert lazy <= set(dir(tmgpanel)) and lazy <= set(tmgpanel.__all__)
    with pytest.raises(AttributeError, match="'nope'"):
        tmgpanel.nope


# ---------------------------------------------------------------------------
# the draw thread
# ---------------------------------------------------------------------------

#: Cells that between them draw every optional part of every stream: rho_ix
#: zero and uniform095, a factor path of each replication's own (calibration
#: shares one), uniform x errors, each heteroskedasticity, AR outcome errors
#: and Gaussian outcome errors, at T = 2 and 3.
STREAMS = {
    "T2": dict(T=2),
    "T3-rho0-te": dict(T=3, rho_ix_mode="zero", time_effects=True),
    "T2-factor": dict(T=2, interactive_x=True),
    "T3-factor-rho0-uniform": dict(T=3, interactive_x=True, rho_ix_mode="zero",
                                   x_error_dist="uniform"),
    "T2-uniform-lambda2": dict(T=2, x_error_dist="uniform", heterosked="lambda2"),
    "T3-ar-gaussian-ex2": dict(T=3, rho_ie_mode="uniform095", y_error_dist="gaussian",
                               heterosked="ex2"),
}

#: sha256 of each STREAMS cell's generate_block(cfg, [1, 2, 3]) arrays (y, x,
#: then the truth fields) and of repr(calibrate_kappa(cfg, r_kappa=7,
#: n_cal=50)). They were computed at the commit before the coefficient and
#: outcome draws moved into the draw slots, with the thread on and off alike.
STREAM_DIGESTS = {
    "T2": ("797391440fc9f4dd6e2a3591a0a010ae72dcae043e1faa5e158b76bb05c65ada",
           "04b224e744dd7f1acbf1f60a65779bec6e5947d762d63694b0aa4ef08d0f0670"),
    "T3-rho0-te": ("5e3097e1902eb46daf16d54bccec3b9a84340769acc2b2c96b89f6914ac033b7",
                   "90b2d14a994079ad8761400653d731ff3d525e9e7afa3e91eaf18233213be158"),
    "T2-factor": ("cc29e75bd17ec2ce64eceb80943510221e4d4c62c60a9e773e4c644f378f2a38",
                  "8811bfc4ab41273deba076a2efaf988900875f1e11e2b62abb88e7f6f52e85be"),
    "T3-factor-rho0-uniform": (
        "5e56c3faddc0cf69387dc4c525aea83d7ce91f0a99ba69a78f24157da51bacc7",
        "3dbf46841f9672c32daa57c11283f49a019bf99e3c701b37bf7d369a825e509f"),
    "T2-uniform-lambda2": ("a7e54880e8a4821960cbdb312e1df001c8295e385d5d4d19b800549154c43bca",
                           "a4d347df2ceb358f43af3d2438dabc45b99cd6b20ceaf75f016f6c45eac1965f"),
    "T3-ar-gaussian-ex2": ("6d1f0a3f88008f08d582878900ef2fbc1b88f51794854e0a22406be62d3e7520",
                           "f3a0cc2a40b467d8bb5e0881d8478d071934da14fafabd7257fac8f8d034d243"),
}


@pytest.fixture
def eager_switches():
    """The GIL handed over every microsecond, so the draw thread runs between
    the consumer's steps, and a slot handed back too early is overwritten."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def _outputs(monkeypatch, cfg, tmp_path, label, threaded):
    """Everything a cell's streams give: a replication's panel and truth, a
    block's, drawn as a run draws it, kappa^2, and results.csv from simulate
    in one process and split over two, with a draw thread per process if
    ``threaded`` (one or two cores to a process: one, two or four cores)."""
    import dataclasses
    import json

    from tmgpanel import montecarlo
    from tmgpanel.cli import main

    def on_cores(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    panel, truth = generate_replication(cfg, 4)
    reps = [1, 2, 3]
    with montecarlo._Draws(cfg.seed, montecarlo._roles(cfg), reps, threaded) as draws:
        block, block_truth = montecarlo._generate_block(cfg, reps, draws)
    arrays = [panel.y, panel.x, block.y, block.x]
    arrays += [getattr(t, f.name) for t in (truth, block_truth) for f in dataclasses.fields(t)]
    scen = tmp_path / f"{label}.json"
    fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
    tags = ["fe", "tmg", "gp", "hausman"] + (["tmgte", "hausman_te"] if cfg.T > 2 else [])
    scen.write_text(json.dumps({**fields, "estimators": tags, "reps": 7}))
    csvs = []
    for processes in (1, 2):
        on_cores(processes * (1 + threaded))
        with monkeypatch.context() as mp:  # the run's 7 x n units in two processes
            mp.setattr(montecarlo, "SPLIT_UNITS", 7 * cfg.n // processes)
            out = tmp_path / f"{label}-{processes}"
            assert main(["simulate", str(scen), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["processes"], manifest["draw_threads"]) == (processes, int(threaded))
        csvs.append((out / "results.csv").read_bytes())
    assert csvs[0] == csvs[1]
    on_cores(1 + threaded)
    kappa2 = calibrate_kappa(cfg, r_kappa=7, n_cal=50)
    return arrays, kappa2, csvs[0]


@pytest.mark.parametrize("fields", STREAMS.values(), ids=STREAMS)
def test_draw_thread_changes_no_bit(monkeypatch, tmp_path, eager_switches, fields):
    # the draws filled inline and on the draw thread give the same bits in
    # every output, across blocks of three and two worker processes
    from tmgpanel import montecarlo

    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 3 * 40)
    cfg = base_cfg(n=40, seed=77, **fields)
    runs = [_outputs(monkeypatch, cfg, tmp_path, str(t), t) for t in (False, True)]
    (a, kappa_a, csv_a), (b, kappa_b, csv_b) = runs
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()
    assert kappa_a == kappa_b and csv_a == csv_b


def test_draw_thread_changes_no_bit_in_blocks_of_one(monkeypatch, eager_switches):
    # n = 5001 runs one replication per block, so the ring crosses every block
    from tmgpanel import montecarlo

    cfg = base_cfg(n=5001, seed=5)
    runs = []
    for cores in ({0}, {0, 1}):  # inline, then a draw thread
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        assert montecarlo._draw_threads(1) == len(cores) - 1
        results = run_experiment(cfg, ["fe", "tmg"], reps=3)
        runs.append(([r.rows() for r in results], calibrate_kappa(cfg, r_kappa=3, n_cal=5001)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("threaded", [False, True])
@pytest.mark.parametrize("cell", STREAMS)
def test_fixed_seed_draws_keep_their_bits(monkeypatch, cell, threaded):
    # a refactor of the draws that moves one bit of a stream fails here; a
    # stand-alone block fills inline either way, and the threaded block path
    # is held to the inline one by test_draw_thread_changes_no_bit
    import dataclasses
    import hashlib

    from tmgpanel import montecarlo

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if threaded else {0},
                        raising=False)
    assert montecarlo._draw_threads(1) == threaded
    cfg = base_cfg(n=40, seed=77, **STREAMS[cell])
    block, truth = montecarlo.generate_block(cfg, [1, 2, 3])
    digest = hashlib.sha256()
    for a in [block.y, block.x] + [getattr(truth, f.name) for f in dataclasses.fields(truth)]:
        digest.update(a.tobytes())
    kappa2 = repr(calibrate_kappa(cfg, r_kappa=7, n_cal=50)).encode()
    assert (digest.hexdigest(), hashlib.sha256(kappa2).hexdigest()) == STREAM_DIGESTS[cell]


class _Recorded:
    """A stream that records the (rep, role, thread) of each fill call."""

    def __init__(self, rng, rep, role, calls):
        self._rng, self._key, self._calls = rng, (rep, role), calls

    def _record(self):
        import threading

        self._calls.append(self._key + (threading.current_thread().name,))

    def standard_normal(self, out):
        self._record()
        return self._rng.standard_normal(out=out)

    def random(self, out):
        self._record()
        return self._rng.random(out=out)


def _fills_on(monkeypatch, fail_at=None):
    """Record the (role, thread) of each stream a run opens and the (rep,
    role, thread) of each fill call on it; the innovations fill of the run's
    replication ``fail_at`` raises."""
    import functools
    import inspect
    import threading

    from tmgpanel import montecarlo

    opens, calls = [], []
    original = inspect.unwrap(montecarlo._stream)  # not an earlier call's wrapper
    finish = inspect.unwrap(montecarlo._Draws._finish)

    @functools.wraps(original)
    def stream(seed, rep, role):
        if role == montecarlo._ROLE_FACTOR:  # calibration's shared path is no fill
            return original(seed, rep, role)
        opens.append((role, threading.current_thread().name))
        return _Recorded(original(seed, rep, role), rep, role, calls)

    @functools.wraps(finish)
    def finished(slot):
        if slot.index == fail_at:
            raise MemoryError(f"innovations of replication {fail_at}")
        finish(slot)

    monkeypatch.setattr(montecarlo, "_stream", stream)
    monkeypatch.setattr(montecarlo._Draws, "_finish", staticmethod(finished))
    return opens, calls


def _innovations(calls, role):
    """The thread that filled each replication's innovations: the last fill
    call on its regressor stream ``role``."""
    return {rep: thread for rep, r, thread in calls if r == role}


#: The streams a replication of a run fills, and those a calibration fills.
_RUN_ROLES = {_ROLE_X, _ROLE_COEF, _ROLE_Y}
_CAL_ROLES = {_ROLE_CAL_X, _ROLE_CAL_COEF}
_EITHER = {"MainThread", "tmgpanel-draws"}


def _on(thread, roles):
    return {(role, thread) for role in roles}


@pytest.mark.parametrize("call", ["run_experiment", "calibrate_kappa"])
def test_no_draw_thread_outlives_a_call(monkeypatch, call):
    # the streams open on the main thread and the innovations fill on either
    # thread, and the draw thread is joined before the call returns, when it
    # raises from a fill, and when it raises after one
    import threading

    from tmgpanel import montecarlo

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 2 * 30)
    cfg = base_cfg(n=30)
    run, roles, x_role = {
        "run_experiment": (lambda: run_experiment(cfg, ["fe"], reps=5), _RUN_ROLES, _ROLE_X),
        "calibrate_kappa": (
            lambda: calibrate_kappa(cfg, r_kappa=5, n_cal=30), _CAL_ROLES, _ROLE_CAL_X
        ),
    }[call]
    before = threading.active_count()
    opens, calls = _fills_on(monkeypatch)
    run()
    assert len(opens) == 5 * len(roles) and set(opens) == _on("MainThread", roles)
    fillers = _innovations(calls, x_role)
    assert sorted(fillers) == list(range(5)) and set(fillers.values()) <= _EITHER
    assert threading.active_count() == before
    # a fill's exception reaches the caller, from either thread
    _fills_on(monkeypatch, fail_at=3)
    with pytest.raises(MemoryError, match="innovations of replication 3"):
        run()
    assert threading.active_count() == before
    # so does one raised by the consumer while the thread fills ahead
    _fills_on(monkeypatch)
    monkeypatch.setattr(montecarlo, "standardized_quadratic", _raises)
    with pytest.raises(RuntimeError, match="consumer"):
        run()
    assert threading.active_count() == before


def _raises(*args):
    raise RuntimeError("consumer")


def test_fill_calls_per_replication(monkeypatch):
    # the default T = 2 cell fills a replication in 8 calls, one per part: on
    # the consumer, the regressor stream's alpha, z and rho, the coefficients,
    # and the outcome stream's z_iu, e0 and g; on the draw thread, the
    # innovations
    import time
    from collections import Counter

    from tmgpanel import montecarlo

    cfg, reps = base_cfg(n=30), [0, 1, 2]
    opens, calls = _fills_on(monkeypatch)
    with montecarlo._Draws(cfg.seed, montecarlo._roles(cfg), reps, True) as draws:
        deadline = time.monotonic() + 60
        while not all(slot.done.is_set() for slot in draws._ring):  # the thread fills the ring
            assert time.monotonic() < deadline
            time.sleep(1e-3)
        for _ in reps:
            draws.give(draws.take())
    assert draws.consumer_fills == 0
    for rep in reps:
        assert Counter((role, thread) for r, role, thread in calls if r == rep) == {
            (_ROLE_X, "MainThread"): 3, (_ROLE_X, "tmgpanel-draws"): 1,
            (_ROLE_COEF, "MainThread"): 1, (_ROLE_Y, "MainThread"): 3,
        }
    # a fill's exception on the draw thread is raised when its slot is taken
    _fills_on(monkeypatch, fail_at=1)
    with montecarlo._Draws(cfg.seed, montecarlo._roles(cfg), reps, True) as draws:
        draws._thread.join(timeout=60)  # it finishes replication 0 and stops at 1
        assert not draws._thread.is_alive()
        draws.give(draws.take())
        with pytest.raises(MemoryError, match="innovations of replication 1"):
            draws.take()


def test_a_stalled_draw_thread_leaves_the_consumer_filling(monkeypatch):
    # with the draw thread's loop stalled, the consumer fills every
    # replication's innovations itself and never blocks: the run and the
    # calibration complete with the bits of inline ones, and no thread is
    # left alive
    import threading
    import time

    from tmgpanel import montecarlo

    run = montecarlo._Draws._run

    def stalled(draws):
        # a consumer that waits instead of filling is served after 30 s, so
        # the test fails on its counts instead of hanging
        deadline = time.monotonic() + 30
        while not draws._stop and time.monotonic() < deadline:
            time.sleep(1e-3)
        if not draws._stop:
            run(draws)

    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 2 * 30)
    cfg = base_cfg(n=30, seed=3)
    runs = []
    for threaded in (False, True):
        cores = {0, 1} if threaded else {0}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
        monkeypatch.setattr(montecarlo._Draws, "_run", stalled)
        before = threading.active_count()
        usage, cal_usage = {}, {}
        results = run_experiment(cfg, ["fe", "tmg"], reps=5, usage=usage)
        kappa2 = calibrate_kappa(cfg, r_kappa=4, n_cal=30, usage=cal_usage)
        assert threading.active_count() == before
        assert usage["draw_threads"] == cal_usage["draw_threads"] == int(threaded)
        assert (usage["consumer_fills"], cal_usage["consumer_fills"]) == (5, 4)
        assert usage["draw_wait_seconds"] == cal_usage["draw_wait_seconds"] == 0.0
        runs.append(([r.rows() for r in results], kappa2))
    assert runs[0] == runs[1]


def test_a_jittered_ring_hands_out_replications_in_order(monkeypatch, eager_switches):
    # random sleeps before every innovations fill, on the draw thread and on
    # the consumer, change which slot is filled first: take still hands out
    # the replications in order, each one's innovations are filled once, and
    # the outputs keep the bits of inline draws
    import random
    import threading
    import time
    from collections import Counter

    from tmgpanel import montecarlo

    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 3 * 30)
    cfg, reps, r_kappa = base_cfg(n=30, seed=14), 40, 9
    parts = len(montecarlo._roles(cfg)[0][1])  # fill calls on the regressor stream
    runs = []
    for threaded in (False, True):
        with monkeypatch.context() as mp:
            cores = {0, 1} if threaded else {0}
            mp.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
            _, calls = _fills_on(mp)
            finish, take = montecarlo._Draws._finish, montecarlo._Draws.take
            sleeps = {name: random.Random(seed) for seed, name in enumerate(sorted(_EITHER))}
            taken = []

            def jittered(slot):
                time.sleep(sleeps[threading.current_thread().name].uniform(0.0, 2e-3))
                finish(slot)

            def recorded(draws):
                slot = take(draws)
                taken.append(slot.index)
                return slot

            mp.setattr(montecarlo._Draws, "_finish", staticmethod(jittered))
            mp.setattr(montecarlo._Draws, "take", recorded)
            usage, cal_usage = {}, {}
            results = run_experiment(cfg, ["fe", "tmg", "hausman"], reps=reps, usage=usage)
            kappa2 = calibrate_kappa(cfg, r_kappa=r_kappa, n_cal=30, usage=cal_usage)
        assert taken == list(range(reps)) + list(range(r_kappa))
        for role, count, used in ((_ROLE_X, reps, usage), (_ROLE_CAL_X, r_kappa, cal_usage)):
            assert used["draw_threads"] == int(threaded)
            fills = [(rep, thread) for rep, r, thread in calls if r == role]
            assert Counter(rep for rep, _ in fills) == {rep: parts for rep in range(count)}
            on_main = sum(thread == "MainThread" for _, thread in fills)
            assert on_main - (parts - 1) * count == used["consumer_fills"]
        runs.append(repr(([r.rows() for r in results], kappa2)))  # repr: the rows hold NaN
    assert runs[0] == runs[1]


def test_workers_fork_after_a_threaded_calibration(monkeypatch):
    from tmgpanel import montecarlo

    # four cores: a calibration in one process and a run in two, each with a
    # draw thread
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    from dataclasses import replace

    cfg, usage = base_cfg(n=40, seed=9, kappa2=None), {}
    cfg = replace(cfg, kappa2=calibrate_kappa(cfg, r_kappa=5, n_cal=40, usage=usage))
    assert usage["processes"] == 1 and usage["draw_threads"] == 1
    usage = {}
    split = run_experiment(cfg, ["fe", "tmg"], reps=6, jobs=2, usage=usage)
    assert usage["processes"] == 2 and usage["draw_threads"] == 1
    for a, b in zip(split, run_experiment(cfg, ["fe", "tmg"], reps=6)):
        _fields_equal(a, b)


@pytest.mark.parametrize(
    "cores,jobs,threads", [({0}, 1, 0), ({0, 1}, 1, 1), ({0, 1}, 2, 0), ({0, 1, 2, 3}, 2, 1)]
)
def test_draw_threads_follow_the_cores(monkeypatch, cores, jobs, threads):
    # threads per process = cores // processes, and a draw thread only at >= 2;
    # the streams open on the main thread, and without a draw thread the
    # consumer fills every replication's innovations
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    opens, calls = _fills_on(monkeypatch)
    usage = {}
    run_experiment(base_cfg(n=30), ["fe"], reps=4, jobs=jobs, usage=usage)
    assert (usage["processes"], usage["draw_threads"]) == (min(jobs, len(cores)), threads)
    assert usage["draw_seconds"] > 0.0 and usage["fit_seconds"] > 0.0
    assert 0.0 <= usage["draw_wait_seconds"] <= usage["draw_seconds"]
    assert 0 <= usage["consumer_fills"] <= 4 and (threads or usage["consumer_fills"] == 4)
    assert usage["blocks"] == usage["processes"]  # each worker's replications make one block
    if jobs == 1:  # a worker process records its fills in its own memory
        assert set(opens) == _on("MainThread", _RUN_ROLES)
        fillers = list(_innovations(calls, _ROLE_X).values())
        assert set(fillers) <= (_EITHER if threads else {"MainThread"})
        assert fillers.count("MainThread") == usage["consumer_fills"]
    usage, opens[:], calls[:] = {}, [], []
    calibrate_kappa(base_cfg(n=30), r_kappa=3, n_cal=30, usage=usage)
    assert (usage["processes"], usage["draw_threads"]) == (1, int(len(cores) >= 2))
    assert set(opens) == _on("MainThread", _CAL_ROLES)
    fillers = list(_innovations(calls, _ROLE_CAL_X).values())
    assert set(fillers) <= (_EITHER if len(cores) >= 2 else {"MainThread"})
    assert fillers.count("MainThread") == usage["consumer_fills"]
    assert usage["blocks"] == 1


@pytest.mark.parametrize(
    "fields",
    [dict(T=2), dict(T=3, time_effects=True),
     dict(T=2, interactive_x=True, x_error_dist="uniform")],
    ids=["T2", "T3-te", "T2-factor-uniform"],
)
def test_calibration_splits_over_the_cores(monkeypatch, fields):
    # with SPLIT_UNITS at half its 7 x 50 units, a calibration runs in two
    # processes on two cores (no draw thread) and on four (a thread each),
    # in blocks of two, and kappa^2 keeps the bits of one process, inline
    # on one core or threaded on two
    from tmgpanel import montecarlo

    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 2 * 50)
    cfg, kappas, used = base_cfg(seed=8, **fields), set(), []
    for cores, split in ((1, False), (2, False), (2, True), (4, True)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        monkeypatch.setattr(montecarlo, "SPLIT_UNITS", 7 * 50 // (2 if split else 1))
        usage = {}
        kappas.add(repr(calibrate_kappa(cfg, r_kappa=7, n_cal=50, usage=usage)))
        used.append((usage["processes"], usage["draw_threads"], usage["blocks"]))
    assert used == [(1, 0, 4), (1, 1, 4), (2, 0, 4), (2, 1, 4)]
    assert len(kappas) == 1, kappas


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="workers fork on Linux")
def test_split_runs_fork_whatever_the_default_start_method(monkeypatch):
    # under forkserver, Python 3.14's default on Linux, a split calibration's
    # workers still fork, so they fit blocks of the MAX_BLOCK_UNITS patched
    # here and kappa^2 keeps the bits of one process
    import multiprocessing

    from tmgpanel import montecarlo

    monkeypatch.setattr(montecarlo, "MAX_BLOCK_UNITS", 2 * 50)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg, usage = base_cfg(seed=8), {}
    one = calibrate_kappa(cfg, r_kappa=7, n_cal=50)
    monkeypatch.setattr(montecarlo, "SPLIT_UNITS", 7 * 50 // 2)
    method = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    try:
        split = calibrate_kappa(cfg, r_kappa=7, n_cal=50, usage=usage)
    finally:
        multiprocessing.set_start_method(method, force=True)
    assert (usage["processes"], usage["blocks"]) == (2, 4)
    assert repr(split) == repr(one)


# ---------------------------------------------------------------------------
# the fork rule and failed workers
# ---------------------------------------------------------------------------


def _split_run(monkeypatch):
    """Two patched cores and a 20-replication n = 40 run that splits in two
    on them; its arguments and the rows of the run in one process."""
    from tmgpanel import montecarlo

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(montecarlo, "SPLIT_UNITS", 20 * 40 // 2)
    cfg, tags = base_cfg(n=40, seed=13), ["fe", "tmg", "hausman"]
    return (cfg, tags, 20), run_experiment(cfg, tags, 20, jobs=1)


def test_no_fork_with_another_thread_alive(monkeypatch):
    # a thread that holds a lock at a fork can leave the child waiting for
    # ever: with another thread alive a run of a split size stays in this
    # process, with the draw thread of one process on two cores
    from _helpers import foreign_thread

    args, whole = _split_run(monkeypatch)
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    usage = {}
    with foreign_thread():
        got = run_experiment(*args, usage=usage)
    assert (usage["processes"], usage["draw_threads"], len(forks)) == (1, 1, 0)
    for a, b in zip(whole, got):
        _fields_equal(a, b)
    run_experiment(*args, usage=usage)  # the same run forks without the thread
    assert (usage["processes"], len(forks)) == (2, 2)


@pytest.mark.parametrize("fault", ["child killed", "child exits 7 after writing", "second fork fails"])
def test_failed_worker_leaves_the_run_to_this_process(monkeypatch, fault):
    import signal

    from _helpers import assert_no_child_left
    from tmgpanel import montecarlo

    args, whole = _split_run(monkeypatch)
    parent, records, fork, exit_ = os.getpid(), montecarlo._block_records, os.fork, os._exit
    forks = []

    def exit_7(status):
        exit_(7 if os.getpid() != parent else status)

    def crash_in_child(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return records(*args)

    def fork_once():
        forks.append(1)
        if len(forks) > 1:
            raise BlockingIOError("fork: Resource temporarily unavailable")
        return fork()

    faults = {
        "child killed": (montecarlo, "_block_records", crash_in_child),
        "child exits 7 after writing": (os, "_exit", exit_7),
        "second fork fails": (os, "fork", fork_once),
    }
    monkeypatch.setattr(*faults[fault])
    usage = {}
    got = run_experiment(*args, usage=usage)
    assert_no_child_left()
    assert (usage["processes"], usage["draw_threads"]) == (1, 1)
    for a, b in zip(whole, got):
        _fields_equal(a, b)


def test_interrupted_run_reaps_every_child(monkeypatch):
    # the first worker interrupts this process while it reads the results,
    # then sleeps: every worker is killed and reaped before the interrupt
    # leaves run_experiment. The worker waits for the forks to end first: a
    # SIGINT sent while this process blocks it goes to another of its threads
    # (numpy's BLAS has one), which can leave the read blocked to its end
    import signal
    import time

    from _helpers import assert_no_child_left
    from tmgpanel import montecarlo

    args, _ = _split_run(monkeypatch)
    parent, records = os.getpid(), montecarlo._block_records

    def interrupt_then_sleep(cfg, reps, *args):
        if os.getpid() != parent and reps[0] == 0:
            time.sleep(0.5)
            os.kill(parent, signal.SIGINT)
            time.sleep(20)
        return records(cfg, reps, *args)

    monkeypatch.setattr(montecarlo, "_block_records", interrupt_then_sleep)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(*args)
    assert_no_child_left()
    assert time.perf_counter() - t0 < 10


def test_long_panels_block_by_cells():
    # at n = 200, T = 400 a replication holds the whole cells cap: blocks of
    # one, where the units cap alone allowed 50
    usage = {}
    run_experiment(base_cfg(n=200, T=400), ["fe"], reps=4, jobs=1, usage=usage)
    assert usage["blocks"] == 4


def test_a_stand_alone_block_fills_inline(monkeypatch):
    # one block has nothing to overlap, so it starts no draw thread
    from tmgpanel import montecarlo

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert montecarlo._draw_threads(1) == 1
    opens, calls = _fills_on(monkeypatch)
    montecarlo.generate_block(base_cfg(n=30), [0, 1])
    generate_replication(base_cfg(n=30), 2)
    assert opens == [(role, "MainThread") for role in [_ROLE_X, _ROLE_COEF, _ROLE_Y] * 3]
    assert {thread for _, _, thread in calls} == {"MainThread"}
