"""Acceptance suite: reproduces the published simulation evidence at desk
scale and re-asserts the exact structural properties in one place.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success). Monte Carlo tolerances are fixed here and match the published
values; the replication count R = 2000 matches the reported experiments.
"""

import math
import time

import numpy as np
import pytest

from tmgpanel import (
    BalancedPanel,
    DgpConfig,
    TrimConfig,
    chisq_sf,
    compute_threshold,
    delta_weights,
    fe,
    gp,
    hausman_no_te,
    mg,
    run_experiment,
    tmg,
    tmg_te,
)
from tmgpanel.designs import PanelDesign, within
from tmgpanel.timeeffects import chamberlain_projectors

import oracles
from _helpers import random_panel
from conftest import MC_SEED as SEED

R = 2000


def _report(criterion, checks):
    """checks: list of (label, ok, detail). Prints one line, asserts all."""
    ok = all(c[1] for c in checks)
    detail = "; ".join(f"{label} {detail}" for label, _, detail in checks)
    print(f"{'PASS' if ok else 'FAIL'}: criterion {criterion}: {detail}")
    failed = [f"{label}: {detail}" for label, good, detail in checks if not good]
    assert not failed, f"criterion {criterion} failed: {failed}"


def _cfg(**kw):
    kw.setdefault("n", 1000)
    kw.setdefault("T", 2)
    kw.setdefault("rho_alpha", 0.5)
    kw.setdefault("rho_beta", 0.5)
    kw.setdefault("seed", SEED)
    return DgpConfig(**kw)


@pytest.fixture(scope="module")
def cell_main(kappa2_case3_t2):
    """Baseline correlated-heterogeneity cell: T=2, n=1000, R=2000."""
    cfg = _cfg(kappa2=kappa2_case3_t2)
    # warm the jit kernel outside the timed section
    run_experiment(cfg, ["tmg"], reps=2)
    t0 = time.perf_counter()
    results = run_experiment(cfg, ["fe", "mg", "tmg", "gp", "hausman"], reps=R)
    elapsed = time.perf_counter() - t0
    return {r.estimator: r for r in results}, elapsed


@pytest.fixture(scope="module")
def cell_uncorrelated(kappa2_case1_t2):
    cfg = _cfg(rho_alpha=0.0, rho_beta=0.0, kappa2=kappa2_case1_t2)
    results = run_experiment(cfg, ["fe"], reps=R)
    return {r.estimator: r for r in results}


@pytest.fixture(scope="module")
def cell_te(kappa2_case3_t2):
    cfg = _cfg(kappa2=kappa2_case3_t2, time_effects=True)
    results = run_experiment(cfg, ["tmgte", "hausman_te"], reps=R)
    return {r.estimator: r for r in results}


def test_criterion_1_table1_reproduction(cell_main):
    cells, elapsed = cell_main
    t = cells["tmg"]
    g = cells["gp"]
    checks = [
        ("TMG pi", abs(t.pi_hat - 0.312) <= 0.010, f"{t.pi_hat:.4f} vs 0.312+-0.010"),
        ("TMG bias", abs(t.bias[0] - 0.048) <= 0.015, f"{t.bias[0]:.4f} vs 0.048+-0.015"),
        ("TMG rmse", abs(t.rmse[0] - 0.35) <= 0.04, f"{t.rmse[0]:.4f} vs 0.35+-0.04"),
        ("TMG size", abs(t.size[0] - 0.049) <= 0.015, f"{t.size[0]:.4f} vs 0.049+-0.015"),
        ("GP pi", abs(g.pi_hat - 0.042) <= 0.007, f"{g.pi_hat:.4f} vs 0.042+-0.007"),
        ("GP rmse", abs(g.rmse[0] - 0.83) <= 0.12, f"{g.rmse[0]:.4f} vs 0.83+-0.12"),
        ("runtime", elapsed < 30.0, f"{elapsed:.1f}s < 30s single-threaded"),
    ]
    _report(1, checks)


def test_criterion_2_fe_distortion(cell_main, cell_uncorrelated):
    cells, _ = cell_main
    f_corr = cells["fe"]
    f_unc = cell_uncorrelated["fe"]
    checks = [
        ("FE bias corr", abs(f_corr.bias[0] - 0.444) <= 0.02, f"{f_corr.bias[0]:.4f} vs 0.444+-0.02"),
        ("FE size corr", abs(f_corr.size[0] - 0.666) <= 0.03, f"{f_corr.size[0]:.4f} vs 0.666+-0.03"),
        ("FE bias unc", abs(f_unc.bias[0]) <= 0.01, f"|{f_unc.bias[0]:.4f}| <= 0.01"),
        ("FE size unc", abs(f_unc.size[0] - 0.050) <= 0.015, f"{f_unc.size[0]:.4f} vs 0.050+-0.015"),
    ]
    _report(2, checks)


def test_criterion_3_hausman(cell_main, kappa2_homog_t2, kappa2_case1_t2, kappa2_case3_t2):
    cfg_hom = _cfg(sigma2_beta=0.0, rho_beta=0.0, kappa2=kappa2_homog_t2)
    size_hom = run_experiment(cfg_hom, ["hausman"], reps=R)[0].size[0]
    cfg_unc = _cfg(rho_beta=0.0, kappa2=kappa2_case1_t2)
    size_unc = run_experiment(cfg_unc, ["hausman"], reps=R)[0].size[0]
    power_1k = cell_main[0]["hausman"].size[0]
    cfg_10k = _cfg(n=10000, kappa2=kappa2_case3_t2)
    power_10k = run_experiment(cfg_10k, ["hausman"], reps=R)[0].size[0]
    checks = [
        ("size homog", abs(size_hom - 0.041) <= 0.02, f"{size_hom:.4f} vs 0.041+-0.02"),
        ("size uncorr", abs(size_unc - 0.056) <= 0.02, f"{size_unc:.4f} vs 0.056+-0.02"),
        ("power n=1000", abs(power_1k - 0.260) <= 0.04, f"{power_1k:.4f} vs 0.260+-0.04"),
        ("power n=10000", power_10k >= 0.85, f"{power_10k:.4f} >= 0.85"),
    ]
    _report(3, checks)


def test_criterion_4_time_effects(cell_te):
    t = cell_te["tmgte"]
    h = cell_te["hausman_te"]
    j = t.coef_names.index("phi1")
    checks = [
        ("TMG-TE bias", abs(t.bias[0] - 0.048) <= 0.015, f"{t.bias[0]:.4f} vs 0.048+-0.015"),
        ("phi1 bias", abs(t.bias[j] - 0.002) <= 0.01, f"{t.bias[j]:.4f} vs 0.002+-0.01"),
        ("phi1 rmse", abs(t.rmse[j] - 0.09) <= 0.02, f"{t.rmse[j]:.4f} vs 0.09+-0.02"),
        ("Hausman-TE power", abs(h.size[0] - 0.250) <= 0.04, f"{h.size[0]:.4f} vs 0.250+-0.04"),
    ]
    _report(4, checks)


def test_criterion_5_kappa_calibration(kappa2_case3_t2, kappa2_case3_t3):
    checks = [
        ("kappa2 T=2", abs(kappa2_case3_t2 - 15.50) <= 0.3, f"{kappa2_case3_t2:.3f} vs 15.50+-0.3"),
        ("kappa2 T=3", abs(kappa2_case3_t3 - 15.43) <= 0.3, f"{kappa2_case3_t3:.3f} vs 15.43+-0.3"),
    ]
    _report(5, checks)


def test_criterion_6_threshold_sensitivity(kappa2_case3_t2):
    cfg = _cfg(n=2000, kappa2=kappa2_case3_t2)
    res_13 = run_experiment(cfg, ["tmg"], reps=R, trim_cfg=TrimConfig(alpha=1 / 3))[0]
    res_12 = run_experiment(cfg, ["tmg"], reps=R, trim_cfg=TrimConfig(alpha=1 / 2))[0]
    b13, b12 = res_13.bias[0], res_12.bias[0]
    r13, r12 = res_13.rmse[0], res_12.rmse[0]
    checks = [
        ("bias @1/3", abs(b13 - 0.044) <= 0.01, f"{b13:.4f} vs 0.044+-0.01"),
        ("bias @1/2", abs(b12 - 0.028) <= 0.01, f"{b12:.4f} vs 0.028+-0.01"),
        ("rmse @1/3", abs(r13 - 0.27) <= 0.05, f"{r13:.4f} vs 0.27+-0.05"),
        ("rmse @1/2", abs(r12 - 0.37) <= 0.05, f"{r12:.4f} vs 0.37+-0.05"),
        ("bias falls", b12 < b13, f"{b12:.4f} < {b13:.4f}"),
        ("rmse rises", r12 > r13, f"{r12:.4f} > {r13:.4f}"),
    ]
    _report(6, checks)


def test_criterion_7_property_suite():
    rng = np.random.default_rng(SEED)
    checks = []

    # TMG weight normalization to 1e-12
    d = rng.uniform(0.0, 2.0, 200)
    st = delta_weights(d, compute_threshold(d, TrimConfig()))
    checks.append(
        ("weights sum", abs(st.weights().sum() - 1.0) <= 1e-12,
         f"|sum-1|={abs(st.weights().sum() - 1.0):.1e}")
    )

    # TMG two-form equality to 1e-10
    p = random_panel(rng, n=60, T=2)
    pd = PanelDesign(p)
    cfg = TrimConfig()
    st = delta_weights(pd.d, compute_threshold(pd.d, cfg))
    tilde = np.einsum("nkj,nj->nk", pd.bmats(st.a_n, st.trimmed), pd.wty())
    kept = ~st.trimmed
    two_form = (
        (1 - st.pi_n) * tilde[kept].mean(axis=0)
        + st.pi_n * tilde[st.trimmed].mean(axis=0)
    ) / st.weight_scale
    gap = np.abs(tmg(p, cfg).coef - two_form).max()
    checks.append(("two-form", gap <= 1e-10, f"gap={gap:.1e}"))

    # TMG == MG under no trimming to 1e-12
    p2 = random_panel(rng, n=40, T=3)
    low = TrimConfig(alpha=0.5, c_n=PanelDesign(p2).d.min() / 2.0)
    gap = np.abs(tmg(p2, low).coef - mg(p2).coef).max()
    checks.append(("tmg=mg untrimmed", gap <= 1e-12, f"gap={gap:.1e}"))

    # scale equivariance of trimmed set and t-ratios to 1e-9
    c = 37.0
    p3 = BalancedPanel(y=p.y, x=c * p.x, unit_ids=p.unit_ids, time_ids=p.time_ids)
    e1, e3 = tmg(p, cfg), tmg(p3, cfg)
    t_gap = np.abs(e3.coef[1:] / e3.se[1:] - e1.coef[1:] / e1.se[1:]).max()
    slope_gap = np.abs(e3.coef[1:] * c - e1.coef[1:]).max()
    checks.append(
        ("scale equivariance", e3.pi_n == e1.pi_n and t_gap <= 1e-9 and slope_gap <= 1e-9,
         f"t-gap={t_gap:.1e}")
    )

    # adjugate identity to 1e-10 (relative to gram/det scale)
    p4 = random_panel(rng, n=30, T=4, k_prime=3)
    pd4 = PanelDesign(p4)
    worst = 0.0
    for i in range(p4.n):
        resid = pd4.gram[i] @ pd4.adj[i] - pd4.d[i] * np.eye(p4.k)
        scale = np.abs(pd4.gram[i]).max() * max(abs(pd4.d[i]), 1.0)
        worst = max(worst, np.abs(resid).max() / scale)
    checks.append(("adjugate identity", worst <= 1e-10, f"max rel resid={worst:.1e}"))

    # projector idempotency and annihilation to 1e-9
    p5 = random_panel(rng, n=25, T=4, k_prime=2)
    proj = chamberlain_projectors(p5)
    xd = within(p5.x, axis=1)
    idem = max(
        np.abs(proj.M[i] @ proj.M[i] - proj.M[i]).max() for i in range(p5.n)
    )
    annih = max(np.abs(proj.M[i] @ xd[i]).max() for i in range(p5.n))
    checks.append(("projector", idem <= 1e-9 and annih <= 1e-9,
                   f"idem={idem:.1e} annih={annih:.1e}"))

    # tau'phi = 0 to 1e-10 for both dispatch branches
    worst_phi = 0.0
    for T in (2, 3):
        p6 = random_panel(rng, n=50, T=T)
        _, te = tmg_te(p6)
        worst_phi = max(worst_phi, abs(te.phi.sum()))
    checks.append(("phi normalization", worst_phi <= 1e-10, f"|tau'phi|={worst_phi:.1e}"))

    # Hausman scale/shift invariance to 1e-8
    p7 = random_panel(rng, n=80, T=2)
    base = hausman_no_te(p7).statistic
    scaled = hausman_no_te(
        BalancedPanel(y=p7.y, x=9.0 * p7.x, unit_ids=p7.unit_ids, time_ids=p7.time_ids)
    ).statistic
    shifted = hausman_no_te(
        BalancedPanel(
            y=p7.y + rng.normal(0, 2, p7.n)[:, None], x=p7.x,
            unit_ids=p7.unit_ids, time_ids=p7.time_ids,
        )
    ).statistic
    inv_gap = max(abs(scaled - base), abs(shifted - base)) / max(base, 1e-30)
    checks.append(("Hausman invariance", inv_gap <= 1e-8, f"rel gap={inv_gap:.1e}"))

    # chi-squared tail vs closed form for df=2 to 1e-10
    tail_gap = max(
        abs(chisq_sf(x, 2) - math.exp(-x / 2.0)) for x in (0.3, 1.0, 3.0, 8.0, 20.0)
    )
    checks.append(("chisq df=2", tail_gap <= 1e-10, f"gap={tail_gap:.1e}"))

    # deterministic parallel reproduction: byte equality of serialized rows
    cfg_mc = DgpConfig(n=80, T=2, rho_alpha=0.5, rho_beta=0.5, kappa2=15.5, seed=SEED)
    rows1 = run_experiment(cfg_mc, ["fe", "tmg"], reps=8, jobs=1)
    rows2 = run_experiment(cfg_mc, ["fe", "tmg"], reps=8, jobs=2)
    blob1 = repr([r.rows() for r in rows1]).encode()
    blob2 = repr([r.rows() for r in rows2]).encode()
    checks.append(("parallel determinism", blob1 == blob2, "byte equality jobs 1 vs 2"))

    _report(7, checks)


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(314159)
    worst = 0.0
    count = 0
    for _ in range(100):
        k_prime = int(rng.integers(1, 3))
        T = int(rng.integers(k_prime + 1, 5))
        n = int(rng.integers(max(4, k_prime + 2), 11))
        p = random_panel(rng, n=n, T=T, k_prime=k_prime, noise=0.7)
        y, x = p.y, p.x

        def rel(a, b):
            a, b = np.atleast_1d(a), np.atleast_1d(b)
            return np.abs(a - b).max() / max(np.abs(b).max(), 1e-12)

        worst = max(worst, rel(fe(p).coef, oracles.fe_oracle(y, x)[0]))
        worst = max(worst, rel(mg(p).coef, oracles.mg_oracle(y, x)[0]))
        worst = max(worst, rel(tmg(p).coef, oracles.tmg_oracle(y, x, 1 / 3)[0]))
        worst = max(worst, rel(gp(p).coef, oracles.gp_oracle(y, x, 1 / 3)[0]))
        est_te, te = tmg_te(p)
        coef_o, phi_o = oracles.tmgte_oracle(y, x, 1 / 3)
        worst = max(worst, rel(est_te.coef, coef_o))
        worst = max(worst, rel(te.phi, phi_o))
        worst = max(
            worst,
            abs(hausman_no_te(p).statistic - oracles.hausman_oracle(y, x, 1 / 3)[0])
            / max(abs(oracles.hausman_oracle(y, x, 1 / 3)[0]), 1e-12),
        )
        count += 1
    checks = [("oracle match", worst <= 1e-9, f"{count} fixtures, worst rel err {worst:.1e}")]
    _report(8, checks)
