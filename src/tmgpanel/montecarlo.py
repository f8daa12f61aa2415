"""Monte Carlo engine: data generating process, noise-scale calibration,
replication runner and bias/RMSE/size/power aggregation.

Replication r of an experiment draws from counter-based random streams keyed
by (seed, r, role) with separate roles for regressor innovations, coefficient
draws and outcome errors, so results are independent of worker count and
bit-reproducible for a given (seed, config, reps).
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .designs import PanelDesign
from .errors import NumericalError, ScenarioError
from .estimators import DEFAULT_ALPHA_GP, fe, gp, mg, tmg
from .hausman import HausmanResult, hausman_no_te_from, hausman_te_from
from .panel import BalancedPanel
from .timeeffects import fete, gp_te, tmg_te
from .trimming import TrimConfig

CRIT_5PCT = 1.959964  # two-sided 5% standard normal critical value

_ROLE_X = 0
_ROLE_COEF = 1
_ROLE_Y = 2
_ROLE_FACTOR = 3
# calibration draws live on their own streams so the noise scale is
# independent of the replications it is later used with
_ROLE_CAL_X = 10
_ROLE_CAL_COEF = 11

_BURN_IN = 50

Y_ERROR_DISTS = ("gaussian", "chisq2")
X_ERROR_DISTS = ("gaussian", "uniform")
RHO_MODES = ("zero", "uniform095")
HETEROSKED_MODES = ("random", "lambda2", "ex2")

ESTIMATOR_TAGS = ("fe", "mg", "tmg", "gp", "fete", "tmgte", "gpte")
TEST_TAGS = ("hausman", "hausman_te")


@dataclass(frozen=True)
class DgpConfig:
    """Full scenario description for one Monte Carlo design cell."""

    n: int
    T: int
    theta0: tuple[float, float] = (1.0, 1.0)
    sigma2_alpha: float = 0.2
    sigma2_beta: float = 0.5
    rho_alpha: float = 0.0
    rho_beta: float = 0.0
    pr2: float = 0.2
    y_error_dist: str = "chisq2"
    x_error_dist: str = "gaussian"
    rho_ie_mode: str = "zero"
    rho_ix_mode: str = "uniform095"
    interactive_x: bool = False
    heterosked: str = "random"
    time_effects: bool = False
    kappa2: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.T < 2:
            raise ScenarioError(f"need n >= 2 and T >= 2, got n={self.n}, T={self.T}")
        if self.sigma2_alpha < 0 or self.sigma2_beta < 0:
            raise ScenarioError("heterogeneity variances must be non-negative")
        if not (0.0 <= self.rho_alpha < 1.0 and 0.0 <= self.rho_beta < 1.0):
            raise ScenarioError("rho_alpha and rho_beta must lie in [0, 1)")
        if not 0.0 < self.pr2 < 1.0:
            raise ScenarioError(f"pr2 must be in (0,1), got {self.pr2}")
        for name, value, allowed in (
            ("y_error_dist", self.y_error_dist, Y_ERROR_DISTS),
            ("x_error_dist", self.x_error_dist, X_ERROR_DISTS),
            ("rho_ie_mode", self.rho_ie_mode, RHO_MODES),
            ("rho_ix_mode", self.rho_ix_mode, RHO_MODES),
            ("heterosked", self.heterosked, HETEROSKED_MODES),
        ):
            if value not in allowed:
                raise ScenarioError(f"{name} must be one of {allowed}, got {value!r}")
        if self.kappa2 is not None and self.kappa2 < 0:
            raise ScenarioError(f"kappa2 must be non-negative, got {self.kappa2}")

    # correlation-decomposition parameters, recomputed rather than stored
    @property
    def psi_alpha(self) -> float:
        return self.rho_alpha * np.sqrt(self.sigma2_alpha)

    @property
    def psi_beta(self) -> float:
        return self.rho_beta * np.sqrt(self.sigma2_beta)

    @property
    def sigma2_eps_alpha(self) -> float:
        return (1.0 - self.rho_alpha**2) * self.sigma2_alpha

    @property
    def sigma2_eps_beta(self) -> float:
        return (1.0 - self.rho_beta**2) * self.sigma2_beta

    @property
    def excess_kurtosis_x(self) -> float:
        return 0.0 if self.x_error_dist == "gaussian" else -6.0 / 5.0

    def phi(self) -> np.ndarray:
        """Period effects: t for t < T and -T(T-1)/2 at T, summing to zero."""
        if not self.time_effects:
            return np.zeros(self.T)
        out = np.arange(1.0, self.T + 1.0)
        out[-1] = -self.T * (self.T - 1) / 2.0
        return out

    def to_dict(self) -> dict:
        d = asdict(self)
        d["theta0"] = list(self.theta0)
        return d


@dataclass(frozen=True)
class ReplicationTruth:
    """Generated quantities retained for oracle checks."""

    theta: np.ndarray  # (n, 2): alpha_i, beta_i
    lam: np.ndarray  # (n,)
    phi: np.ndarray  # (T,)
    sigma_ix: np.ndarray  # (n,)
    u: np.ndarray  # (n, T)


def _stream(seed: int, rep: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep, role))))


def _draw_x_innovations(rng, cfg: DgpConfig, n: int, steps: int) -> np.ndarray:
    if cfg.x_error_dist == "gaussian":
        return rng.standard_normal((n, steps))
    return np.sqrt(12.0) * (rng.random((n, steps)) - 0.5)


def _draw_x(rng, cfg: DgpConfig, n: int, f_path: np.ndarray | None = None):
    """Factor-augmented heterogeneous AR(1) regressor paths.

    The recursion starts at zero and runs 50 burn-in periods before the T
    retained observations. Returns the paths, the retained innovations and
    the per-unit innovation scales.
    """
    steps = _BURN_IN + cfg.T
    alpha_ix = rng.normal(1.0, 1.0, n)
    z_ix = rng.standard_normal(n)
    sigma_ix = np.sqrt(0.5 * (1.0 + z_ix**2))
    if cfg.rho_ix_mode == "uniform095":
        rho_ix = rng.uniform(0.0, 0.95, n)
    else:
        rho_ix = np.zeros(n)
    if cfg.interactive_x:
        gamma_ix = rng.uniform(0.0, 2.0, n)
        if f_path is None:
            f_path = draw_factor_path(rng, steps)
    else:
        gamma_ix = np.zeros(n)
        f_path = np.zeros(steps)
    e_x = _draw_x_innovations(rng, cfg, n, steps)

    x = np.zeros(n)
    out = np.empty((n, cfg.T))
    drift = alpha_ix * (1.0 - rho_ix)
    innov_scale = np.sqrt(1.0 - rho_ix**2) * sigma_ix
    for j in range(steps):
        x = drift + gamma_ix * f_path[j] + rho_ix * x + innov_scale * e_x[:, j]
        if j >= _BURN_IN:
            out[:, j - _BURN_IN] = x
    return out, e_x[:, _BURN_IN:], sigma_ix


def draw_factor_path(rng, steps: int) -> np.ndarray:
    """AR(0.9) common factor started at zero."""
    f = np.empty(steps)
    prev = 0.0
    scale = np.sqrt(1.0 - 0.81)
    shocks = rng.standard_normal(steps)
    for j in range(steps):
        prev = 0.9 * prev + scale * shocks[j]
        f[j] = prev
    return f


def standardized_quadratic(e_ret: np.ndarray, T: int, gamma2: float) -> np.ndarray:
    """Unit-level mixing variable: standardized de-meaned innovation quadratic."""
    q = ((e_ret - e_ret.mean(axis=1, keepdims=True)) ** 2).sum(axis=1)
    var = 2.0 * (T - 1) + gamma2 * (T - 1) ** 2 / T
    return (q - (T - 1)) / np.sqrt(var)


def _draw_coefficients(rng, cfg: DgpConfig, lam: np.ndarray, n: int):
    se_a = np.sqrt(cfg.sigma2_eps_alpha)
    se_b = np.sqrt(cfg.sigma2_eps_beta)
    eps_a = rng.standard_normal(n) * se_a
    eps_b = rng.standard_normal(n) * se_b
    alpha_i = cfg.theta0[0] + cfg.psi_alpha * lam + eps_a
    beta_i = cfg.theta0[1] + cfg.psi_beta * lam + eps_b
    return alpha_i, beta_i


def _draw_errors(rng, cfg: DgpConfig, n: int, lam: np.ndarray, e_ret: np.ndarray):
    if cfg.heterosked == "random":
        z_iu = rng.standard_normal(n)
        sigma_it = np.sqrt(0.5 * (1.0 + z_iu**2))[:, None]
    elif cfg.heterosked == "lambda2":
        sigma_it = np.abs(lam)[:, None]
    else:  # ex2
        sigma_it = np.abs(e_ret)
    if cfg.rho_ie_mode == "uniform095":
        rho_ie = rng.uniform(0.0, 0.95, n)
    else:
        rho_ie = np.zeros(n)
    e0 = rng.standard_normal(n)
    if cfg.y_error_dist == "gaussian":
        shocks = rng.standard_normal((n, cfg.T))
    else:
        g1 = rng.standard_normal((n, cfg.T))
        g2 = rng.standard_normal((n, cfg.T))
        shocks = 0.5 * (g1**2 + g2**2 - 2.0)
    if cfg.rho_ie_mode == "zero":
        e = shocks
    else:
        e = np.empty_like(shocks)
        prev = e0
        innov = np.sqrt(1.0 - rho_ie**2)
        for t in range(cfg.T):
            prev = rho_ie * prev + innov * shocks[:, t]
            e[:, t] = prev
    return sigma_it * e


def generate_replication(cfg: DgpConfig, rep: int) -> tuple[BalancedPanel, ReplicationTruth]:
    """Generate one panel draw plus the truth record for oracle checks."""
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    n = cfg.n
    rng_x = _stream(cfg.seed, rep, _ROLE_X)
    rng_c = _stream(cfg.seed, rep, _ROLE_COEF)
    rng_y = _stream(cfg.seed, rep, _ROLE_Y)
    x, e_ret, sigma_ix = _draw_x(rng_x, cfg, n)
    lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
    alpha_i, beta_i = _draw_coefficients(rng_c, cfg, lam, n)
    u = np.sqrt(cfg.kappa2) * _draw_errors(rng_y, cfg, n, lam, e_ret)
    phi = cfg.phi()
    y = alpha_i[:, None] + phi[None, :] + beta_i[:, None] * x + u
    panel = BalancedPanel(
        y=y, x=x[:, :, None], unit_ids=tuple(range(n)), time_ids=tuple(range(1, cfg.T + 1))
    )
    truth = ReplicationTruth(
        theta=np.column_stack([alpha_i, beta_i]),
        lam=lam,
        phi=phi,
        sigma_ix=sigma_ix,
        u=u,
    )
    return panel, truth


def calibrate_kappa(cfg: DgpConfig, r_kappa: int = 1000, n_cal: int = 5000) -> float:
    """Noise scale kappa^2 hitting the target pooled fit by stochastic simulation.

    Simulates coefficient and regressor draws only (no outcomes), accumulates
    the pooled second moments of beta_i * x_it, and scales their variance by
    (1 - PR^2)/PR^2. The common factor path, when present, is drawn once and
    shared across calibration replications.
    """
    f_path = None
    if cfg.interactive_x:
        f_path = draw_factor_path(
            _stream(cfg.seed, 0, _ROLE_FACTOR), _BURN_IN + cfg.T
        )
    a_acc = 0.0
    b_acc = 0.0
    for r in range(r_kappa):
        rng_x = _stream(cfg.seed, r, _ROLE_CAL_X)
        rng_c = _stream(cfg.seed, r, _ROLE_CAL_COEF)
        x, e_ret, _ = _draw_x(rng_x, cfg, n_cal, f_path=f_path)
        lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
        _, beta_i = _draw_coefficients(rng_c, cfg, lam, n_cal)
        bx = beta_i[:, None] * x
        a_acc += np.mean(bx * bx)
        b_acc += np.mean(bx)
    a_acc /= r_kappa
    b_acc /= r_kappa
    return float((1.0 - cfg.pr2) / cfg.pr2 * (a_acc - b_acc**2))


def with_calibrated_kappa(cfg: DgpConfig, r_kappa: int = 1000, n_cal: int = 5000) -> DgpConfig:
    """Return a copy of ``cfg`` with kappa2 filled in by calibration if unset."""
    if cfg.kappa2 is not None:
        return cfg
    return replace(cfg, kappa2=calibrate_kappa(cfg, r_kappa=r_kappa, n_cal=n_cal))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


@dataclass
class McResult:
    """Aggregated Monte Carlo metrics for one estimator or test."""

    estimator: str
    reps: int
    failures: int
    coef_names: tuple
    bias: np.ndarray
    rmse: np.ndarray
    size: np.ndarray
    pi_hat: float
    mc_se_bias: np.ndarray
    mc_se_size: np.ndarray
    power_curve: list | None = None

    def rows(self) -> list[tuple[str, str, str, float]]:
        """Flatten to (estimator, metric, coefficient, value) rows."""
        out = []
        for j, name in enumerate(self.coef_names):
            for metric, arr in (
                ("bias", self.bias),
                ("rmse", self.rmse),
                ("size", self.size),
                ("mc_se_bias", self.mc_se_bias),
                ("mc_se_size", self.mc_se_size),
            ):
                out.append((self.estimator, metric, name, float(arr[j])))
        out.append((self.estimator, "pi_hat", "", self.pi_hat))
        out.append((self.estimator, "reps", "", float(self.reps)))
        out.append((self.estimator, "failures", "", float(self.failures)))
        return out


class _Replication:
    """One replication: its panel, its single design and each tag's fit,
    computed at most once; the Hausman tags reuse the fits they compare."""

    def __init__(self, cfg: DgpConfig, rep: int, trim_cfg: TrimConfig, alpha_gp: float):
        self.panel, _ = generate_replication(cfg, rep)
        self.design = PanelDesign(self.panel)
        self.trim_cfg, self.alpha_gp = trim_cfg, alpha_gp
        self._fits = {}

    def fit(self, tag: str):
        if tag not in self._fits:
            self._fits[tag] = _TAG_FITS[tag](self)
        return self._fits[tag]


#: What each tag fits: an Estimate, an (Estimate, TimeEffects) pair or a test.
_TAG_FITS = {
    "fe": lambda r: fe(r.panel),
    "mg": lambda r: mg(r.panel, design=r.design),
    "tmg": lambda r: tmg(r.panel, r.trim_cfg, design=r.design),
    "gp": lambda r: gp(r.panel, r.alpha_gp, design=r.design),
    "fete": lambda r: fete(r.panel),
    "tmgte": lambda r: tmg_te(r.panel, r.trim_cfg, design=r.design),
    "gpte": lambda r: gp_te(r.panel, r.alpha_gp, design=r.design),
    "hausman": lambda r: hausman_no_te_from(r.design, r.fit("fe"), r.fit("tmg")),
    "hausman_te": lambda r: hausman_te_from(r.design, r.fit("fete")[0], r.fit("tmgte")[0]),
}


def _record(fit) -> tuple:
    """(slope and phi_1..phi_{T-1}, their standard errors, trimmed fraction),
    or (statistic, p-value, 0) for a test."""
    if isinstance(fit, HausmanResult):
        return np.array([fit.statistic]), np.array([fit.p_value]), 0.0
    est, te = fit if isinstance(fit, tuple) else (fit, None)
    j = est.coef_names.index("beta1")
    coef, se = est.coef[[j]], est.se[[j]]
    if te is not None:
        coef = np.concatenate([coef, te.phi[:-1]])
        se = np.concatenate([se, te.se[:-1]])
    return coef, se, est.pi_n


def _rep_records(
    cfg: DgpConfig, rep: int, tags: Sequence[str], trim_cfg: TrimConfig, alpha_gp: float
) -> dict:
    """Estimate every requested tag on one replication.

    Returns per-tag arrays (coef estimates, standard errors, trimmed fraction)
    or (statistic, p-value) for tests; NaN rows flag estimation failures.
    """
    replication = _Replication(cfg, rep, trim_cfg, alpha_gp)
    out = {}
    for tag in tags:
        if tag not in _TAG_FITS:
            raise ScenarioError(f"unknown estimator tag {tag!r}")
        try:
            out[tag] = _record(replication.fit(tag))
        except NumericalError:
            width = len(_tag_coef_names(tag, cfg.T))
            out[tag] = (np.full(width, np.nan), np.full(width, np.nan), np.nan)
    return out


def _tag_coef_names(tag: str, T: int) -> tuple:
    """Reported coefficients: the slope, then phi_1..phi_{T-1} for TE tags."""
    if tag in ("fete", "tmgte", "gpte"):
        return ("beta",) + tuple(f"phi{t}" for t in range(1, T))
    if tag in TEST_TAGS:
        return ("statistic",)
    return ("beta",)


def _tag_truth(tag: str, cfg: DgpConfig) -> np.ndarray:
    if tag in ("fete", "tmgte", "gpte"):
        return np.concatenate([[cfg.theta0[1]], cfg.phi()[:-1]])
    return np.array([cfg.theta0[1]])


def _worker(args):
    cfg, reps, tags, trim_cfg, alpha_gp = args
    return [_rep_records(cfg, r, tags, trim_cfg, alpha_gp) for r in reps]


def run_experiment(
    cfg: DgpConfig,
    estimators: Sequence[str],
    reps: int,
    beta0_grid: np.ndarray | None = None,
    trim_cfg: TrimConfig = TrimConfig(),
    alpha_gp: float = DEFAULT_ALPHA_GP,
    jobs: int = 1,
) -> list[McResult]:
    """Run ``reps`` independent replications and aggregate per-estimator metrics.

    Rejections use the two-sided 5% normal rule |estimate - truth|/SE > 1.96.
    ``beta0_grid`` adds a power curve (rejection of beta = b over the grid)
    for every coefficient-reporting estimator. Failures propagate as skipped
    replications, counted per estimator.
    """
    if reps < 1:
        raise ScenarioError(f"reps must be >= 1, got {reps}")
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    tags = list(dict.fromkeys(estimators))
    for tag in tags:
        if tag not in ESTIMATOR_TAGS + TEST_TAGS:
            raise ScenarioError(f"unknown estimator tag {tag!r}")

    rep_ids = list(range(reps))
    if jobs > 1 and reps > 1:
        chunks = [rep_ids[i::jobs] for i in range(jobs)]
        chunks = [c for c in chunks if c]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(
                pool.map(_worker, [(cfg, c, tags, trim_cfg, alpha_gp) for c in chunks])
            )
        records = [None] * reps
        for chunk, part in zip(chunks, parts):
            for r, rec in zip(chunk, part):
                records[r] = rec
    else:
        records = _worker((cfg, rep_ids, tags, trim_cfg, alpha_gp))

    results = []
    for tag in tags:
        names = _tag_coef_names(tag, cfg.T)
        width = len(names)
        est = np.array([rec[tag][0] for rec in records])  # (R, width)
        se = np.array([rec[tag][1] for rec in records])
        pi = np.array([rec[tag][2] for rec in records])
        ok = np.isfinite(est).all(axis=1)
        failures = int((~ok).sum())
        r_ok = int(ok.sum())
        est, se, pi = est[ok], se[ok], pi[ok]
        if tag in TEST_TAGS:
            # se column carries the p-value for test tags
            rejections = (se[:, 0] < 0.05).mean() if r_ok else np.nan
            results.append(
                McResult(
                    estimator=tag,
                    reps=r_ok,
                    failures=failures,
                    coef_names=names,
                    bias=np.full(1, np.nan),
                    rmse=np.full(1, np.nan),
                    size=np.array([rejections]),
                    pi_hat=np.nan,
                    mc_se_bias=np.full(1, np.nan),
                    mc_se_size=np.array(
                        [np.sqrt(rejections * (1 - rejections) / r_ok) if r_ok else np.nan]
                    ),
                )
            )
            continue
        truth = _tag_truth(tag, cfg)
        if r_ok == 0:
            nanvec = np.full(width, np.nan)
            results.append(
                McResult(
                    estimator=tag, reps=0, failures=failures, coef_names=names,
                    bias=nanvec, rmse=nanvec.copy(), size=nanvec.copy(),
                    pi_hat=np.nan, mc_se_bias=nanvec.copy(), mc_se_size=nanvec.copy(),
                )
            )
            continue
        err = est - truth
        bias = err.mean(axis=0)
        rmse = np.sqrt((err**2).mean(axis=0))
        size = (np.abs(err) / se > CRIT_5PCT).mean(axis=0)
        mc_se_bias = (
            est.std(axis=0, ddof=1) / np.sqrt(r_ok) if r_ok > 1 else np.full(width, np.nan)
        )
        mc_se_size = np.sqrt(size * (1 - size) / r_ok)
        power = None
        if beta0_grid is not None:
            power = []
            for b0 in np.asarray(beta0_grid, dtype=np.float64):
                rate = (np.abs(est[:, 0] - b0) / se[:, 0] > CRIT_5PCT).mean()
                power.append((float(b0), float(rate), float(np.sqrt(rate * (1 - rate) / r_ok))))
        results.append(
            McResult(
                estimator=tag,
                reps=r_ok,
                failures=failures,
                coef_names=names,
                bias=bias,
                rmse=rmse,
                size=size,
                pi_hat=float(pi.mean()) if r_ok else np.nan,
                mc_se_bias=mc_se_bias,
                mc_se_size=mc_se_size,
                power_curve=power,
            )
        )
    return results


def default_power_grid(beta0: float, points: int = 21, half_width: float = 0.5) -> np.ndarray:
    """Equispaced alternative grid centered on the true slope."""
    return np.linspace(beta0 - half_width, beta0 + half_width, points)


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

_SCENARIO_EXTRAS = ("estimators", "reps", "trim_alpha", "trim_c_n", "alpha_gp", "beta0_grid")


def scenario_from_dict(raw: dict) -> tuple[DgpConfig, dict]:
    """Split a flat scenario mapping into a DgpConfig and experiment settings."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    cfg_fields = DgpConfig.__dataclass_fields__
    cfg_kwargs, extras = {}, {}
    for key, value in raw.items():
        if key in cfg_fields:
            cfg_kwargs[key] = tuple(value) if key == "theta0" else value
        elif key in _SCENARIO_EXTRAS:
            extras[key] = value
        else:
            raise ScenarioError(f"unknown scenario field {key!r}")
    missing = [k for k in ("n", "T") if k not in cfg_kwargs]
    if missing:
        raise ScenarioError(f"scenario missing required fields {missing}")
    try:
        cfg = DgpConfig(**cfg_kwargs)
    except TypeError as exc:
        raise ScenarioError(str(exc)) from None
    return cfg, extras


def load_scenario(path) -> tuple[DgpConfig, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)
