"""Monte Carlo engine: data generating process, noise-scale calibration,
replication runner and bias/RMSE/size/power aggregation.

Replication r of an experiment draws from counter-based random streams keyed
by (seed, r, role) with separate roles for regressor innovations, coefficient
draws and outcome errors, so results are independent of worker count and
bit-reproducible for a given (seed, config, reps).

Replications are drawn and fitted in blocks: B replications stack on a leading
axis, the AR(1) burn-in and every estimator run once over the block, and each
replication fails alone, with its reason. A replication's numbers do not
depend on its block.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .designs import void, within
from .errors import NumericalError, ScenarioError
from .estimators import DEFAULT_ALPHA_GP, fe, gp, mg, tmg
from .hausman import HausmanResult, hausman_no_te, hausman_te
from .panel import BalancedPanel, PanelBlock
from .timeeffects import fete, gp_te, tmg_te
from .trimming import DEFAULT_ALPHA, TrimConfig

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
#: the estimators that also report the period effects phi_1..phi_{T-1}
TE_TAGS = ("fete", "tmgte", "gpte")


#: Upper bounds of a scenario's sizes: a size no run could hold fails before numpy
#: sees it, but a size within them can still exceed the machine's memory.
MAX_UNITS, MAX_PERIODS, MAX_REPS = 10**7, 10**4, 10**6


# The kinds of the field table's tests. A plain int or float skips the slower
# numbers ABC checks, and a bool is never a number.
def _integer(lo, hi=math.inf):
    return lambda v: (
        type(v) is int or isinstance(v, numbers.Integral) and not isinstance(v, bool)
    ) and lo <= v <= hi


def _real(ok=lambda x: True):
    """A real number whose double x passes ``ok``; an int past a double's range is none."""
    def test(v):
        if type(v) in (float, int) or isinstance(v, numbers.Real) and not isinstance(v, bool):
            try:
                return ok(float(v))
            except OverflowError:
                pass
        return False
    return test


def _choice(options):
    return lambda v: isinstance(v, str) and v in options, f"one of {options}"


def _list(item, lo=1, hi=math.inf):
    return lambda v: isinstance(v, (list, tuple)) and lo <= len(v) <= hi and all(map(item, v))


def _or_none(test):
    return lambda v: v is None or test(v)


_BOOL = (lambda v: isinstance(v, bool), "true or false")
_VARIANCE = (_real(lambda x: 0.0 <= x < math.inf), "a finite number >= 0")
_CORRELATION = (_real(lambda x: 0.0 <= x < 1.0), "a finite number in [0, 1)")
_UNITS = (_integer(2, MAX_UNITS), f"an integer from 2 to {MAX_UNITS}")
_REPS = (_integer(1, MAX_REPS), f"an integer >= 1 and at most {MAX_REPS}")
#: Each scenario field's test and what it asks for (TrimConfig owns the trim
#: ranges), and those of calibrate_kappa's r_kappa and n_cal.
_FIELDS = {
    "n": _UNITS,
    "T": (_integer(2, MAX_PERIODS), f"an integer from 2 to {MAX_PERIODS}"),
    "theta0": (_list(_real(math.isfinite), 2, 2), "two numbers, both finite"),
    "sigma2_alpha": _VARIANCE,
    "sigma2_beta": _VARIANCE,
    "rho_alpha": _CORRELATION,
    "rho_beta": _CORRELATION,
    "pr2": (_real(lambda x: 0.0 < x < 1.0), "a finite number in (0, 1)"),
    "y_error_dist": _choice(Y_ERROR_DISTS),
    "x_error_dist": _choice(X_ERROR_DISTS),
    "rho_ie_mode": _choice(RHO_MODES),
    "rho_ix_mode": _choice(RHO_MODES),
    "interactive_x": _BOOL,
    "heterosked": _choice(HETEROSKED_MODES),
    "time_effects": _BOOL,
    "kappa2": (_or_none(_VARIANCE[0]), "a finite number >= 0, or null"),
    "seed": (_integer(0), "non-negative: an integer >= 0"),
    "estimators": (_list(lambda t: isinstance(t, str)), "a list of tags, at least one"),
    "reps": _REPS,
    "jobs": (_integer(1), "an integer >= 1"),
    "beta0_grid": (_or_none(_list(_real(math.isfinite))), "a non-empty list of finite numbers"),
    "trim_alpha": (_real(), "a number"),
    "trim_c_n": (_or_none(_real()), "a number, or null"),
    "alpha_gp": (_real(lambda x: x > 0.0), "a positive number"),
    "r_kappa": _REPS,
    "n_cal": _UNITS,
}


def _check(name: str, value) -> None:
    test, what = _FIELDS[name]
    if not test(value):
        raise ScenarioError(f"{name} must be {what}, got {value!r}")


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
        for name in self.__dataclass_fields__:
            _check(name, getattr(self, name))

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


@dataclass(frozen=True)
class ReplicationTruth:
    """Generated quantities retained for oracle checks (a block's arrays
    carry its leading replication axis, except phi)."""

    theta: np.ndarray  # (..., n, 2): alpha_i, beta_i
    lam: np.ndarray  # (..., n)
    phi: np.ndarray  # (T,)
    sigma_ix: np.ndarray  # (..., n)
    u: np.ndarray  # (..., n, T)


#: Cap on B*n, the units that a block of B replications of an n-unit design
#: holds at once. Blocking pays the per-call overhead of the fits, and of the
#: draws after the burn-in, once per block. Its price is peak memory: every
#: per-unit array of the fits gains the leading axis. Those arrays grow with
#: n*T*k at most (the projectors are kept in factor form, so none grows with
#: T^2), and T is short, so the cap counts units. It keeps the n=1000 cells
#: (B = 4 at T = 2 and T = 3) within 3% of the one-replication peak RSS, and a
#: design with more units runs one replication at a time. Results do not
#: depend on it.
MAX_BLOCK_UNITS = 4000


def block_size(n: int) -> int:
    """Most replications per block for an n-unit design."""
    return max(1, MAX_BLOCK_UNITS // n)


def _blocks(reps: Sequence[int], size: int) -> list[Sequence[int]]:
    """``reps`` cut into the fewest runs of at most ``size`` consecutive
    entries, whose lengths differ by at most one."""
    count = -(-len(reps) // size)
    cuts = [i * len(reps) // count for i in range(count + 1)]
    return [reps[a:b] for a, b in zip(cuts, cuts[1:])]


def _stream(seed: int, rep: int, role: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, rep, role))))


def _draw_x(rngs, cfg: DgpConfig, n: int, f_path: np.ndarray | None = None):
    """Factor-augmented heterogeneous AR(1) regressor paths for a block of
    replications, one generator each, drawn in the order of a single one.

    The recursion starts at zero and runs 50 burn-in periods before the T
    retained observations. Returns the paths, the retained innovations and
    the per-unit innovation scales, each with a leading replication axis.
    ``f_path`` is a common factor path shared by every replication; without
    it each draws its own.

    The burn-in runs one replication at a time through one reused (n, 50 + T)
    innovation buffer, the largest array of the draws: stacking it over the
    block raised the peak memory by more than it saved time.
    """
    B, steps = len(rngs), _BURN_IN + cfg.T
    alpha_ix, z_ix = np.empty((B, n)), np.empty((B, n))
    rho_ix, gamma_ix = np.zeros((B, n)), np.zeros((B, n))
    out, e_ret = np.empty((B, n, cfg.T)), np.empty((B, n, cfg.T))
    e_x, x = np.empty((n, steps)), np.empty(n)
    for b, rng in enumerate(rngs):
        alpha_ix[b] = rng.normal(1.0, 1.0, n)
        z_ix[b] = rng.standard_normal(n)
        if cfg.rho_ix_mode == "uniform095":
            rho_ix[b] = rng.uniform(0.0, 0.95, n)
        f = np.zeros(steps) if f_path is None else f_path
        if cfg.interactive_x:
            gamma_ix[b] = rng.uniform(0.0, 2.0, n)
            if f_path is None:
                f = draw_factor_path(rng, steps)
        if cfg.x_error_dist == "gaussian":
            rng.standard_normal(out=e_x)
        else:
            rng.random(out=e_x)
            e_x -= 0.5
            e_x *= np.sqrt(12.0)
        e_ret[b] = e_x[:, _BURN_IN:]
        rho, gamma = rho_ix[b], gamma_ix[b]
        drift = alpha_ix[b] * (1.0 - rho)
        e_x *= (np.sqrt(1.0 - rho**2) * np.sqrt(0.5 * (1.0 + z_ix[b] ** 2)))[:, None]
        x[:] = 0.0
        for j in range(steps):
            # x = drift + gamma f_j + rho x + scale e_j, in place; without
            # factors gamma f_j is exactly zero and adding it changes no bit
            np.multiply(rho, x, out=x)
            x += drift + gamma * f[j] if cfg.interactive_x else drift
            x += e_x[:, j]
            if j >= _BURN_IN:
                out[b, :, j - _BURN_IN] = x
    return out, e_ret, np.sqrt(0.5 * (1.0 + z_ix**2))


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
    q = (within(e_ret) ** 2).sum(axis=-1)
    var = 2.0 * (T - 1) + gamma2 * (T - 1) ** 2 / T
    return (q - (T - 1)) / np.sqrt(var)


def _normals(rngs, shape: tuple) -> np.ndarray:
    """One standard-normal draw of ``shape`` from each generator, stacked."""
    out = np.empty((len(rngs),) + shape)
    for b, rng in enumerate(rngs):
        rng.standard_normal(out=out[b])
    return out


def _draw_coefficients(rngs, cfg: DgpConfig, lam: np.ndarray, n: int):
    se_a = np.sqrt(cfg.sigma2_eps_alpha)
    se_b = np.sqrt(cfg.sigma2_eps_beta)
    z = _normals(rngs, (2, n))  # eps_alpha, then eps_beta, per replication
    alpha_i = cfg.theta0[0] + cfg.psi_alpha * lam + z[:, 0] * se_a
    beta_i = cfg.theta0[1] + cfg.psi_beta * lam + z[:, 1] * se_b
    return alpha_i, beta_i


def _draw_errors(rngs, cfg: DgpConfig, n: int, lam: np.ndarray, e_ret: np.ndarray):
    B, T = len(rngs), cfg.T
    z_iu, rho_ie, e0 = np.empty((B, n)), np.zeros((B, n)), np.empty((B, n))
    g = np.empty((B, 1 if cfg.y_error_dist == "gaussian" else 2, n, T))
    for b, rng in enumerate(rngs):
        if cfg.heterosked == "random":
            rng.standard_normal(out=z_iu[b])
        if cfg.rho_ie_mode == "uniform095":
            rho_ie[b] = rng.uniform(0.0, 0.95, n)
        rng.standard_normal(out=e0[b])
        rng.standard_normal(out=g[b])
    if cfg.heterosked == "random":
        sigma_it = np.sqrt(0.5 * (1.0 + z_iu**2))[..., None]
    elif cfg.heterosked == "lambda2":
        sigma_it = np.abs(lam)[..., None]
    else:  # ex2
        sigma_it = np.abs(e_ret)
    if cfg.y_error_dist == "gaussian":
        shocks = g[:, 0]
    else:
        shocks = 0.5 * (g[:, 0] ** 2 + g[:, 1] ** 2 - 2.0)
    if cfg.rho_ie_mode == "zero":
        e = shocks
    else:
        e = np.empty_like(shocks)
        prev = e0
        innov = np.sqrt(1.0 - rho_ie**2)
        for t in range(T):
            prev = rho_ie * prev + innov * shocks[..., t]
            e[..., t] = prev
    return sigma_it * e


def generate_block(cfg: DgpConfig, reps: Sequence[int]) -> tuple[PanelBlock, ReplicationTruth]:
    """Replications ``reps`` drawn as one block: the panels stacked on a leading
    axis and a truth record whose arrays carry the same axis. Each replication
    draws from its own (seed, rep, role) streams, so its values do not depend
    on the block it is drawn in."""
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    n = cfg.n
    rng_x = [_stream(cfg.seed, r, _ROLE_X) for r in reps]
    rng_c = [_stream(cfg.seed, r, _ROLE_COEF) for r in reps]
    rng_y = [_stream(cfg.seed, r, _ROLE_Y) for r in reps]
    x, e_ret, sigma_ix = _draw_x(rng_x, cfg, n)
    lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
    alpha_i, beta_i = _draw_coefficients(rng_c, cfg, lam, n)
    u = np.sqrt(cfg.kappa2) * _draw_errors(rng_y, cfg, n, lam, e_ret)
    phi = cfg.phi()
    y = alpha_i[..., None] + phi + beta_i[..., None] * x + u
    truth = ReplicationTruth(
        theta=np.stack([alpha_i, beta_i], axis=-1), lam=lam, phi=phi, sigma_ix=sigma_ix, u=u
    )
    return PanelBlock(y=y, x=x[..., None]), truth


def generate_replication(cfg: DgpConfig, rep: int) -> tuple[BalancedPanel, ReplicationTruth]:
    """Generate one panel draw plus the truth record for oracle checks: the
    block of the single replication ``rep``."""
    block, truth = generate_block(cfg, [rep])
    panel = BalancedPanel(
        y=block.y[0], x=block.x[0], unit_ids=tuple(range(cfg.n)),
        time_ids=tuple(range(1, cfg.T + 1)),
    )
    truth = ReplicationTruth(
        theta=truth.theta[0], lam=truth.lam[0], phi=truth.phi, sigma_ix=truth.sigma_ix[0],
        u=truth.u[0],
    )
    return panel, truth


def calibrate_kappa(cfg: DgpConfig, r_kappa: int = 1000, n_cal: int = 5000) -> float:
    """Noise scale kappa^2 hitting the target pooled fit by stochastic simulation.

    Simulates coefficient and regressor draws only (no outcomes), accumulates
    the pooled second moments of beta_i * x_it, and scales their variance by
    (1 - PR^2)/PR^2. The common factor path, when present, is drawn once and
    shared across calibration replications. Replications run in blocks, as in
    :func:`run_experiment`, and are accumulated in order.
    """
    _check("r_kappa", r_kappa)
    _check("n_cal", n_cal)
    f_path = None
    if cfg.interactive_x:
        f_path = draw_factor_path(
            _stream(cfg.seed, 0, _ROLE_FACTOR), _BURN_IN + cfg.T
        )
    a_acc = 0.0
    b_acc = 0.0
    for reps in _blocks(range(r_kappa), block_size(n_cal)):
        rng_x = [_stream(cfg.seed, r, _ROLE_CAL_X) for r in reps]
        rng_c = [_stream(cfg.seed, r, _ROLE_CAL_COEF) for r in reps]
        x, e_ret, _ = _draw_x(rng_x, cfg, n_cal, f_path=f_path)
        lam = standardized_quadratic(e_ret, cfg.T, cfg.excess_kurtosis_x)
        _, beta_i = _draw_coefficients(rng_c, cfg, lam, n_cal)
        bx = beta_i[..., None] * x
        for a, b in zip(np.mean(bx * bx, axis=(1, 2)), np.mean(bx, axis=(1, 2))):
            a_acc += a
            b_acc += b
    a_acc /= r_kappa
    b_acc /= r_kappa
    return float((1.0 - cfg.pr2) / cfg.pr2 * (a_acc - b_acc**2))


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
    #: failed replications by reason: the NumericalError class name, or
    #: NONFINITE_SE for a finite estimate without a finite standard error
    failures_by_reason: dict = field(default_factory=dict)

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
        for reason, count in sorted(self.failures_by_reason.items()):
            out.append((self.estimator, f"failures.{reason}", "", float(count)))
        return out


#: Failure reason of a replication whose estimate is finite but whose
#: standard error is not (e.g. GP keeping a single unit).
NONFINITE_SE = "NonFiniteStandardError"


#: What each tag fits on a block, given the block, the trim config and the GP
#: exponent: an Estimate, an (Estimate, TimeEffects) pair or a test. Each
#: entry asks the block (:meth:`PanelBlock.fit`), so a fit that several tags
#: read, as the Hausman tests read the fits they compare, runs once per
#: block. The entries look the fits up by name when called, so a fit rebound
#: on this module (as the benchmark's layer trace does) is the one that runs.
_TAG_FITS = {
    "fe": lambda b, t, a: b.fit(fe),
    "mg": lambda b, t, a: b.fit(mg),
    "tmg": lambda b, t, a: b.fit(tmg, t),
    "gp": lambda b, t, a: b.fit(gp, a),
    "fete": lambda b, t, a: b.fit(fete),
    "tmgte": lambda b, t, a: b.fit(tmg_te, t),
    "gpte": lambda b, t, a: b.fit(gp_te, a),
    "hausman": lambda b, t, a: b.fit(hausman_no_te, t),
    "hausman_te": lambda b, t, a: b.fit(hausman_te, t),
}


def _block_records(
    cfg: DgpConfig, reps: Sequence[int], tags: Sequence[str], trim_cfg: TrimConfig,
    alpha_gp: float,
) -> dict:
    """Estimate every requested tag on one block of replications.

    Returns per tag the arrays (coef (B, width), se (B, width), trimmed
    fraction (B,), reason (B,)): the slope and phi_1..phi_{T-1} with their
    standard errors, or a test's statistic and p-value with a zero fraction.
    A failed replication has NaN rows and its NumericalError class name; the
    others have reason None.
    """
    block = generate_block(cfg, reps)[0]
    B = len(reps)
    out = {}
    for tag in tags:
        try:
            fit = _TAG_FITS[tag](block, trim_cfg, alpha_gp)
        except NumericalError as exc:  # a failure of the block's shape fails every replication
            nan = np.full((B, len(_tag_coef_names(tag, cfg.T))), np.nan)
            out[tag] = nan, nan, np.full(B, np.nan), np.full(B, type(exc).__name__, dtype=object)
            continue
        if isinstance(fit, HausmanResult):
            coef, se, pi, fail = fit.statistic[:, None], fit.p_value[:, None], np.zeros(B), fit.fail
        else:
            est, te = fit if isinstance(fit, tuple) else (fit, None)
            j = est.coef_names.index("beta1")
            coef, se, fail = est.coef[:, [j]], est.se[:, [j]], est.fail
            if te is not None:
                coef = np.concatenate([coef, te.phi[:, :-1]], axis=1)
                se = np.concatenate([se, te.se[:, :-1]], axis=1)
            pi = void(np.broadcast_to(est.pi_n, (B,)), fail)
            coef, se = void(coef, fail), void(se, fail)
        reason = np.array([None if f is None else type(f).__name__ for f in fail], dtype=object)
        out[tag] = coef, se, pi, reason
    return out


def _tag_coef_names(tag: str, T: int) -> tuple:
    """Reported coefficients: the slope, then phi_1..phi_{T-1} for TE tags."""
    if tag in TE_TAGS:
        return ("beta",) + tuple(f"phi{t}" for t in range(1, T))
    if tag in TEST_TAGS:
        return ("statistic",)
    return ("beta",)


def _tag_truth(tag: str, cfg: DgpConfig) -> np.ndarray:
    if tag in TE_TAGS:
        return np.concatenate([[cfg.theta0[1]], cfg.phi()[:-1]])
    return np.array([cfg.theta0[1]])


def _concat(parts: list[dict]) -> dict:
    """Per tag, the arrays of consecutive runs of replications, joined in order."""
    return {tag: tuple(map(np.concatenate, zip(*[p[tag] for p in parts]))) for tag in parts[0]}


def _worker(args):
    """The :func:`_block_records` arrays of the replications ``reps``, fitted
    in the fewest blocks of at most :func:`block_size` consecutive entries,
    of balanced sizes, and joined in replication order."""
    cfg, reps, tags, trim_cfg, alpha_gp = args
    return _concat([
        _block_records(cfg, block, tags, trim_cfg, alpha_gp)
        for block in _blocks(reps, block_size(cfg.n))
    ])


def _aggregate(tag, cfg: DgpConfig, coef, se, pi, reason, beta0_grid) -> McResult:
    """Metrics of one tag over its replications. A row with a non-finite
    estimate or standard error is a failure: it is counted by reason and left
    out of every metric. A tag with no OK replication reports NaN metrics and
    no power curve, and a test reports only its rejection rate (in ``size``)."""
    names = _tag_coef_names(tag, cfg.T)
    # a finite estimate with a non-finite se (e.g. GP keeping one unit)
    # cannot be tested, so it counts as a failure, not a non-rejection
    ok = np.isfinite(coef).all(axis=1) & np.isfinite(se).all(axis=1)
    by_reason = dict(sorted(Counter(r or NONFINITE_SE for r in reason[~ok]).items()))
    r_ok = int(ok.sum())
    coef, se, pi = coef[ok], se[ok], pi[ok]
    bias, rmse, size, mc_se_bias, mc_se_size = np.full((5, len(names)), np.nan)
    pi_hat, power = np.nan, None
    if r_ok and tag in TEST_TAGS:
        size = (se < 0.05).mean(axis=0)  # the se column carries a test's p-value
        mc_se_size = np.sqrt(size * (1 - size) / r_ok)
    elif r_ok:
        err = coef - _tag_truth(tag, cfg)
        bias = err.mean(axis=0)
        rmse = np.sqrt((err**2).mean(axis=0))
        size = (np.abs(err) / se > CRIT_5PCT).mean(axis=0)
        mc_se_size = np.sqrt(size * (1 - size) / r_ok)
        if r_ok > 1:
            mc_se_bias = coef.std(axis=0, ddof=1) / np.sqrt(r_ok)
        pi_hat = float(pi.mean())
        if beta0_grid is not None:
            power = []
            for b0 in np.asarray(beta0_grid, dtype=np.float64):
                rate = (np.abs(coef[:, 0] - b0) / se[:, 0] > CRIT_5PCT).mean()
                power.append((float(b0), float(rate), float(np.sqrt(rate * (1 - rate) / r_ok))))
    return McResult(
        estimator=tag, reps=r_ok, failures=len(ok) - r_ok, coef_names=names, bias=bias,
        rmse=rmse, size=size, pi_hat=pi_hat, mc_se_bias=mc_se_bias, mc_se_size=mc_se_size,
        power_curve=power, failures_by_reason=by_reason,
    )


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
    replications, counted per estimator and by reason. Replications are drawn
    and fitted in blocks (see MAX_BLOCK_UNITS), and each of ``jobs`` workers,
    at most one per core this process may run on, takes a run of consecutive
    replications; neither the block size nor ``jobs`` changes any result.
    """
    _check("reps", reps)
    _check("jobs", jobs)
    if cfg.kappa2 is None:
        raise ScenarioError("kappa2 is unset; calibrate it first (see calibrate_kappa)")
    _check_tags(estimators)
    tags = list(dict.fromkeys(estimators))

    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    chunks = _blocks(range(reps), -(-reps // min(jobs, cores or 1)))
    if len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a split run pays its import

        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            records = _concat(
                list(pool.map(_worker, [(cfg, c, tags, trim_cfg, alpha_gp) for c in chunks]))
            )
    else:
        records = _worker((cfg, range(reps), tags, trim_cfg, alpha_gp))
    return [_aggregate(tag, cfg, *records[tag], beta0_grid) for tag in tags]


# ---------------------------------------------------------------------------
# scenario (de)serialization
# ---------------------------------------------------------------------------

#: The experiment settings a scenario may give beside the DgpConfig fields, and their defaults.
_EXTRAS = {"estimators": ("tmg",), "reps": 2000, "trim_alpha": DEFAULT_ALPHA, "trim_c_n": None,
           "alpha_gp": DEFAULT_ALPHA_GP, "beta0_grid": None}


def scenario_from_dict(raw: dict) -> tuple[DgpConfig, dict]:
    """A DgpConfig and the settings of ``_EXTRAS``, all checked, plus ``trim_cfg``."""
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    cfg_fields = DgpConfig.__dataclass_fields__
    for key in raw:
        if key not in cfg_fields and key not in _EXTRAS:
            raise ScenarioError(f"unknown scenario field {key!r}")
    missing = [k for k in ("n", "T") if k not in raw]
    if missing:
        raise ScenarioError(f"scenario missing required fields {missing}")
    cfg = DgpConfig(**{
        key: tuple(value) if key == "theta0" and isinstance(value, list) else value
        for key, value in raw.items() if key in cfg_fields
    })
    extras = {key: raw.get(key, default) for key, default in _EXTRAS.items()}
    for key, value in extras.items():
        _check(key, value)
    _check_tags(extras["estimators"])
    try:
        extras["trim_cfg"] = TrimConfig(alpha=extras["trim_alpha"], c_n=extras["trim_c_n"])
    except ValueError as exc:
        raise ScenarioError(f"invalid trim_alpha/trim_c_n: {exc}") from None
    return cfg, extras


def _check_tags(tags) -> None:
    """A list of tags, at least one; an unknown tag is a ScenarioError of its own."""
    _check("estimators", tags)
    for tag in tags:
        if tag not in ESTIMATOR_TAGS + TEST_TAGS:
            raise ScenarioError(f"unknown estimator tag {tag!r}")


def load_scenario(path) -> tuple[DgpConfig, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ScenarioError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)
