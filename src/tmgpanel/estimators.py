"""Cross-section aggregators: FE, MG, TMG and GP.

Conventions: mean-group style estimators report the full coefficient vector
(intercept first, then slopes); the fixed-effects estimator reports slopes
only. Covariance matrices are for the estimator itself (standard errors are
the square roots of the diagonal).

Every estimator fits a block of replications
(:class:`~tmgpanel.panel.PanelBlock`): its results carry the leading
replication axis, and ``Estimate.fail`` names the failure of each replication
(its rows are NaN). A single panel is fitted as its block of one (see
:func:`~tmgpanel.designs.blockwise`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import det_stack
from .designs import (
    PanelDesign, blockwise, col, mt, nonsingular, pooled, rank_deficient, rank_ratio, void
)
from .errors import (
    AllSingularError,
    AllTrimmedError,
    SingularDesignError,
    SingularPooledGramError,
    failed,
    flag,
    no_failures,
)
from .panel import PanelBlock
from .trimming import TrimConfig, TrimState, compute_threshold, delta_weights

DEFAULT_ALPHA_GP = 1.0 / 3.0
IQR_NORMAL_SCALE = 1.34  # normal-reference scaling of the interquartile range


@dataclass(frozen=True)
class Estimate:
    """Coefficients, covariance and diagnostics of one estimation run."""

    method: str
    coef: np.ndarray
    cov: np.ndarray
    n_used: int
    pi_n: float = 0.0
    alpha_used: float | None = None
    per_unit: np.ndarray | None = None  # (..., n, k); zero rows outside ``keep``
    coef_names: tuple = field(default=())
    trim: TrimState | None = None  # threshold state of a TMG-family fit
    keep: np.ndarray | None = None  # units that enter the average; None is every unit
    fail: tuple | None = None  # per-replication failures of a block fit
    scores: np.ndarray | None = None  # (..., n, k') s_i = xw_i'nu~_i of a pooled fit
    bread: np.ndarray | None = None  # (..., k', k') (Psi/n)^{-1} of a pooled fit
    resid: np.ndarray | None = None  # (..., n, T) within residuals nu~ of a pooled fit

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diagonal(self.cov, axis1=-2, axis2=-1))


def pooled_slopes(panel: PanelBlock, xw: np.ndarray, xr: np.ndarray, yr: np.ndarray, what: str):
    """Pooled slopes solving sum_i xw_i'xr_i beta = sum_i xw_i'yr_i; a
    rank-deficient Gram matrix Psi = sum_i xw_i'xr_i fails its replication.
    Returns beta, Psi and the failures."""
    psi = pooled("ntp,ntq->pq", xw, xr)
    sxy = pooled("ntp,nt->p", xw, yr)
    fail = flag(
        no_failures(panel.lead),
        rank_deficient(psi),
        lambda i: SingularPooledGramError(
            f"{what} is singular (det / prod diag = {rank_ratio(psi[i]):.3e})"
        ),
    )
    coef = np.linalg.solve(nonsingular(psi, failed(fail)), sxy[..., None])[..., 0]
    return coef, psi, fail


def pooled_estimate(
    method: str, panel: PanelBlock, xw: np.ndarray, coef, psi, resid: np.ndarray, fail
) -> Estimate:
    """A pooled fit with its unit scores s_i = xw_i'nu~_i, its bread (Psi/n)^{-1}
    and the unit-clustered sandwich bread (sum_i s_i s_i' / n^2) bread."""
    n = panel.n
    # einsum: at k' = 1 the sum runs over unit-stride periods (see _kernels)
    scores = np.einsum("...ntp,...nt->...np", xw, resid)
    bread = np.linalg.inv(nonsingular(psi / n, failed(fail)))
    cov = bread @ (mt(scores) @ scores / n**2) @ bread
    return Estimate(
        method=method,
        coef=void(coef, fail),
        cov=void(cov, fail),
        n_used=n,
        coef_names=tuple(f"beta{j + 1}" for j in range(panel.k_prime)),
        fail=fail,
        scores=scores,
        bread=bread,
        resid=resid,
    )


@blockwise
def fe(panel: PanelBlock) -> Estimate:
    """Pooled fixed-effects estimator of the mean slopes with unit-clustered
    sandwich covariance (robust to heteroskedasticity, serial correlation and
    random slope heterogeneity)."""
    xd = panel.xd  # Psi = sum_i X'M X
    coef, psi, fail = pooled_slopes(panel, xd, panel.x, panel.y, "pooled Gram matrix")
    resid = panel.yd - np.einsum("...ntp,...p->...nt", xd, coef)
    return pooled_estimate("fe", panel, xd, coef, psi, resid, fail)


def _mg_names(k_prime: int) -> tuple:
    return ("alpha",) + tuple(f"beta{j + 1}" for j in range(k_prime))


@dataclass(frozen=True)
class Weighting:
    """How units enter a weighted mean-group average: unit i contributes
    adj(W_i'W_i) W_i'y_i / den_i, and the mean over the kept units is divided
    by ``scale``. TMG keeps every unit with den_i = max(d_i, a_n) and scale
    1 + delta_bar; GP keeps d_i > h_n^2 with den_i = d_i and scale 1."""

    keep: np.ndarray | None  # (..., n) retained-unit mask; None keeps every unit
    den: np.ndarray  # (..., n) per-unit denominators
    scale: float | np.ndarray
    pi_n: float | np.ndarray
    alpha: float | None
    trim: TrimState | None = None
    fail: tuple | None = None

    @property
    def m(self):
        """Units in the average: n, or (B,) counts when units are dropped."""
        if self.keep is None:
            return self.den.shape[-1]
        return self.keep.sum(axis=-1)


def unit_mean(a: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """Mean over the unit axis (the one after the replications) of the kept units.

    Rows of two or more entries are summed over units one row at a time, so
    zero rows for the dropped units leave the bits of a sum over the kept
    rows alone.
    """
    if keep is None:
        return a.mean(axis=1)
    keep = keep.reshape(keep.shape + (1,) * (a.ndim - keep.ndim))
    m = np.maximum(keep.sum(axis=1), 1)  # an empty replication fails
    return np.where(keep, a, 0.0).sum(axis=1) / m


def unit_gram(a: np.ndarray, keep: np.ndarray | None) -> np.ndarray:
    """sum_i a_i a_i' over the kept units of (B, n, k) rows.

    Dropped units are compressed away one replication at a time: a matrix
    product with zero rows in place of them would round differently.
    """
    if keep is None:
        return mt(a) @ a
    return np.stack([a[b][keep[b]].T @ a[b][keep[b]] for b in range(len(a))])


def tmg_weighting(pd: PanelDesign, cfg: TrimConfig) -> Weighting:
    """Every unit, den_i = max(d_i, a_n), scale 1 + delta_bar."""
    a_n = compute_threshold(pd.d, cfg)  # 0 for a replication with every d_i = 0
    fail = flag(
        no_failures(pd.lead),
        ~(a_n > 0.0),
        lambda i: AllSingularError("every determinant is zero; mean rule undefined"),
    )
    state = delta_weights(pd.d, np.where(a_n > 0.0, a_n, np.nan))
    fail = flag(
        fail,
        state.pi_n >= 1.0,
        lambda i: AllTrimmedError("every unit determinant is at or below the threshold"),
    )
    den, scale = np.where(state.trimmed, col(state.a_n), pd.d), state.weight_scale
    bad = failed(fail)
    if bad is not False:  # a failed replication (no threshold, or 1 + delta_bar = 0) divides by 1
        den, scale = np.where(col(bad), 1.0, den), np.where(bad, 1.0, scale)
    return Weighting(
        keep=None,
        den=den,
        scale=scale,
        pi_n=state.pi_n,
        alpha=cfg.alpha,
        trim=state,
        fail=fail,
    )


def gp_threshold(pd: PanelDesign, alpha_gp: float):
    """Squared trim-by-exclusion bandwidth h_n^2, (B,).

    T = k: h_n = C n^{-alpha} with C = min(sd, IQR/1.34)/2 of det(W_i);
    T > k: C = sqrt(dbar_n). Units with d_i <= h_n^2 are excluded.
    """
    if pd.W.shape[-2] == pd.k:
        # d_i = det(W_i)^2 when W_i is square; bandwidth set on det(W_i) itself
        det_w = det_stack(pd.W)
        q75, q25 = np.percentile(det_w, [75, 25], axis=-1)
        c = 0.5 * np.minimum(det_w.std(axis=-1, ddof=1), (q75 - q25) / IQR_NORMAL_SCALE)
    else:
        c = np.sqrt(pd.d.mean(axis=-1))
    return (c * pd.n ** (-alpha_gp)) ** 2


def gp_weighting(pd: PanelDesign, alpha_gp: float) -> Weighting:
    """The units with d_i > h_n^2, den_i = d_i, equal weights."""
    keep = pd.d > col(gp_threshold(pd, alpha_gp))
    m = keep.sum(axis=-1)
    fail = flag(
        no_failures(pd.lead), m == 0, lambda i: AllTrimmedError("bandwidth excluded every unit")
    )
    return Weighting(
        keep=keep,
        den=np.where(keep, pd.d, 1.0),
        scale=1.0,
        pi_n=1.0 - m / pd.n,
        alpha=alpha_gp,
        fail=fail,
    )


def weighted_mean_group(
    pd: PanelDesign, wt: Weighting, method: str, tilde: np.ndarray | None = None
) -> Estimate:
    """The weighted mean-group estimator behind MG, TMG and GP.

    ``tilde`` replaces the per-unit rows adj(W_i'W_i) W_i'y_i / den_i (the
    time-effects routes strip the period effects first).
    """
    if tilde is None:
        tilde = pd.adj_wty() / wt.den[..., None]
    if wt.keep is not None:
        tilde = np.where(wt.keep[..., None], tilde, 0.0)
    m = wt.m
    coef = unit_mean(tilde, wt.keep) / col(wt.scale)
    den = np.where(np.asarray(m) > 1, m * (m - 1) * wt.scale**2, np.nan)  # one unit: no cov
    cov = unit_gram(tilde - coef[..., None, :], wt.keep) / col(col(den))
    return Estimate(
        method=method,
        coef=void(coef, wt.fail),
        cov=void(cov, wt.fail),
        n_used=m,
        pi_n=wt.pi_n,
        alpha_used=wt.alpha,
        per_unit=tilde,
        coef_names=_mg_names(pd.k - 1),
        trim=wt.trim,
        keep=wt.keep,
        fail=wt.fail,
    )


def mg_weighting(pd: PanelDesign) -> Weighting:
    """Every unit, den_i = d_i, scale 1; a singular unit fails its replication."""
    sing = pd.singular()
    fail = flag(
        no_failures(pd.lead),
        sing.any(axis=-1),
        lambda i: SingularDesignError(units=np.flatnonzero(sing[i]).tolist()),
    )
    den = np.where(sing, 1.0, pd.d)
    return Weighting(keep=None, den=den, scale=1.0, pi_n=0.0, alpha=None, fail=fail)


@blockwise
def mg(panel: PanelBlock) -> Estimate:
    """Mean group estimator: simple average of per-unit OLS (every unit,
    den_i = d_i, scale 1), with the nonparametric covariance
    sum (theta_i - mean)^2 / (n(n-1)). A singular unit design fails with
    :class:`SingularDesignError` naming the units.
    """
    pd = panel.design
    return weighted_mean_group(pd, mg_weighting(pd), "mg")


@blockwise
def tmg(panel: PanelBlock, cfg: TrimConfig = TrimConfig()) -> Estimate:
    """Trimmed mean group estimator with bias-adjusted covariance.

    Units below the threshold contribute through the inversion-free adjugate
    form; the weighted average is rescaled by 1 + delta_bar so the weights
    sum to one.
    """
    pd = panel.design
    return weighted_mean_group(pd, tmg_weighting(pd, cfg), "tmg")


@blockwise
def gp(panel: PanelBlock, alpha_gp: float = DEFAULT_ALPHA_GP) -> Estimate:
    """Trim-by-exclusion mean group estimator: simple average over units whose
    determinant clears the bandwidth, with the untrimmed analogue of the MG
    covariance (sample covariance of retained estimates over their count)."""
    pd = panel.design
    return weighted_mean_group(pd, gp_weighting(pd, alpha_gp), "gp")
