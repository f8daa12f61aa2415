"""Cross-section aggregators: FE, MG, TMG, GP and efficiency diagnostics.

Conventions: mean-group style estimators report the full coefficient vector
(intercept first, then slopes); the fixed-effects estimator reports slopes
only. Covariance matrices are for the estimator itself (standard errors are
the square roots of the diagonal).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import _det_adj_stack
from .designs import PanelDesign, within
from .errors import (
    AllTrimmedError,
    SingularPooledGramError,
    SingularUnitGramError,
)
from .panel import BalancedPanel
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
    per_unit: np.ndarray | None = None
    coef_names: tuple = field(default=())
    trim: TrimState | None = None  # threshold state of a TMG-family fit
    keep: np.ndarray | None = None  # units behind the per_unit rows; None is every unit

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.diag(self.cov))

    def to_record(self, n: int | None = None, T: int | None = None) -> dict:
        """Flat serializable record (method, coef, se, pi_n, n, T, alpha)."""
        return {
            "method": self.method,
            "coef": [float(c) for c in np.atleast_1d(self.coef)],
            "se": [float(s) for s in np.atleast_1d(self.se)],
            "pi_n": float(self.pi_n),
            "n": int(self.n_used if n is None else n),
            "T": None if T is None else int(T),
            "alpha": None if self.alpha_used is None else float(self.alpha_used),
        }


def _solve_spd(a: np.ndarray, b: np.ndarray, err: type[Exception], what: str):
    """Solve a symmetric positive definite system, raising ``err`` when rank deficient."""
    w = np.linalg.eigvalsh(a)
    if w[0] <= 1e-12 * max(w[-1], 0.0) or w[-1] <= 0.0:
        raise err(f"{what} is singular (eigenvalues {w[0]:.3e} .. {w[-1]:.3e})")
    return np.linalg.solve(a, b)


def fe(panel: BalancedPanel) -> Estimate:
    """Pooled fixed-effects estimator of the mean slopes with unit-clustered
    sandwich covariance (robust to heteroskedasticity, serial correlation and
    random slope heterogeneity)."""
    xd = within(panel.x, axis=1)
    yd = within(panel.y, axis=1)
    psi = np.einsum("ntp,ntq->pq", xd, panel.x)  # sum_i X'M X
    sxy = np.einsum("ntp,nt->p", xd, panel.y)
    coef = _solve_spd(psi, sxy, SingularPooledGramError, "pooled Gram matrix")
    resid = yd - np.einsum("ntp,p->nt", xd, coef)
    scores = np.einsum("ntp,nt->np", xd, resid)  # s_i = X'M u_i
    psibar_inv = np.linalg.inv(psi / panel.n)
    meat = scores.T @ scores / panel.n**2
    cov = psibar_inv @ meat @ psibar_inv
    return Estimate(
        method="fe",
        coef=coef,
        cov=cov,
        n_used=panel.n,
        coef_names=tuple(f"beta{j + 1}" for j in range(panel.k_prime)),
    )


def _mg_names(k_prime: int) -> tuple:
    return ("alpha",) + tuple(f"beta{j + 1}" for j in range(k_prime))


@dataclass(frozen=True)
class Weighting:
    """How units enter a weighted mean-group average: unit i contributes
    adj(W_i'W_i) W_i'y_i / den_i, and the mean over the kept units is divided
    by ``scale``. TMG keeps every unit with den_i = max(d_i, a_n) and scale
    1 + delta_bar; GP keeps d_i > h_n^2 with den_i = d_i and scale 1."""

    keep: np.ndarray | None  # retained-unit mask; None keeps every unit
    den: np.ndarray  # (n,) per-unit denominators
    scale: float
    pi_n: float
    alpha: float | None
    trim: TrimState | None = None

    def kept(self, a: np.ndarray) -> np.ndarray:
        """The rows of a per-unit array that enter the average."""
        return a if self.keep is None else a[self.keep]


def tmg_weighting(pd: PanelDesign, cfg: TrimConfig) -> Weighting:
    """Every unit, den_i = max(d_i, a_n), scale 1 + delta_bar."""
    state = delta_weights(pd.d, compute_threshold(pd.d, cfg))
    if state.pi_n >= 1.0:
        raise AllTrimmedError("every unit determinant is at or below the threshold")
    return Weighting(
        keep=None,
        den=np.where(state.trimmed, state.a_n, pd.d),
        scale=state.weight_scale,
        pi_n=state.pi_n,
        alpha=cfg.alpha,
        trim=state,
    )


def gp_threshold(pd: PanelDesign, alpha_gp: float) -> float:
    """Squared trim-by-exclusion bandwidth h_n^2.

    T = k: h_n = C n^{-alpha} with C = min(sd, IQR/1.34)/2 of det(W_i);
    T > k: C = sqrt(dbar_n). Units with d_i <= h_n^2 are excluded.
    """
    n = pd.n
    if pd.panel.T == pd.k:
        # d_i = det(W_i)^2 when W_i is square; bandwidth set on det(W_i) itself
        det_w = _det_adj_stack(pd.W)[0]
        q75, q25 = np.percentile(det_w, [75, 25])
        c = 0.5 * min(det_w.std(ddof=1), (q75 - q25) / IQR_NORMAL_SCALE)
    else:
        c = np.sqrt(pd.d.mean())
    return float((c * n ** (-alpha_gp)) ** 2)


def gp_weighting(pd: PanelDesign, alpha_gp: float) -> Weighting:
    """The units with d_i > h_n^2, den_i = d_i, equal weights."""
    keep = pd.d > gp_threshold(pd, alpha_gp)
    m = int(keep.sum())
    if m == 0:
        raise AllTrimmedError("bandwidth excluded every unit")
    return Weighting(keep=keep, den=pd.d, scale=1.0, pi_n=1.0 - m / pd.n, alpha=alpha_gp)


def weighted_mean_group(
    pd: PanelDesign, wt: Weighting, method: str, tilde: np.ndarray | None = None
) -> Estimate:
    """The weighted mean-group estimator behind MG, TMG and GP.

    ``tilde`` replaces the per-unit rows adj(W_i'W_i) W_i'y_i / den_i of the
    kept units (the time-effects routes strip the period effects first).
    """
    if tilde is None:
        adj_wty = np.einsum("nkj,nj->nk", wt.kept(pd.adj), wt.kept(pd.wty()))
        tilde = adj_wty / wt.kept(wt.den)[:, None]
    m = tilde.shape[0]
    coef = tilde.mean(axis=0) / wt.scale
    dev = tilde - coef
    if m > 1:
        cov = dev.T @ dev / (m * (m - 1) * wt.scale**2)
    else:
        cov = np.full((pd.k, pd.k), np.nan)
    return Estimate(
        method=method,
        coef=coef,
        cov=cov,
        n_used=m,
        pi_n=wt.pi_n,
        alpha_used=wt.alpha,
        per_unit=tilde,
        coef_names=_mg_names(pd.panel.k_prime),
        trim=wt.trim,
        keep=wt.keep,
    )


def mg(panel: BalancedPanel, design: PanelDesign | None = None) -> Estimate:
    """Mean group estimator: simple average of per-unit OLS (every unit,
    den_i = d_i, scale 1), with the nonparametric covariance
    sum (theta_i - mean)^2 / (n(n-1)).

    ``design`` lets callers reuse a precomputed :class:`PanelDesign`.
    """
    pd = design if design is not None else PanelDesign(panel)
    wt = Weighting(keep=None, den=pd.d, scale=1.0, pi_n=0.0, alpha=None)
    return weighted_mean_group(pd, wt, "mg", pd.theta_hat())  # refuses singular units


def tmg(
    panel: BalancedPanel,
    cfg: TrimConfig = TrimConfig(),
    design: PanelDesign | None = None,
) -> Estimate:
    """Trimmed mean group estimator with bias-adjusted covariance.

    Units below the threshold contribute through the inversion-free adjugate
    form; the weighted average is rescaled by 1 + delta_bar so the weights
    sum to one.
    """
    pd = design if design is not None else PanelDesign(panel)
    return weighted_mean_group(pd, tmg_weighting(pd, cfg), "tmg")


def gp(
    panel: BalancedPanel,
    alpha_gp: float = DEFAULT_ALPHA_GP,
    design: PanelDesign | None = None,
) -> Estimate:
    """Trim-by-exclusion mean group estimator: simple average over units whose
    determinant clears the bandwidth, with the untrimmed analogue of the MG
    covariance (sample covariance of retained estimates over their count)."""
    pd = design if design is not None else PanelDesign(panel)
    return weighted_mean_group(pd, gp_weighting(pd, alpha_gp), "gp")


@dataclass(frozen=True)
class EfficiencyDiagnostics:
    """Decomposition of the MG-vs-FE asymptotic variance gap.

    ``a_n`` (negative semi-definite) is the slope-heterogeneity component,
    ``b_n`` (indeterminate sign) the regressor/error-heterogeneity component.
    """

    a_n: np.ndarray
    b_n: np.ndarray


def efficiency_diagnostics(
    panel: BalancedPanel, omega_beta: np.ndarray, H: np.ndarray
) -> EfficiencyDiagnostics:
    """Variance-gap matrices between mean-group and pooled slope estimators.

    Parameters
    ----------
    omega_beta : (k', k') slope covariance, symmetric PSD.
    H : (n, T, T) per-unit error covariance matrices, each symmetric PSD.
    """
    omega_beta = np.asarray(omega_beta, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    n, T, k_prime = panel.n, panel.T, panel.k_prime
    if H.shape != (n, T, T):
        raise ValueError(f"H must be (n,T,T)={n, T, T}, got {H.shape}")
    xd = within(panel.x, axis=1)  # M_T X_i
    psi = np.einsum("ntp,ntq->npq", xd, xd)
    psibar = psi.mean(axis=0)
    psibar_inv = np.linalg.inv(psibar)
    mid_a = np.einsum("npq,qr,nrs->ps", psi, omega_beta, psi) / n
    a_n = omega_beta - psibar_inv @ mid_a @ psibar_inv

    xhx = np.einsum("ntp,nts,nsq->npq", xd, H, xd)  # X'M H M X per unit
    w = np.linalg.eigvalsh(psi)
    if np.any(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 0.0)):
        bad = np.flatnonzero(w[:, 0] <= 1e-12 * np.maximum(w[:, -1], 0.0))
        raise SingularUnitGramError(f"X'MX singular for units {bad[:10].tolist()}")
    psi_inv = np.linalg.inv(psi)
    first = np.einsum("npq,nqr,nrs->ps", psi_inv, xhx, psi_inv) / n
    b_n = first - psibar_inv @ (xhx.mean(axis=0)) @ psibar_inv
    a_n = 0.5 * (a_n + a_n.T)
    b_n = 0.5 * (b_n + b_n.T)
    return EfficiencyDiagnostics(a_n=a_n, b_n=b_n)
