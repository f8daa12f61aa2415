"""Common time effects and the TE variants of the pooled and trimmed estimators.

Time effects are normalized to sum to zero. Estimation dispatches strictly on
the panel shape: the cross-section projector route requires T > k, while at
T = k the effects are recovered jointly with the coefficients from the
cross-section-average system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._kernels import small_matmul, small_matvec
from .designs import (
    blockwise,
    chamberlain_projectors,
    col,
    mt,
    mv,
    nonsingular,
    rank_deficient,
    system_singular,
    void,
    within,
)
from .errors import (
    RequiresTGreaterKError,
    SingularMbarError,
    SingularTeSystemError,
    failed,
    flag,
    merge,
)
from .estimators import (
    DEFAULT_ALPHA_GP,
    Estimate,
    Weighting,
    gp_weighting,
    pooled_estimate,
    pooled_slopes,
    tmg_weighting,
    unit_gram,
    unit_mean,
    weighted_mean_group,
)
from .panel import PanelBlock
from .trimming import TrimConfig

METHOD_CHAMBERLAIN = "chamberlain"
METHOD_SYSTEM = "system"
METHOD_FETE = "fete"


@dataclass(frozen=True)
class TimeEffects:
    """Estimated period effects phi (tau'phi = 0) with covariance."""

    phi: np.ndarray
    cov: np.ndarray
    method: str
    fail: tuple | None = None  # per-replication failures of a block fit

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.abs(np.diagonal(self.cov, axis1=-2, axis2=-1)))


def _phi_cov(xbar: np.ndarray, cov_beta: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Covariance of M_T(ybar - Xbar beta): M_T (Xbar V_beta Xbar' + Omega/n) M_T,
    with Omega the cross-section covariance of the residual paths ``nu``."""
    n = nu.shape[-2]
    omega = mt(nu) @ nu / (n - 1)
    a = xbar @ cov_beta @ mt(xbar) + omega / n
    a = a - a.mean(axis=-2, keepdims=True)
    return a - a.mean(axis=-1, keepdims=True)


@blockwise
def fete(panel: PanelBlock) -> tuple[Estimate, TimeEffects]:
    """Two-way fixed effects: pooled slopes after unit and period de-meaning,
    with unit-clustered covariance, plus normalized time effects."""
    x, y = panel.x, panel.y
    xc, xcd = panel.xc, panel.xcd  # X_i - Xbar and its within transform
    yc = y - y.mean(axis=-2, keepdims=True)
    coef, psi, fail = pooled_slopes(panel, xcd, xc, yc, "pooled de-meaned Gram matrix")
    nu = yc - np.einsum("...ntp,...p->...nt", xc, coef)  # nu~_{i,FE}
    est = pooled_estimate("fete", panel, xcd, coef, psi, within(nu, axis=-1), fail)
    xbar = x.mean(axis=-3)  # (..., T, k')
    ybar = y.mean(axis=-2)
    phi = within(ybar - mv(xbar, coef), axis=-1)
    te = TimeEffects(
        phi=void(phi, fail),
        cov=void(_phi_cov(xbar, est.cov, nu), fail),
        method=METHOD_FETE,
        fail=fail,
    )
    return est, te


@blockwise
def chamberlain_phi(panel: PanelBlock) -> TimeEffects:
    """Projector-average estimator of the time effects, valid for T > k,
    from the block's projectors."""
    if panel.T == panel.k:
        raise RequiresTGreaterKError(
            f"T={panel.T} equals k={panel.k}; the projector average is singular"
        )
    proj = panel.fit(chamberlain_projectors)
    mbar = nonsingular(proj.M_bar, failed(proj.fail))
    fail = flag(
        proj.fail,
        rank_deficient(mbar),
        lambda i: SingularMbarError("average annihilator matrix is singular"),
    )
    mbar = nonsingular(mbar, failed(fail))
    z = proj.apply(panel.yd)
    phi = np.linalg.solve(mbar, z.mean(axis=-2)[..., None])[..., 0]
    resid = within(panel.y - phi[..., None, :], axis=-1)
    wvec = proj.apply(resid)
    meat = mt(wvec) @ wvec / panel.n
    mbar_inv = np.linalg.inv(mbar)
    cov = mbar_inv @ meat @ mbar_inv / panel.n
    return TimeEffects(
        phi=void(phi, fail), cov=void(cov, fail), method=METHOD_CHAMBERLAIN, fail=fail
    )


def weighted_mean_group_te(
    panel: PanelBlock, wt: Weighting, method: str
) -> tuple[Estimate, TimeEffects]:
    """The weighted mean-group estimator with time effects.

    T > k: the projector-average effects of the block are subtracted before
    averaging. T = k: coefficients and effects solve the cross-section-average
    system (I_k - Qbar'M_T Wbar) theta = theta_w - Qbar'M_T ybar jointly.
    """
    pd, keep = panel.design, wt.keep
    B = pd.adj / wt.den[..., None, None]
    Q = small_matmul(pd.W, B)  # Q_i = w_i W_i (W'W)^{-1}
    qbar = unit_mean(Q, keep) / col(col(wt.scale))

    if panel.T > panel.k:
        te = panel.fit(chamberlain_phi)
        wt = replace(wt, fail=merge(wt.fail, te.fail))
        tilde = small_matvec(mt(Q), panel.y - te.phi[..., None, :])
        est = weighted_mean_group(pd, wt, method, tilde)
        return replace(est, cov=est.cov + mt(qbar) @ te.cov @ qbar), te

    est = weighted_mean_group(pd, wt, method)
    m = est.n_used
    wbar = pd.W.mean(axis=-3)  # (..., T, k)
    ybar = panel.y.mean(axis=-2)
    a = np.eye(panel.k) - mt(qbar) @ within(wbar, axis=-2)
    fail = flag(
        wt.fail,
        system_singular(nonsingular(a, failed(wt.fail)), pd.scales()),
        lambda i: SingularTeSystemError("I_k - Qbar'M_T Wbar is not invertible"),
    )
    a_inv = np.linalg.inv(nonsingular(a, failed(fail)))
    coef = mv(a_inv, est.coef - mv(mt(qbar), within(ybar, axis=-1)))
    phi = within(ybar - mv(wbar, coef), axis=-1)

    resid = est.per_unit - small_matvec(mt(Q), phi[..., None, :]) - coef[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):  # one kept unit: no variance
        v_theta = unit_gram(resid, keep) / col(col((m - 1) * wt.scale**2))
        cov = a_inv @ v_theta @ mt(a_inv) / col(col(m - 1))
    xb = np.einsum("...ntp,...p->...nt", panel.x, coef[..., 1:])
    nu = panel.y - xb - phi[..., None, :]
    cov_phi = _phi_cov(panel.x.mean(axis=-3), cov[..., 1:, 1:], nu)
    te = TimeEffects(phi=void(phi, fail), cov=void(cov_phi, fail), method=METHOD_SYSTEM, fail=fail)
    return replace(est, coef=void(coef, fail), cov=void(cov, fail), fail=fail), te


@blockwise
def tmg_te(panel: PanelBlock, cfg: TrimConfig = TrimConfig()) -> tuple[Estimate, TimeEffects]:
    """Trimmed mean group estimator with time effects (see
    :func:`weighted_mean_group_te` for the T > k and T = k routes)."""
    return weighted_mean_group_te(panel, tmg_weighting(panel.design, cfg), "tmgte")


@blockwise
def gp_te(
    panel: PanelBlock, alpha_gp: float = DEFAULT_ALPHA_GP
) -> tuple[Estimate, TimeEffects]:
    """Trim-by-exclusion estimator with time effects: equal weights on the
    retained units, otherwise the same two routes as :func:`tmg_te`."""
    return weighted_mean_group_te(panel, gp_weighting(panel.design, alpha_gp), "gpte")
