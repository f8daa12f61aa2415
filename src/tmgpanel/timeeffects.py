"""Common time effects and the TE variants of the pooled and trimmed estimators.

Time effects are normalized to sum to zero. Estimation dispatches strictly on
the panel shape: the cross-section projector route requires T > k, while at
T = k the effects are recovered jointly with the coefficients from the
cross-section-average system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .designs import PanelDesign, chamberlain_projectors, within
from .errors import (
    RequiresTGreaterKError,
    SingularMbarError,
    SingularPooledGramError,
    SingularTeSystemError,
)
from .estimators import (
    DEFAULT_ALPHA_GP,
    Estimate,
    Weighting,
    _solve_spd,
    gp_weighting,
    tmg_weighting,
    weighted_mean_group,
)
from .panel import BalancedPanel
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

    @property
    def se(self) -> np.ndarray:
        return np.sqrt(np.abs(np.diag(self.cov)))

    def to_record(self) -> dict:
        """Flat serializable record, for result files next to an Estimate."""
        return {
            "method": self.method,
            "phi": [float(p) for p in self.phi],
            "se": [float(s) for s in self.se],
        }


def _phi_cov(xbar: np.ndarray, cov_beta: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Covariance of M_T(ybar - Xbar beta): M_T (Xbar V_beta Xbar' + Omega/n) M_T,
    with Omega the cross-section covariance of the residual paths ``nu``."""
    n = nu.shape[0]
    omega = nu[:, :, None] * nu[:, None, :]
    omega = omega.sum(axis=0) / (n - 1)
    a = xbar @ cov_beta @ xbar.T + omega / n
    a = a - a.mean(axis=0, keepdims=True)
    return a - a.mean(axis=1, keepdims=True)


def fete(panel: BalancedPanel) -> tuple[Estimate, TimeEffects]:
    """Two-way fixed effects: pooled slopes after unit and period de-meaning,
    with unit-clustered covariance, plus normalized time effects."""
    x, y, n = panel.x, panel.y, panel.n
    xc = x - x.mean(axis=0, keepdims=True)  # X_i - Xbar
    yc = y - y.mean(axis=0, keepdims=True)
    xcd = within(xc, axis=1)
    psi = np.einsum("ntp,ntq->pq", xcd, xc)
    sxy = np.einsum("ntp,nt->p", xcd, yc)
    coef = _solve_spd(psi, sxy, SingularPooledGramError, "pooled de-meaned Gram matrix")
    nu = yc - np.einsum("ntp,p->nt", xc, coef)  # nu~_{i,FE}
    nud = within(nu, axis=1)
    scores = np.einsum("ntp,nt->np", xcd, nud)
    psibar_inv = np.linalg.inv(psi / n)
    cov = psibar_inv @ (scores.T @ scores / n**2) @ psibar_inv
    est = Estimate(
        method="fete",
        coef=coef,
        cov=cov,
        n_used=n,
        coef_names=tuple(f"beta{j + 1}" for j in range(panel.k_prime)),
    )
    xbar = x.mean(axis=0)  # (T, k')
    ybar = y.mean(axis=0)
    phi = within(ybar - xbar @ coef, axis=0)
    return est, TimeEffects(phi=phi, cov=_phi_cov(xbar, cov, nu), method=METHOD_FETE)


def chamberlain_phi(panel: BalancedPanel, design: PanelDesign | None = None) -> TimeEffects:
    """Projector-average estimator of the time effects, valid for T > k.

    ``design`` supplies projectors already built for this panel.
    """
    if panel.T == panel.k:
        raise RequiresTGreaterKError(
            f"T={panel.T} equals k={panel.k}; the projector average is singular"
        )
    proj = design.projectors() if design is not None else chamberlain_projectors(panel)
    mbar = proj.M_bar
    w = np.linalg.eigvalsh(mbar)
    if w[0] <= 1e-12 * max(w[-1], 0.0):
        raise SingularMbarError("average annihilator matrix is singular")
    yd = within(panel.y, axis=1)
    z = np.einsum("nts,ns->nt", proj.M, yd)
    phi = np.linalg.solve(mbar, z.mean(axis=0))
    resid = within(panel.y - phi[None, :], axis=1)
    wvec = np.einsum("nts,ns->nt", proj.M, resid)
    meat = wvec.T @ wvec / panel.n
    mbar_inv = np.linalg.inv(mbar)
    cov = mbar_inv @ meat @ mbar_inv / panel.n
    return TimeEffects(phi=phi, cov=cov, method=METHOD_CHAMBERLAIN)


def weighted_mean_group_te(
    pd: PanelDesign, wt: Weighting, method: str
) -> tuple[Estimate, TimeEffects]:
    """The weighted mean-group estimator with time effects.

    T > k: the projector-average effects are subtracted before averaging.
    T = k: coefficients and effects solve the cross-section-average system
    (I_k - Qbar'M_T Wbar) theta = theta_w - Qbar'M_T ybar jointly.
    """
    panel = pd.panel
    B = wt.kept(pd.adj) / wt.kept(wt.den)[:, None, None]
    Q = np.einsum("ntk,nkj->ntj", wt.kept(pd.W), B)  # Q_i = w_i W_i (W'W)^{-1}
    qbar = Q.mean(axis=0) / wt.scale

    if panel.T > panel.k:
        te = pd.time_effects()
        tilde = np.einsum("ntk,nt->nk", Q, wt.kept(panel.y) - te.phi[None, :])
        est = weighted_mean_group(pd, wt, method, tilde)
        return replace(est, cov=est.cov + qbar.T @ te.cov @ qbar), te

    est = weighted_mean_group(pd, wt, method)
    m = est.n_used
    wbar = pd.W.mean(axis=0)  # (T, k)
    ybar = panel.y.mean(axis=0)
    a = np.eye(panel.k) - qbar.T @ within(wbar, axis=0)
    sv = np.linalg.svd(a, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise SingularTeSystemError("I_k - Qbar'M_T Wbar is not invertible")
    a_inv = np.linalg.inv(a)
    coef = a_inv @ (est.coef - qbar.T @ within(ybar, axis=0))
    phi = within(ybar - wbar @ coef, axis=0)

    resid = est.per_unit - np.einsum("ntk,t->nk", Q, phi) - coef
    v_theta = resid.T @ resid / ((m - 1) * wt.scale**2)
    cov = a_inv @ v_theta @ a_inv.T / (m - 1)
    nu = panel.y - np.einsum("ntp,p->nt", panel.x, coef[1:]) - phi[None, :]
    cov_phi = _phi_cov(panel.x.mean(axis=0), cov[1:, 1:], nu)
    te = TimeEffects(phi=phi, cov=cov_phi, method=METHOD_SYSTEM)
    return replace(est, coef=coef, cov=cov), te


def tmg_te(
    panel: BalancedPanel, cfg: TrimConfig = TrimConfig(), design: PanelDesign | None = None
) -> tuple[Estimate, TimeEffects]:
    """Trimmed mean group estimator with time effects (see
    :func:`weighted_mean_group_te` for the T > k and T = k routes)."""
    pd = design if design is not None else PanelDesign(panel)
    return weighted_mean_group_te(pd, tmg_weighting(pd, cfg), "tmgte")


def gp_te(
    panel: BalancedPanel,
    alpha_gp: float = DEFAULT_ALPHA_GP,
    design: PanelDesign | None = None,
) -> tuple[Estimate, TimeEffects]:
    """Trim-by-exclusion estimator with time effects: equal weights on the
    retained units, otherwise the same two routes as :func:`tmg_te`."""
    pd = design if design is not None else PanelDesign(panel)
    return weighted_mean_group_te(pd, gp_weighting(pd, alpha_gp), "gpte")
