"""Hausman tests of correlated slope heterogeneity.

Each variant compares a pooled estimator (consistent only under uncorrelated
heterogeneity) with a trimmed mean-group estimator (consistent under both)
through a robust quadratic form that is chi-squared with k' degrees of
freedom under the null.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import PanelDesign, within
from .errors import SingularVdeltaError
from .estimators import Estimate, fe, tmg
from .panel import BalancedPanel
from .timeeffects import fete, tmg_te
from .trimming import TrimConfig

VARIANT_NO_TE = "no_te"
VARIANT_TE_TEQK = "te_teqk"
VARIANT_TE_TGTK = "te_tgtk"

_EPS = 1e-16
_MAX_ITER = 1000


def _gamma_p_series(a: float, x: float) -> float:
    # Lower regularized incomplete gamma by power series, for x < a + 1.
    term = 1.0 / a
    total = term
    for k in range(1, _MAX_ITER):
        term *= x / (a + k)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_contfrac(a: float, x: float) -> float:
    # Upper regularized incomplete gamma by Lentz continued fraction, x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for k in range(1, _MAX_ITER):
        an = -k * (k - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail chi-squared probability via the regularized incomplete gamma
    (series below df + 1, continued fraction above)."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    x = float(x)
    if x < 0.0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if x == 0.0:
        return 1.0
    a = 0.5 * df
    half = 0.5 * x
    if x < df + 1.0:
        return min(1.0, max(0.0, 1.0 - _gamma_p_series(a, half)))
    return min(1.0, max(0.0, _gamma_q_contfrac(a, half)))


@dataclass(frozen=True)
class HausmanResult:
    """Quadratic-form statistic, degrees of freedom and upper-tail p-value."""

    statistic: float
    df: int
    p_value: float
    variant: str
    delta: np.ndarray

    def to_record(self) -> dict:
        return {
            "variant": self.variant,
            "statistic": float(self.statistic),
            "df": int(self.df),
            "p_value": float(self.p_value),
        }


def _quad_form(v: np.ndarray, delta: np.ndarray, n: int, coef_scale: float) -> float:
    """n * delta' V^+ delta with a rank-guarded symmetric pseudo-inverse.

    A difference at floating-point noise level relative to the coefficient
    scale counts as exactly zero (degenerate fixtures with identical
    estimators give statistic 0, p-value 1). Rank deficiency is otherwise an
    error unless the difference lies in the retained range space.
    """
    dnorm = float(np.linalg.norm(delta))
    if dnorm <= 1e-12 * max(coef_scale, 1e-300):
        return 0.0
    v = 0.5 * (v + v.T)
    w, u = np.linalg.eigh(v)
    cutoff = 1e-12 * max(w[-1], 0.0)
    keep = w > cutoff
    rank = int(keep.sum())
    if rank < delta.size:
        proj = u[:, keep] @ u[:, keep].T
        out_of_range = float(np.linalg.norm(delta - proj @ delta))
        if out_of_range > 1e-8 * dnorm:
            raise SingularVdeltaError(
                f"difference covariance has rank {rank} < {delta.size}"
            )
    pinv = (u[:, keep] / w[keep]) @ u[:, keep].T
    return float(n * delta @ pinv @ delta)


def hausman_no_te(
    panel: BalancedPanel, cfg: TrimConfig = TrimConfig(), design: PanelDesign | None = None
) -> HausmanResult:
    """Test of correlated heterogeneity from the FE-vs-TMG slope difference."""
    pd = design if design is not None else PanelDesign(panel)
    return hausman_no_te_from(pd, fe(panel), tmg(panel, cfg, design=pd))


def hausman_no_te_from(pd: PanelDesign, fe_est: Estimate, tmg_est: Estimate) -> HausmanResult:
    """:func:`hausman_no_te` from FE and TMG estimates already fitted on ``pd``
    (the TMG estimate carries the trimming state the weights come from)."""
    panel = pd.panel
    delta = fe_est.coef - tmg_est.coef[1:]
    state = tmg_est.trim
    B = pd.bmats(state.a_n, state.trimmed)
    b_slope = B[:, 1:, 1:]  # (1+delta_i) (X'MX)^{-1}, finite on the trimmed branch
    xd = within(panel.x, axis=1)
    psibar = np.einsum("ntp,ntq->pq", xd, xd) / panel.n
    psibar_inv = np.linalg.inv(psibar)
    m = psibar_inv[None] - b_slope / state.weight_scale

    resid = within(panel.y, axis=1) - np.einsum("ntp,p->nt", xd, fe_est.coef)
    t_i = np.einsum("ntp,nt->np", panel.x, resid)  # X_i' nu~_i (nu~ de-meaned)
    scores = np.einsum("npq,nq->np", m, t_i)
    v = scores.T @ scores / panel.n
    coef_scale = max(np.abs(fe_est.coef).max(), np.abs(tmg_est.coef).max())
    stat = _quad_form(v, delta, panel.n, coef_scale)
    return HausmanResult(
        statistic=stat,
        df=panel.k_prime,
        p_value=chisq_sf(stat, panel.k_prime),
        variant=VARIANT_NO_TE,
        delta=delta,
    )


def hausman_te(
    panel: BalancedPanel, cfg: TrimConfig = TrimConfig(), design: PanelDesign | None = None
) -> HausmanResult:
    """Test of correlated heterogeneity in panels with time effects.

    Compares the two-way pooled estimator with the trimmed mean-group TE
    estimator; the weighting matrix follows the T = k or T > k construction
    of the trimmed estimator.
    """
    pd = design if design is not None else PanelDesign(panel)
    return hausman_te_from(pd, fete(panel)[0], tmg_te(panel, cfg, design=pd)[0])


def hausman_te_from(pd: PanelDesign, fete_est: Estimate, tmgte_est: Estimate) -> HausmanResult:
    """:func:`hausman_te` from FE-TE and TMG-TE estimates already fitted on ``pd``."""
    panel = pd.panel
    delta = fete_est.coef - tmgte_est.coef[1:]
    state = tmgte_est.trim
    scale = state.weight_scale
    B = pd.bmats(state.a_n, state.trimmed)
    xd = within(panel.x, axis=1)
    qx = np.einsum("ntp,npq->ntq", xd, B[:, 1:, 1:])  # Q_ix
    qx_bar = qx.mean(axis=0) / scale

    xc = panel.x - panel.x.mean(axis=0, keepdims=True)
    xcd = within(xc, axis=1)
    psibar_te = np.einsum("ntp,ntq->pq", xcd, xcd) / panel.n
    psibar_te_inv = np.linalg.inv(psibar_te)

    yc = panel.y - panel.y.mean(axis=0, keepdims=True)
    nu = yc - np.einsum("ntp,p->nt", xc, fete_est.coef)
    nud = within(nu, axis=1)

    s_pool = np.einsum("ntp,nt->np", xcd, nud) @ psibar_te_inv  # (n, k')
    if panel.T == panel.k:
        xbar_d = within(panel.x.mean(axis=0), axis=0)  # M_T Xbar
        a_x = np.eye(panel.k_prime) - qx_bar.T @ xbar_d
        sv = np.linalg.svd(a_x, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularVdeltaError("T=k weighting system is not invertible")
        a_x_inv = np.linalg.inv(a_x)
        s_trim = np.einsum("ntq,nt->nq", qx, nud) @ a_x_inv.T / scale
        scores = s_pool - s_trim
        variant = VARIANT_TE_TEQK
    else:
        proj = pd.projectors()
        mbar_inv = np.linalg.inv(proj.M_bar)
        s_trim = np.einsum("ntq,nt->nq", qx, nud) / scale
        mi_nu = np.einsum("nts,ns->nt", proj.M, nud)
        # third term of G_iC' M_T nu~: Qbar_nx' M_T Mbar^{-1} (M_i nu~)
        s_back = mi_nu @ (mbar_inv @ within(qx_bar, axis=0))
        scores = s_pool - s_trim + s_back
        variant = VARIANT_TE_TGTK

    v = scores.T @ scores / panel.n
    coef_scale = max(np.abs(fete_est.coef).max(), np.abs(tmgte_est.coef).max())
    stat = _quad_form(v, delta, panel.n, coef_scale)
    return HausmanResult(
        statistic=stat,
        df=panel.k_prime,
        p_value=chisq_sf(stat, panel.k_prime),
        variant=variant,
        delta=delta,
    )
