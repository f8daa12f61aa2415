"""Hausman tests of correlated slope heterogeneity.

Each variant compares a pooled estimator (consistent only under uncorrelated
heterogeneity) with a trimmed mean-group estimator (consistent under both)
through a robust quadratic form that is chi-squared with k' degrees of
freedom under the null. A block of replications gives one statistic per
replication.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import small_matmul, small_matvec
from .designs import (
    RANK_RTOL,
    PanelDesign,
    col,
    mt,
    mv,
    nonsingular,
    system_singular,
    void,
    within,
)
from .errors import SingularVdeltaError, failed, flag, merge
from .estimators import Estimate, Panels, fe, tmg
from .timeeffects import fete, tmg_te
from .trimming import TrimConfig

VARIANT_NO_TE = "no_te"
VARIANT_TE_TEQK = "te_teqk"
VARIANT_TE_TGTK = "te_tgtk"


def chisq_sf(x: float, df: int) -> float:
    """Upper-tail chi-squared probability for an integer df, in closed form
    (Abramowitz & Stegun 26.4.4-5): exp(-x/2) times a finite sum for even df,
    erfc(sqrt(x/2)) plus a finite sum for odd df."""
    if df < 1 or df != int(df):
        raise ValueError(f"df must be an integer >= 1, got {df}")
    df, x = int(df), float(x)
    if x < 0.0:
        raise ValueError(f"statistic must be non-negative, got {x}")
    if math.isnan(x):
        return math.nan
    if math.isinf(x):
        return 0.0
    half = 0.5 * x
    if df % 2 == 0:  # exp(-x/2) sum_{j < df/2} (x/2)^j / j!
        term = total = math.exp(-half)
        for j in range(1, df // 2):
            term *= half / j
            total += term
        return min(1.0, total)
    # erfc(sqrt(x/2)) + sqrt(2/pi) exp(-x/2) sum_{r <= (df-1)/2} x^{r-1/2} / (2r-1)!!
    term = math.sqrt(2.0 / math.pi) * math.exp(-half) * math.sqrt(x)
    total = 0.0
    for r in range(1, (df + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return min(1.0, math.erfc(math.sqrt(half)) + total)


@dataclass(frozen=True)
class HausmanResult:
    """Quadratic-form statistic, degrees of freedom and upper-tail p-value
    (floats for one panel, (B,) arrays for a block)."""

    statistic: float | np.ndarray
    df: int
    p_value: float | np.ndarray
    variant: str
    delta: np.ndarray
    fail: tuple | None = None  # per-replication failures of a block test

    def to_record(self) -> dict:
        return {
            "variant": self.variant,
            "statistic": float(self.statistic),
            "df": int(self.df),
            "p_value": float(self.p_value),
        }


def _quad_form(v, delta, n: int, coef_scale, fail):
    """n * delta' V^+ delta with a rank-guarded symmetric pseudo-inverse.

    V and delta are taken in correlation form, R = S^{-1} V S^{-1} and
    S^{-1} delta with S the standard deviations of V, so that neither the
    rank nor the statistic depends on the units of the coefficients; an
    eigenvalue of R at or below RANK_RTOL is dropped. A difference at
    floating-point noise level in every coefficient, relative to that
    coefficient's ``coef_scale``, counts as exactly zero (degenerate fixtures
    with identical estimators give statistic 0, p-value 1). Rank deficiency is
    otherwise an error unless the difference lies in the retained range space.
    Returns the statistics and the failures.
    """
    zero = (np.abs(delta) <= RANK_RTOL * coef_scale).all(axis=-1)
    v = nonsingular(0.5 * (v + mt(v)), failed(fail))
    sd = np.sqrt(np.diagonal(v, axis1=-2, axis2=-1))
    r = 1.0 / np.where(sd > 0.0, sd, 1.0)  # a zero-variance coefficient stays in its units
    delta_r = delta * r
    w, u = np.linalg.eigh(v * r[..., :, None] * r[..., None, :])
    keep = w > RANK_RTOL
    rank = keep.sum(axis=-1)
    u_kept = u * keep[..., None, :]
    out_of_range = np.linalg.norm(delta_r - mv(u_kept @ mt(u_kept), delta_r), axis=-1)
    fail = flag(
        fail,
        ~zero
        & (rank < delta.shape[-1])
        & (out_of_range > 1e-8 * np.linalg.norm(delta_r, axis=-1)),
        lambda i: SingularVdeltaError(
            f"difference covariance has rank {rank[i]} < {delta.shape[-1]}"
        ),
    )
    pinv = (u / np.where(keep, w, np.inf)[..., None, :]) @ mt(u)
    stat = ((n * delta_r)[..., None, :] @ pinv @ delta_r[..., :, None])[..., 0, 0]
    return void(np.where(zero, 0.0, stat), fail), fail


def _result(stat, df: int, variant: str, delta, fail) -> HausmanResult:
    if fail is None:
        stat = float(stat)
        p_value = chisq_sf(stat, df)
    else:
        p_value = np.array([chisq_sf(s, df) if np.isfinite(s) else np.nan for s in stat])
    return HausmanResult(
        statistic=stat, df=df, p_value=p_value, variant=variant, delta=delta, fail=fail
    )


def hausman_no_te(
    panel: Panels, cfg: TrimConfig = TrimConfig(), design: PanelDesign | None = None
) -> HausmanResult:
    """Test of correlated heterogeneity from the FE-vs-TMG slope difference."""
    pd = design if design is not None else PanelDesign(panel)
    return hausman_no_te_from(pd, fe(panel), tmg(panel, cfg, design=pd))


def hausman_no_te_from(pd: PanelDesign, fe_est: Estimate, tmg_est: Estimate) -> HausmanResult:
    """:func:`hausman_no_te` from FE and TMG estimates already fitted on ``pd``
    (the TMG estimate carries the trimming state the weights come from, the
    FE estimate its scores and bread)."""
    panel = pd.panel
    fail = merge(fe_est.fail, tmg_est.fail)
    delta = fe_est.coef - tmg_est.coef[..., 1:]
    state = tmg_est.trim
    B = pd.bmats(state.a_n, state.trimmed)
    b_slope = B[..., 1:, 1:]  # (1+delta_i) (X'MX)^{-1}, finite on the trimmed branch
    m = fe_est.bread[..., None, :, :] - b_slope / col(col(col(state.weight_scale)))
    # t_i = X_i'nu~_i = X_i'M nu~_i are FE's scores, because nu~ is de-meaned
    scores = small_matvec(m, fe_est.scores)
    v = mt(scores) @ scores / panel.n
    coef_scale = np.maximum(np.abs(fe_est.coef), np.abs(tmg_est.coef[..., 1:]))
    stat, fail = _quad_form(v, delta, panel.n, coef_scale, fail)
    return _result(stat, panel.k_prime, VARIANT_NO_TE, delta, fail)


def hausman_te(
    panel: Panels, cfg: TrimConfig = TrimConfig(), design: PanelDesign | None = None
) -> HausmanResult:
    """Test of correlated heterogeneity in panels with time effects.

    Compares the two-way pooled estimator with the trimmed mean-group TE
    estimator; the weighting matrix follows the T = k or T > k construction
    of the trimmed estimator.
    """
    pd = design if design is not None else PanelDesign(panel)
    return hausman_te_from(pd, fete(panel)[0], tmg_te(panel, cfg, design=pd)[0])


def hausman_te_from(pd: PanelDesign, fete_est: Estimate, tmgte_est: Estimate) -> HausmanResult:
    """:func:`hausman_te` from FE-TE and TMG-TE estimates already fitted on ``pd``
    (the FE-TE estimate carries its scores, bread and within residuals)."""
    panel = pd.panel
    fail = merge(fete_est.fail, tmgte_est.fail)
    delta = fete_est.coef - tmgte_est.coef[..., 1:]
    state = tmgte_est.trim
    scale = col(col(state.weight_scale))
    B = pd.bmats(state.a_n, state.trimmed)
    qx = small_matmul(panel.xd, B[..., 1:, 1:])  # Q_ix
    qx_bar = qx.mean(axis=-3) / scale

    nud = fete_est.resid
    s_pool = fete_est.scores @ fete_est.bread  # (..., n, k')
    # einsum: at k' = 1 the sum runs over unit-stride periods (see _kernels)
    s_trim = np.einsum("...ntq,...nt->...nq", qx, nud)
    if panel.T == panel.k:
        xbar_d = within(panel.x.mean(axis=-3), axis=-2)  # M_T Xbar
        a_x = np.eye(panel.k_prime) - mt(qx_bar) @ xbar_d
        fail = flag(
            fail,
            system_singular(nonsingular(a_x, failed(fail)), pd.scales()[..., 1:]),
            lambda i: SingularVdeltaError("T=k weighting system is not invertible"),
        )
        a_x_inv = np.linalg.inv(nonsingular(a_x, failed(fail)))
        scores = s_pool - s_trim @ mt(a_x_inv) / scale
        variant = VARIANT_TE_TEQK
    else:
        proj = pd.projectors()
        mbar_inv = np.linalg.inv(nonsingular(proj.M_bar, failed(fail)))
        mi_nu = proj.apply(nud)
        # third term of G_iC' M_T nu~: Qbar_nx' M_T Mbar^{-1} (M_i nu~)
        s_back = mi_nu @ (mbar_inv @ within(qx_bar, axis=-2))
        scores = s_pool - s_trim / scale + s_back
        variant = VARIANT_TE_TGTK

    v = mt(scores) @ scores / panel.n
    coef_scale = np.maximum(np.abs(fete_est.coef), np.abs(tmgte_est.coef[..., 1:]))
    stat, fail = _quad_form(v, delta, panel.n, coef_scale, fail)
    return _result(stat, panel.k_prime, variant, delta, fail)
