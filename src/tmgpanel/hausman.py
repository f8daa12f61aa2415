"""Hausman tests of correlated slope heterogeneity.

Each variant compares a pooled estimator (consistent only under uncorrelated
heterogeneity) with a trimmed mean-group estimator (consistent under both)
through a robust quadratic form that is chi-squared with k' degrees of
freedom under the null. A test runs on a block of replications and gives
one statistic per replication; a single panel is tested as its block of one.
A test reads the two estimates it compares, and at T > k the projectors,
from the block's fit cache (:meth:`~tmgpanel.panel.PanelBlock.fit`), so on a
block that has fitted them already neither is computed again. With time
effects it reads the inverse the TMG-TE fit solved through
(``TimeEffects.inv``), so it checks no system of its own. Each test forms
only its unit scores; :func:`_compare` turns them into the statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import small_matmul, small_matvec
from .designs import (
    RANK_RTOL,
    blockwise,
    chamberlain_projectors,
    col,
    mt,
    mv,
    nonsingular,
    void,
    within,
)
from .errors import SingularVdeltaError, failed, flag, merge
from .estimators import fe, tmg
from .panel import PanelBlock
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
    """Quadratic-form statistic, degrees of freedom and upper-tail p-value,
    with one statistic and p-value per replication."""

    statistic: np.ndarray
    df: int
    p_value: np.ndarray
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


def _compare(panel: PanelBlock, pooled_fit, trimmed_fit, scores, variant: str) -> HausmanResult:
    """The test of the pooled-minus-trimmed slope difference delta from its
    unit scores, (..., n, k'): n delta' V^+ delta with V = S'S/n and a
    rank-guarded symmetric pseudo-inverse, failed where either fit failed.

    V and delta are taken in correlation form, R = D^{-1} V D^{-1} and
    D^{-1} delta with D the standard deviations of V, so that neither the
    rank nor the statistic depends on the units of the coefficients; an
    eigenvalue of R at or below RANK_RTOL is dropped. A difference at
    floating-point noise level in every coefficient, relative to the larger
    of the two estimates, counts as exactly zero (degenerate fixtures with
    identical estimators give statistic 0, p-value 1). Rank deficiency is
    otherwise an error unless the difference lies in the retained range space.
    """
    fail = merge(pooled_fit.fail, trimmed_fit.fail)
    delta = pooled_fit.coef - trimmed_fit.coef[..., 1:]
    v = mt(scores) @ scores / panel.n
    coef_scale = np.maximum(np.abs(pooled_fit.coef), np.abs(trimmed_fit.coef[..., 1:]))
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
    stat = ((panel.n * delta_r)[..., None, :] @ pinv @ delta_r[..., :, None])[..., 0, 0]
    stat = void(np.where(zero, 0.0, stat), fail)
    p_value = np.array([chisq_sf(s, panel.k_prime) for s in stat])
    return HausmanResult(
        statistic=stat, df=panel.k_prime, p_value=p_value, variant=variant, delta=delta, fail=fail
    )


@blockwise
def hausman_no_te(panel: PanelBlock, cfg: TrimConfig = TrimConfig()) -> HausmanResult:
    """Test of correlated heterogeneity from the FE-vs-TMG slope difference.

    The TMG fit carries the weighting its average used, the FE fit its
    scores and bread."""
    fe_est, tmg_est = panel.fit(fe), panel.fit(tmg, cfg)
    wt = tmg_est.weighting
    # (1+delta_i) (X'MX)^{-1}, finite on the trimmed branch
    b_slope = panel.design.bmats(wt.trim.a_n, wt.trim.trimmed, slopes=True)
    m = fe_est.bread[..., None, :, :] - b_slope / col(col(col(wt.scale)))
    # t_i = X_i'nu~_i = X_i'M nu~_i are FE's scores, because nu~ is de-meaned
    return _compare(panel, fe_est, tmg_est, small_matvec(m, fe_est.scores), VARIANT_NO_TE)


@blockwise
def hausman_te(panel: PanelBlock, cfg: TrimConfig = TrimConfig()) -> HausmanResult:
    """Test of correlated heterogeneity in panels with time effects.

    Compares the two-way pooled estimator with the trimmed mean-group TE
    estimator through the inverse the TMG-TE fit solved with
    (``TimeEffects.inv``): the slope block of (I_k - Qbar'M_T Wbar)^{-1} at
    T = k, Mbar^{-1} at T > k. The FE-TE fit carries its scores, bread and
    within residuals.
    """
    # TMG-TE first: FE-TE holds less at its peak, so it adds less on top of
    # the fits the block keeps than TMG-TE would on top of FE-TE's residuals
    (tmgte_est, te), fete_est = panel.fit(tmg_te, cfg), panel.fit(fete)[0]
    wt = tmgte_est.weighting
    scale = col(col(wt.scale))
    b_slope = panel.design.bmats(wt.trim.a_n, wt.trim.trimmed, slopes=True)
    qx = small_matmul(panel.xd, b_slope)  # Q_ix
    nud = fete_est.resid
    s_pool = fete_est.scores @ fete_est.bread  # (..., n, k')
    # einsum: at k' = 1 the sum runs over unit-stride periods (see _kernels)
    s_trim = np.einsum("...ntq,...nt->...nq", qx, nud)
    if panel.T == panel.k:
        # Wbar's intercept column de-means to 0, so the system's slope block
        # of the inverse is (I_k' - Qbar_x'M_T Xbar)^{-1}
        scores = s_pool - s_trim @ mt(te.inv[..., 1:, 1:]) / scale
        return _compare(panel, fete_est, tmgte_est, scores, VARIANT_TE_TEQK)
    qx_bar = qx.mean(axis=-3) / scale
    del qx  # not held through the projection of nu~
    mi_nu = panel.fit(chamberlain_projectors).apply(nud)
    # third term of G_iC' M_T nu~: Qbar_nx' M_T Mbar^{-1} (M_i nu~)
    s_back = mi_nu @ (te.inv @ within(qx_bar, axis=-2))
    scores = s_pool - s_trim / scale + s_back
    return _compare(panel, fete_est, tmgte_est, scores, VARIANT_TE_TGTK)
