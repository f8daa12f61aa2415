"""Independent reference estimators for the benchmark's correctness checks.

Written from the estimator definitions with explicit projection matrices and
``np.linalg`` inversions over stacked per-unit arrays. Nothing here imports
``tmgpanel``: the checks compare the package against this code.

Every function takes ``y`` (n, T) and ``x`` (n, T, k') and returns plain
arrays. ``alpha`` is the threshold exponent of the TMG family.
"""

from __future__ import annotations

import math

import numpy as np

DET_FLOOR_REL = 1e-12  # documented singularity rule of the per-unit OLS
CRIT_5PCT = 1.959964


def _mt(T):
    return np.eye(T) - np.full((T, T), 1.0 / T)


def _designs(x):
    n, T, _ = x.shape
    W = np.concatenate([np.ones((n, T, 1)), x], axis=2)
    G = np.einsum("ntp,ntq->npq", W, W)
    return W, G, np.linalg.det(G)


def _mean_cov(theta):
    m = theta.shape[0]
    coef = theta.mean(axis=0)
    dev = theta - coef
    return coef, dev.T @ dev / (m * (m - 1))


def _trim(d, alpha):
    n = d.size
    a_n = d.mean() * n ** (-alpha)
    trimmed = d <= a_n
    delta = np.where(trimmed, (d - a_n) / a_n, 0.0)
    return delta, 1.0 + delta.mean(), float(trimmed.mean())


def chisq_sf(stat, df):
    """Upper chi-squared tail in closed form for one or two degrees of freedom."""
    if df == 1:
        return math.erfc(math.sqrt(stat / 2.0))
    if df == 2:
        return math.exp(-stat / 2.0)
    raise ValueError(f"closed-form tail only for df <= 2, got {df}")


def fe(y, x):
    """Pooled within estimator and its unit-clustered covariance."""
    M = _mt(y.shape[1])
    mx = np.einsum("ts,nsp->ntp", M, x)
    A = np.einsum("ntp,ntq->pq", mx, x)
    beta = np.linalg.solve(A, np.einsum("ntp,nt->p", mx, y))
    s = np.einsum("ntp,nt->np", mx, y - x @ beta)
    A_inv = np.linalg.inv(A)
    return beta, A_inv @ (s.T @ s) @ A_inv


def mg(y, x):
    """Mean of per-unit OLS; ``None`` when some unit's Gram matrix is singular.

    Also returns how far two exact-in-theory computations may drift apart in
    floating point: a unit's OLS is accurate to about eps * cond(G_i) * |theta_i|,
    and a near-singular unit (cond up to ~1e12 at T = 2) dominates the mean.
    The allowance bounds the coefficient and standard-error errors that follow.
    """
    W, G, d = _designs(x)
    n, k, _ = G.shape
    floor = DET_FLOOR_REL * (np.trace(G, axis1=1, axis2=2) / k) ** k
    if np.any(d <= floor):
        return None
    theta = np.linalg.solve(G, np.einsum("ntk,nt->nk", W, y)[..., None])[..., 0]
    coef, cov = _mean_cov(theta)
    err = 16 * np.finfo(float).eps * np.linalg.cond(G)[:, None] * np.abs(theta)
    coef_tol = err.sum(axis=0) / n
    se_tol = 2.0 * np.sqrt((err**2).sum(axis=0) / (n * (n - 1)))
    return coef, cov, coef_tol, se_tol


def tmg(y, x, alpha):
    """Trimmed mean group: (1 + delta_i) theta_i averaged and rescaled."""
    n = y.shape[0]
    W, G, d = _designs(x)
    delta, scale, pi = _trim(d, alpha)
    theta = np.linalg.solve(G, np.einsum("ntk,nt->nk", W, y)[..., None])[..., 0]
    tilde = (1.0 + delta)[:, None] * theta
    coef = tilde.mean(axis=0) / scale
    dev = tilde - coef
    return coef, dev.T @ dev / (n * (n - 1) * scale**2), pi


def _gp_keep(x, d, alpha_gp):
    n, T, kp = x.shape
    if T == kp + 1:
        W = np.concatenate([np.ones((n, T, 1)), x], axis=2)
        det_w = np.linalg.det(W)
        q75, q25 = np.percentile(det_w, [75, 25])
        c = 0.5 * min(det_w.std(ddof=1), (q75 - q25) / 1.34)
    else:
        c = math.sqrt(d.mean())
    return d > (c * n ** (-alpha_gp)) ** 2


def gp(y, x, alpha_gp):
    """Trim-by-exclusion mean group over units clearing the bandwidth."""
    W, G, d = _designs(x)
    keep = _gp_keep(x, d, alpha_gp)
    theta = np.linalg.solve(
        G[keep], np.einsum("ntk,nt->nk", W[keep], y[keep])[..., None]
    )[..., 0]
    coef, cov = _mean_cov(theta)
    return coef, cov, 1.0 - keep.sum() / y.shape[0]


def hausman(y, x, alpha):
    """FE-vs-TMG slope contrast with its robust quadratic form."""
    n, T, kp = x.shape
    M = _mt(T)
    beta_fe, _ = fe(y, x)
    coef_tmg, _, _ = tmg(y, x, alpha)
    diff = beta_fe - coef_tmg[1:]
    _, _, d = _designs(x)
    delta, scale, _ = _trim(d, alpha)
    mx = np.einsum("ts,nsp->ntp", M, x)
    psi_i = np.einsum("ntp,ntq->npq", mx, x)
    psibar_inv = np.linalg.inv(psi_i.mean(axis=0))
    g = psibar_inv[None] - ((1.0 + delta) / scale)[:, None, None] * np.linalg.inv(psi_i)
    nu = np.einsum("ts,ns->nt", M, y) - mx @ beta_fe
    s = np.einsum("npq,ntq,nt->np", g, x, nu)
    stat = float(n * diff @ np.linalg.inv(s.T @ s / n) @ diff)
    return stat, chisq_sf(stat, kp)


def fete(y, x):
    """Two-way within slopes, covariance and normalized time effects."""
    n, T, _ = x.shape
    M = _mt(T)
    xbar, ybar = x.mean(axis=0), y.mean(axis=0)
    xc, yc = x - xbar, y - ybar
    mxc = np.einsum("ts,nsp->ntp", M, xc)
    A = np.einsum("ntp,ntq->pq", mxc, xc)
    beta = np.linalg.solve(A, np.einsum("ntp,nt->p", mxc, yc))
    nu = yc - xc @ beta
    s = np.einsum("ntp,nt->np", mxc, nu)
    A_inv = np.linalg.inv(A)
    cov = A_inv @ (s.T @ s) @ A_inv
    phi = M @ (ybar - xbar @ beta)
    omega = nu.T @ nu / (n - 1)
    cov_phi = M @ (xbar @ cov @ xbar.T + omega / n) @ M
    return beta, cov, phi, cov_phi


def _annihilators(x):
    T = x.shape[1]
    M = _mt(T)
    mx = np.einsum("ts,nsp->ntp", M, x)
    psi_inv = np.linalg.inv(np.einsum("ntp,ntq->npq", mx, mx))
    return np.eye(T)[None] - np.einsum("ntp,npq,nsq->nts", mx, psi_inv, mx)


def chamberlain(y, x):
    """Projector-average time effects and covariance (T > k)."""
    n, T, _ = x.shape
    M = _mt(T)
    Mi = _annihilators(x)
    mbar_inv = np.linalg.inv(Mi.mean(axis=0))
    my = y @ M
    phi = mbar_inv @ np.einsum("nts,ns->t", Mi, my) / n
    w = np.einsum("nts,ns->nt", Mi, (y - phi) @ M)
    cov = mbar_inv @ (w.T @ w / n) @ mbar_inv / n
    return phi, cov


def tmg_te(y, x, alpha):
    """TMG with time effects through the projector route (T > k)."""
    n, T, kp = x.shape
    if T <= kp + 1:
        raise ValueError("the projector route needs T > k")
    W, G, d = _designs(x)
    delta, scale, pi = _trim(d, alpha)
    Q = (1.0 + delta)[:, None, None] * (W @ np.linalg.inv(G))
    qbar = Q.mean(axis=0) / scale
    phi, cov_phi = chamberlain(y, x)
    tilde = np.einsum("ntk,nt->nk", Q, y - phi)
    coef = tilde.mean(axis=0) / scale
    dev = tilde - coef
    cov = dev.T @ dev / (n * (n - 1) * scale**2) + qbar.T @ cov_phi @ qbar
    return coef, cov, phi, cov_phi, pi, tilde


def gp_te(y, x, alpha_gp):
    """Trim-by-exclusion estimator with projector-route time effects (T > k)."""
    n, T, kp = x.shape
    if T <= kp + 1:
        raise ValueError("the projector route needs T > k")
    W, G, d = _designs(x)
    keep = _gp_keep(x, d, alpha_gp)
    m = int(keep.sum())
    R = W[keep] @ np.linalg.inv(G[keep])
    phi, cov_phi = chamberlain(y, x)
    theta = np.einsum("ntk,nt->nk", R, y[keep] - phi)
    coef, sample = _mean_cov(theta)
    rbar = R.mean(axis=0)
    return coef, sample + rbar.T @ cov_phi @ rbar, phi, cov_phi, 1.0 - m / n


def hausman_te(y, x, alpha):
    """FE-TE vs TMG-TE slope contrast, projector-route weighting (T > k)."""
    n, T, kp = x.shape
    M = _mt(T)
    beta_fete = fete(y, x)[0]
    coef_te = tmg_te(y, x, alpha)[0]
    diff = beta_fete - coef_te[1:]
    _, _, d = _designs(x)
    delta, scale, _ = _trim(d, alpha)
    xbar, ybar = x.mean(axis=0), y.mean(axis=0)
    xc = x - xbar
    psibar_inv = np.linalg.inv(
        np.einsum("ntp,ts,nsq->pq", xc, M, xc) / n
    )
    mx = np.einsum("ts,nsp->ntp", M, x)
    qx = (1.0 + delta)[:, None, None] * (mx @ np.linalg.inv(np.einsum("ntp,ntq->npq", mx, x)))
    qxbar = qx.mean(axis=0) / scale
    Mi = _annihilators(x)
    back = np.einsum("nts,su->ntu", Mi, np.linalg.inv(Mi.mean(axis=0)) @ M @ qxbar)
    g = xc @ psibar_inv - (qx / scale - back)
    nu = (y - ybar) - xc @ beta_fete
    s = np.einsum("ntp,ts,ns->np", g, M, nu)
    stat = float(n * diff @ np.linalg.inv(s.T @ s / n) @ diff)
    return stat, chisq_sf(stat, kp)


def replication_record(tag, y, x, alpha, alpha_gp):
    """(estimates, standard errors or p-value, trimmed share, allowance).

    Mirrors what a Monte Carlo replication reports: the slope for the
    no-time-effects family, the slope then phi_1..phi_{T-1} for the TE family,
    and (statistic, p-value) for the tests. The allowance is the absolute
    floating-point drift permitted on (estimate, se) beyond a relative
    tolerance; it is zero except for MG. ``None`` marks an undefined estimate
    (MG with a singular unit).
    """
    if tag == "fe":
        b, c = fe(y, x)
        return [b[0]], [math.sqrt(c[0, 0])], 0.0, (0.0, 0.0)
    if tag == "mg":
        out = mg(y, x)
        if out is None:
            return None
        b, c, b_tol, se_tol = out
        return [b[1]], [math.sqrt(c[1, 1])], 0.0, (b_tol[1], se_tol[1])
    if tag == "tmg":
        b, c, pi = tmg(y, x, alpha)
        return [b[1]], [math.sqrt(c[1, 1])], pi, (0.0, 0.0)
    if tag == "gp":
        b, c, pi = gp(y, x, alpha_gp)
        return [b[1]], [math.sqrt(c[1, 1])], pi, (0.0, 0.0)
    if tag == "hausman":
        stat, p = hausman(y, x, alpha)
        return [stat], [p], 0.0, (0.0, 0.0)
    if tag == "hausman_te":
        stat, p = hausman_te(y, x, alpha)
        return [stat], [p], 0.0, (0.0, 0.0)
    if tag == "fete":
        b, c, phi, cphi = fete(y, x)
        slope, slope_var, pi = b[0], c[0, 0], 0.0
    elif tag == "tmgte":
        b, c, phi, cphi, pi, _ = tmg_te(y, x, alpha)
        slope, slope_var = b[1], c[1, 1]
    elif tag == "gpte":
        b, c, phi, cphi, pi = gp_te(y, x, alpha_gp)
        slope, slope_var = b[1], c[1, 1]
    else:
        raise ValueError(f"no reference for tag {tag!r}")
    se_phi = np.sqrt(np.abs(np.diag(cphi)))
    return [slope, *phi[:-1]], [math.sqrt(slope_var), *se_phi[:-1]], pi, (0.0, 0.0)
