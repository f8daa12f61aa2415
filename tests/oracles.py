"""Brute-force reference implementations used only by the test suite.

Everything here is written with explicit projection matrices, per-unit loops
and np.linalg inversions: no adjugate shortcuts, no batching, no shared code
with the package internals.
"""

import numpy as np


def mt(T):
    return np.eye(T) - np.ones((T, T)) / T


def unit_w(x_i):
    T = x_i.shape[0]
    return np.column_stack([np.ones(T), x_i])


def unit_theta(y_i, x_i):
    W = unit_w(x_i)
    return np.linalg.solve(W.T @ W, W.T @ y_i)


def unit_det(x_i):
    W = unit_w(x_i)
    return np.linalg.det(W.T @ W)


def is_stayer(x_i):
    """A unit whose regressors do not move: W_i has rank 1 and d_i = 0.

    Its trimmed terms vanish: (1 + delta_i) W_i (W_i'W_i)^{-1} is
    W_i adj(W_i'W_i) / a_n, and adj(W_i'W_i) annihilates the range of W_i'W_i,
    which holds the rows of W_i. Likewise M_T X_i = 0 zeroes its scores.
    """
    return bool(np.all(x_i == x_i[0]))


def unit_dets(x):
    return np.array([0.0 if is_stayer(x_i) else unit_det(x_i) for x_i in x])


def fe_oracle(y, x):
    n, T, _ = x.shape
    M = mt(T)
    a = sum(x[i].T @ M @ x[i] for i in range(n))
    b = sum(x[i].T @ M @ y[i] for i in range(n))
    beta = np.linalg.solve(a, b)
    a_inv = np.linalg.inv(a)
    meat = np.zeros_like(a)
    for i in range(n):
        s = x[i].T @ M @ (y[i] - x[i] @ beta)
        meat += np.outer(s, s)
    return beta, a_inv @ meat @ a_inv


def mg_oracle(y, x):
    n = y.shape[0]
    thetas = np.array([unit_theta(y[i], x[i]) for i in range(n)])
    coef = thetas.mean(axis=0)
    dev = thetas - coef
    return coef, dev.T @ dev / (n * (n - 1))


def trim_quantities(y, x, alpha):
    n = y.shape[0]
    d = unit_dets(x)
    a_n = d.mean() * n ** (-alpha)
    delta = np.where(d <= a_n, (d - a_n) / a_n, 0.0)
    return d, a_n, delta


def trimmed_theta(y_i, x_i, delta_i):
    # theta~_i = (1 + delta_i) theta^_i when d_i > 0; zero for a stayer
    if is_stayer(x_i):
        return np.zeros(x_i.shape[1] + 1)
    return (1.0 + delta_i) * unit_theta(y_i, x_i)


def tmg_oracle(y, x, alpha):
    n = y.shape[0]
    _, a_n, delta = trim_quantities(y, x, alpha)
    tilde = np.array([trimmed_theta(y[i], x[i], delta[i]) for i in range(n)])
    scale = 1.0 + delta.mean()
    coef = tilde.mean(axis=0) / scale
    dev = tilde - coef
    cov = dev.T @ dev / (n * (n - 1) * scale**2)
    return coef, cov, float((delta < 0).mean())


def gp_kept_units(x, alpha_gp):
    n, T, kp = x.shape
    d = unit_dets(x)
    if T == kp + 1:
        det_w = np.array([np.linalg.det(unit_w(x[i])) for i in range(n)])
        c = 0.5 * min(
            det_w.std(ddof=1),
            (np.percentile(det_w, 75) - np.percentile(det_w, 25)) / 1.34,
        )
    else:
        c = np.sqrt(d.mean())
    h2 = (c * n ** (-alpha_gp)) ** 2
    return np.flatnonzero(d > h2)


def gp_oracle(y, x, alpha_gp):
    n = y.shape[0]
    keep = gp_kept_units(x, alpha_gp)
    thetas = np.array([unit_theta(y[i], x[i]) for i in keep])
    coef = thetas.mean(axis=0)
    dev = thetas - coef
    cov = dev.T @ dev / (keep.size * (keep.size - 1))
    return coef, cov, 1.0 - keep.size / n


def fete_oracle(y, x):
    n, T, _ = x.shape
    M = mt(T)
    xbar = x.mean(axis=0)
    ybar = y.mean(axis=0)
    a = sum((x[i] - xbar).T @ M @ (x[i] - xbar) for i in range(n))
    b = sum((x[i] - xbar).T @ M @ (y[i] - ybar) for i in range(n))
    beta = np.linalg.solve(a, b)
    phi = M @ (ybar - xbar @ beta)
    a_inv = np.linalg.inv(a)
    meat = np.zeros_like(a)
    omega = np.zeros((T, T))
    for i in range(n):
        nu = (y[i] - ybar) - (x[i] - xbar) @ beta
        s = (x[i] - xbar).T @ M @ nu
        meat += np.outer(s, s)
        omega += np.outer(nu, nu)
    cov = a_inv @ meat @ a_inv
    # M_T (Xbar V Xbar' + Omega/n) M_T, Omega the cross-section covariance of nu
    cov_phi = M @ (xbar @ cov @ xbar.T + omega / ((n - 1) * n)) @ M
    return beta, phi, cov, cov_phi


def chamberlain_oracle(y, x):
    n, T, _ = x.shape
    M = mt(T)
    ms = []
    rhs = np.zeros(T)
    for i in range(n):
        a = M @ x[i]
        m_i = np.eye(T) - a @ np.linalg.inv(a.T @ a) @ a.T
        ms.append(m_i)
        rhs += m_i @ M @ y[i]
    mbar = sum(ms) / n
    phi = np.linalg.solve(mbar, rhs / n)
    meat = np.zeros((T, T))
    for i in range(n):
        w = ms[i] @ M @ (y[i] - phi)
        meat += np.outer(w, w)
    mbar_inv = np.linalg.inv(mbar)
    cov = mbar_inv @ (meat / n) @ mbar_inv / n
    return phi, cov


def tmgte_oracle(y, x, alpha):
    n, T, kp = x.shape
    M = mt(T)
    _, a_n, delta = trim_quantities(y, x, alpha)
    scale = 1.0 + delta.mean()
    qs = []
    for i in range(n):
        W = unit_w(x[i])
        if is_stayer(x[i]):
            qs.append(np.zeros_like(W))
        else:
            qs.append((1.0 + delta[i]) * W @ np.linalg.inv(W.T @ W))
    qbar = sum(qs) / (n * scale)
    if T > kp + 1:
        phi, _ = chamberlain_oracle(y, x)
        tilde = np.array([qs[i].T @ (y[i] - phi) for i in range(n)])
        coef = tilde.mean(axis=0) / scale
        return coef, phi
    tilde = np.array([trimmed_theta(y[i], x[i], delta[i]) for i in range(n)])
    theta_tmg = tilde.mean(axis=0) / scale
    wbar = np.column_stack([np.ones(T), x.mean(axis=0)])
    ybar = y.mean(axis=0)
    a = np.eye(kp + 1) - qbar.T @ M @ wbar
    coef = np.linalg.solve(a, theta_tmg - qbar.T @ M @ ybar)
    phi = M @ (ybar - wbar @ coef)
    return coef, phi


def gpte_oracle(y, x, alpha_gp):
    # equal weights on the retained units; T = k system on all-unit averages
    n, T, kp = x.shape
    M = mt(T)
    keep = gp_kept_units(x, alpha_gp)
    rs = [unit_w(x[i]) @ np.linalg.inv(unit_w(x[i]).T @ unit_w(x[i])) for i in keep]
    rbar = sum(rs) / keep.size
    if T > kp + 1:
        phi, _ = chamberlain_oracle(y, x)
        thetas = np.array([r.T @ (y[i] - phi) for r, i in zip(rs, keep)])
        return thetas.mean(axis=0), phi
    theta_gp = np.array([unit_theta(y[i], x[i]) for i in keep]).mean(axis=0)
    wbar = np.column_stack([np.ones(T), x.mean(axis=0)])
    ybar = y.mean(axis=0)
    a = np.eye(kp + 1) - rbar.T @ M @ wbar
    coef = np.linalg.solve(a, theta_gp - rbar.T @ M @ ybar)
    phi = M @ (ybar - wbar @ coef)
    return coef, phi


def hausman_oracle(y, x, alpha):
    n, T, kp = x.shape
    M = mt(T)
    beta_fe, _ = fe_oracle(y, x)
    coef_tmg, _, _ = tmg_oracle(y, x, alpha)
    delta_hat = beta_fe - coef_tmg[1:]
    d, a_n, delta = trim_quantities(y, x, alpha)
    scale = 1.0 + delta.mean()
    psibar = sum(x[i].T @ M @ x[i] for i in range(n)) / n
    psibar_inv = np.linalg.inv(psibar)
    v = np.zeros((kp, kp))
    for i in range(n):
        if is_stayer(x[i]):
            continue  # s_i is (...) X_i'M nu_i, and M X_i = 0
        g_t = (
            psibar_inv - (1.0 + delta[i]) / scale * np.linalg.inv(x[i].T @ M @ x[i])
        ) @ x[i].T
        nu = M @ y[i] - (M @ x[i]) @ beta_fe
        s = g_t @ nu
        v += np.outer(s, s)
    v /= n
    stat = n * delta_hat @ np.linalg.inv(v) @ delta_hat
    return stat, delta_hat


def hausman_te_oracle(y, x, alpha):
    n, T, kp = x.shape
    M = mt(T)
    beta_fete, _, _, _ = fete_oracle(y, x)
    coef_te, _ = tmgte_oracle(y, x, alpha)
    delta_hat = beta_fete - coef_te[1:]
    d, a_n, delta = trim_quantities(y, x, alpha)
    scale = 1.0 + delta.mean()
    xbar = x.mean(axis=0)
    ybar = y.mean(axis=0)
    psibar = sum((x[i] - xbar).T @ M @ (x[i] - xbar) for i in range(n)) / n
    psibar_inv = np.linalg.inv(psibar)
    qx = [
        np.zeros((T, kp))
        if is_stayer(x[i])
        else (1.0 + delta[i]) * M @ x[i] @ np.linalg.inv(x[i].T @ M @ x[i])
        for i in range(n)
    ]
    qxbar = sum(qx) / (n * scale)
    v = np.zeros((kp, kp))
    if T == kp + 1:
        a_x_inv = np.linalg.inv(np.eye(kp) - qxbar.T @ M @ xbar)
        for i in range(n):
            g = (x[i] - xbar) @ psibar_inv - qx[i] @ a_x_inv.T / scale
            nu = (y[i] - ybar) - (x[i] - xbar) @ beta_fete
            s = g.T @ M @ nu
            v += np.outer(s, s)
    else:
        ms = []
        for i in range(n):
            a = M @ x[i]
            ms.append(np.eye(T) - a @ np.linalg.inv(a.T @ a) @ a.T)
        mbar_inv = np.linalg.inv(sum(ms) / n)
        for i in range(n):
            g = (x[i] - xbar) @ psibar_inv - (
                qx[i] / scale - ms[i] @ mbar_inv @ M @ qxbar
            )
            nu = (y[i] - ybar) - (x[i] - xbar) @ beta_fete
            s = g.T @ M @ nu
            v += np.outer(s, s)
    v /= n
    stat = n * delta_hat @ np.linalg.inv(v) @ delta_hat
    return stat, delta_hat
