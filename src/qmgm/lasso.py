"""Weighted L1-penalized least squares (the lasso) in covariance form.

One kernel serves the qmgm inverse route and the mgm baseline.  The
problem

    (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2 + sum_k thr_k |beta_k|

with an unpenalized intercept becomes, once the weighted means are
profiled out, (1/2) b'Gb - c'b + sum_k thr_k |b_k| over the centered Gram
matrix G and c (``wls_gram``), so a solve costs O(m^2) to O(m^3) for m
predictors whatever n is.  ``lasso_solve`` is an exact active-set method
started at a warm start and accepted only with a certified KKT residual;
coordinate-descent sweeps take over when an active block is singular or
the step cap is hit.  ``wls_path`` forms G and c once for a whole lambda
path, along which X, the row weights and the targets stay fixed, and
returns the path as arrays, one entry per lambda: the fields of a
``core.LambdaPath``.
"""

from __future__ import annotations

import numpy as np

WLS_SWEEP_MAX = 1000
WLS_SWEEP_TOL = 1e-12
# A column whose weighted variance is below this fraction of its weighted
# mean square is constant on the weighted rows up to the rounding of the
# centering; its slope is not identified beside the intercept and stays 0.
WLS_FLAT_TOL = 1e-20
# A solve is accepted when its KKT residual, computed from G and c, is at
# most this fraction of max(1, max_k |c_k|).
WLS_KKT_TOL = 1e-10


def wls_path(X, w, z, lambdas):
    """``penalized.penalized_wls`` along a decreasing lambda grid, each
    point warm-started at the last, with every slope penalized by lambda
    and the centered Gram matrix formed once: X, w and z stay fixed along
    the path.  The row weights must have a positive sum.  Returns the
    arrays (intercepts (M,), betas (M, m), work (M,), converged (M,)) over
    the M lambdas."""
    G, c, ok, xbar, zbar = wls_gram(X, w, z)
    M, m = len(lambdas), X.shape[1]
    intercepts, betas = np.zeros(M), np.zeros((M, m))
    work, converged = np.zeros(M, dtype=int), np.zeros(M, dtype=bool)
    beta = np.zeros(m)
    for i, lam in enumerate(lambdas):
        work[i], converged[i] = lasso_solve(G, c, ok, beta, np.full(m, float(lam)),
                                            WLS_SWEEP_MAX, WLS_SWEEP_TOL)
        intercepts[i], betas[i] = zbar - float(xbar @ beta), beta
    return intercepts, betas, work, converged


def wls_gram(X, w, z):
    """Covariance form of the weighted least-squares term: the weighted
    means xbar and zbar, G = Xc' W Xc / n and c = Xc' W zc / n of the
    centered data (Friedman, Hastie & Tibshirani 2010), and the mask of the
    columns that are not flat on the weighted rows.  None when every row
    weight is zero."""
    n = X.shape[0]
    wsum = float(w.sum())
    if wsum <= 0:
        return None
    xbar = (w @ X) / wsum
    zbar = float(w @ z) / wsum
    Xc = X - xbar
    WXc = Xc * w[:, None]
    G = (WXc.T @ Xc) / n
    c = (WXc.T @ (z - zbar)) / n
    ok = np.diag(G) > WLS_FLAT_TOL * xbar ** 2 * (wsum / n)
    return G, c, ok, xbar, zbar


def lasso_solve(G, c, ok, beta, thr, max_sweeps, tol):
    """Minimize (1/2) b'Gb - c'b + sum_k thr_k |b_k| over b with b_k = 0
    outside ``ok``, starting from beta, which is overwritten with the
    solution.  Returns (work, converged): linear solves plus fallback
    sweeps, and whether the KKT residual is at most WLS_KKT_TOL *
    max(1, max |c|)."""
    kkt_tol = WLS_KKT_TOL * max(1.0, float(np.abs(c).max(initial=0.0)))
    b = np.where(ok, beta, 0.0)
    solves, certified = _active_set(G, c, ok, b, thr, kkt_tol)
    if certified:
        beta[:] = b
        return solves, True
    sweeps = _sweeps(G, c, ok, beta, thr, max_sweeps, tol)
    gap = _kkt_gap(c - G @ beta, thr, beta)
    return solves + sweeps, gap[ok].max(initial=0.0) <= kkt_tol


def _kkt_gap(r, thr, b):
    """Per coordinate, the violation of the optimality conditions at b,
    given the gradient residual r = c - G b: |r_k - thr_k sign(b_k)| where
    b_k != 0, |r_k| - thr_k where b_k = 0.  A NaN stays NaN, so it is never
    certified."""
    return np.where(b != 0, np.abs(r - thr * np.sign(b)), np.abs(r) - thr)


def _active_set(G, c, ok, b, thr, kkt_tol):
    """Active-set solve of the covariance-form lasso from the start b
    (Osborne, Presnell & Turlach 2000), overwriting b.

    The active set A starts as the support of b, the unpenalized columns
    and the KKT violators, with signs s from b, or from the gradient for
    new entries.  Each step solves G_AA b_A = c_A - thr_A s_A.  If a
    penalized coordinate would change sign, b moves along the segment only
    up to the first zero crossing and that coordinate leaves A; otherwise b
    takes the solution and the violators of |c_k - (Gb)_k| <= thr_k enter
    A.  Flat columns never enter.  Returns (linear solves, certified); not
    certified when G_AA is singular, the step cap is hit or the KKT
    residual exceeds kkt_tol.
    """
    pen = thr > 0
    s = np.sign(b) * pen
    r = c - G @ b
    active = ok & ((b != 0) | ~pen | (np.abs(r) - thr > kkt_tol))
    fresh = active & (s == 0) & pen
    s[fresh] = np.sign(r[fresh])
    solves = 0
    for _ in range(10 + 2 * c.size):
        idx = np.flatnonzero(active)
        if idx.size:
            solves += 1
            # numpy's solver: the first call into scipy's LAPACK, a separate
            # BLAS build, maps its own buffers and raises peak memory
            try:
                x = np.linalg.solve(G[idx[:, None], idx], c[idx] - thr[idx] * s[idx])
            except np.linalg.LinAlgError:
                return solves, False
            cross = s[idx] * x < 0
            if cross.any():
                bA = b[idx]
                t = bA[cross] / (bA[cross] - x[cross])
                tmin = t.min()
                b[idx] = bA + tmin * (x - bA)
                # the first crossers, and any coordinate rounding pushed
                # past zero, leave A at exactly zero
                gone = s[idx] * b[idx] < 0
                gone[cross] |= t <= tmin
                b[idx[gone]] = 0.0
                active[idx[gone]] = False
                continue
            b[idx] = x
        r = c - G @ b
        gap = _kkt_gap(r, thr, b)
        viol = ok & ~active & (gap > kkt_tol)
        if not viol.any():
            return solves, gap[ok].max(initial=0.0) <= kkt_tol
        active |= viol
        s[viol] = np.sign(r[viol])
    return solves, False


def _sweeps(G, c, ok, beta, thr, max_sweeps, tol):
    """Coordinate descent over plain Python floats with a running G beta
    (soft-threshold updates), overwriting beta; stops when no slope moves
    by tol or more.  Returns the number of sweeps."""
    m = c.size
    diag = np.where(ok, np.diag(G), 0.0).tolist()
    Gb = (G @ beta).tolist()
    G, c = G.tolist(), c.tolist()
    thresholds = thr.tolist()
    b = beta.tolist()
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        delta = 0.0
        for k in range(m):
            old = b[k]
            gkk = diag[k]
            new = 0.0
            if gkk > 0.0:
                rho = c[k] - Gb[k] + gkk * old
                t = thresholds[k]
                if rho > t:
                    new = (rho - t) / gkk
                elif rho < -t:
                    new = (rho + t) / gkk
            if new != old:
                step = new - old
                Gb = [gb + gk * step for gb, gk in zip(Gb, G[k])]
                b[k] = new
                if abs(step) > delta:
                    delta = abs(step)
        if delta < tol:
            break
    beta[:] = b
    return sweeps
