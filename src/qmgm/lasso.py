"""Weighted L1-penalized least squares (the lasso) in covariance form.

One kernel serves the qmgm inverse route and the mgm baseline.  The
problem

    (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2 + lam * sum_k |beta_k|

with an unpenalized intercept and one lam for every slope becomes, once
the weighted means are profiled out, (1/2) b'Gb - c'b + lam sum_k |b_k|
over the centered Gram matrix G and c (``wls_gram``), so a solve costs
O(m^2) to O(m^3) for m predictors whatever n is.  A solve is an exact
active-set method started at a warm start, which pivots out of singular
active blocks, and each point is either certified, with a KKT residual
within tolerance, or flagged and left at its warm start.

The active-set method runs on P problems of equal width in lockstep: at
each step it stacks the active blocks of every problem whose active set
has the same size into one ``np.linalg.solve`` call.  A stacked solve
gives each problem the bits it gets alone, so a problem's answer does not
depend on the others in its batch; so does ``wls_gram``'s stacked
``np.matmul``.  Along a lambda path X, the row weights and the targets
stay fixed, so ``wls_paths`` takes the forms made once per path and
returns the paths as stacked (P, M, ...) arrays, the one path format from
this kernel to the coefficient cube; ``penalized.penalized_wls`` makes
them afresh for each reweighted step of the mgm baseline.
"""

from __future__ import annotations

import numpy as np

# A column whose weighted variance is below this fraction of its weighted
# mean square is constant on the weighted rows up to the rounding of the
# centering; its slope is not identified beside the intercept and stays 0.
WLS_FLAT_TOL = 1e-20
# A solve is accepted when its KKT residual, computed from G and c, is at
# most this fraction of max(1, max_k |c_k|).
WLS_KKT_TOL = 1e-10


def wls_paths(gram, lambdas):
    """``wls_step`` along a decreasing lambda grid for P problems with the
    same number of predictors and row weights of positive sum, given by
    their stacked ``wls_gram`` form, made once per path as X, w and z stay
    fixed along it.  Each point is warm-started at the last, and each path
    equals the one its problem gives alone.  Returns the paths stacked over
    the P problems and M lambdas: intercepts (P, M), betas (P, M, m), work
    (P, M) and converged (P, M)."""
    P, m = gram[1].shape
    M = len(lambdas)
    intercepts, betas = np.zeros((P, M)), np.zeros((P, M, m))
    work, converged = np.zeros((P, M), dtype=int), np.zeros((P, M), dtype=bool)
    beta = np.zeros((P, m))
    for i, lam in enumerate(lambdas):
        intercepts[:, i], work[:, i], converged[:, i] = wls_step(*gram, beta, lam)
        betas[:, i] = beta
    return intercepts, betas, work, converged


def wls_step(G, c, ok, xbar, zbar, beta, lam):
    """For each of P problems given by their stacked ``wls_gram`` form,
    minimize (1/2) b'G b - c'b + lam sum_k |b_k| over b with b_k = 0
    outside ``ok``, starting from beta (P, m), which is overwritten with
    the certified solutions.  Returns the intercepts, the work (linear
    solves) and whether the KKT residual is at most WLS_KKT_TOL *
    max(1, max |c|), each (P,): each point is certified or flagged, and a
    flagged problem keeps its start."""
    lam = float(lam)
    kkt_tol = WLS_KKT_TOL * np.maximum(1.0, np.abs(c).max(axis=1, initial=0.0))
    b = np.where(ok, beta, 0.0)
    work, converged = _active_set(G, c, ok, b, lam, kkt_tol)
    np.copyto(beta, b, where=converged[:, None])
    # one dot product per problem, as zbar - xbar @ beta alone
    return zbar - np.matmul(xbar[:, None, :], beta[:, :, None])[:, 0, 0], work, converged


def wls_gram(X, w, z):
    """Covariance forms of the weighted least-squares terms of P problems on
    X (P, n, m), or (1, n, m) shared by all, with row weights w of positive
    sum and targets z (P, n): G = Xc' W Xc / n (P, m, m), c = Xc' W zc / n
    and the mask ``ok`` of the columns not flat on the weighted rows, both
    (P, m), and the weighted means xbar (P, m) and zbar (P,) (Friedman,
    Hastie & Tibshirani 2010).  Each problem gets the bits of its own P = 1
    call; zbar's dot product reads z's rows as laid out, strided or not."""
    n = X.shape[1]
    wsum = w.sum(axis=1)
    xbar = np.matmul(w[:, None, :], X)[:, 0] / wsum[:, None]
    zbar = np.matmul(w[:, None, :], z[:, :, None])[:, 0, 0] / wsum
    Xc = X - xbar[:, None, :]
    WXcT = (Xc * w[:, :, None]).transpose(0, 2, 1)
    G = np.matmul(WXcT, Xc) / n
    zc = np.subtract(z, zbar[:, None], order="C")   # contiguous, as for one z
    c = np.matmul(WXcT, zc[:, :, None])[:, :, 0] / n
    ok = np.diagonal(G, axis1=1, axis2=2) > WLS_FLAT_TOL * xbar ** 2 * (wsum / n)[:, None]
    return G, c, ok, xbar, zbar


def _kkt_gap(r, lam, b):
    """Per coordinate, the violation of the optimality conditions at b,
    given the gradient residual r = c - G b: |r_k - lam sign(b_k)| where
    b_k != 0, |r_k| - lam where b_k = 0.  A NaN stays NaN, so it is never
    certified."""
    return np.where(b != 0, np.abs(r - lam * np.sign(b)), np.abs(r) - lam)


def _residual(G, c, b):
    """c - G b for stacked G (P, m, m) and b, c (P, m): one matrix-vector
    product per problem, the same call as ``c - G @ b`` on one."""
    return c - np.matmul(G, b[:, :, None])[:, :, 0]


def _active_set(G, c, ok, b, lam, kkt_tol):
    """Active-set solves of P covariance-form lassos from the starts b
    (Osborne, Presnell & Turlach 2000), overwriting b.

    Per problem, the active set A starts as the support of b and the KKT
    violators, with signs s from b, or from the gradient for new entries;
    at lam = 0 it is every column, with no signs.  Each step solves
    G_AA b_A = c_A - lam s_A.  If G_AA is singular, b pivots along a null
    direction of it and a coordinate leaves A (``_pivot``).  If a
    coordinate would change sign, b moves along the segment only up to the
    first zero crossing and that coordinate leaves A; otherwise b takes the
    solution and the violators of |c_k - (Gb)_k| <= lam enter A.  Flat
    columns never enter.  The problems step together: the blocks of all
    problems whose active sets have the same size go through one stacked
    solve.  Returns (block solves, certified), each (P,): each point is
    certified, or flagged when its KKT residual exceeds kkt_tol or it is
    still running after 10 + 2m steps besides the pivots that shrink A.
    """
    P, m = c.shape
    tol = kkt_tol[:, None]
    pen = lam > 0
    s = np.sign(b) * pen
    r = _residual(G, c, b)
    active = ok & ((b != 0) | (not pen) | (np.abs(r) - lam > tol))
    fresh = active & (s == 0) & pen
    s[fresh] = np.sign(r[fresh])
    solves, steps = np.zeros(P, dtype=int), np.zeros(P, dtype=int)
    certified = np.zeros(P, dtype=bool)
    running = np.ones(P, dtype=bool)
    while running.any():
        sizes = np.where(running, active.sum(axis=1), 0)
        check = running & (sizes == 0)
        steps += running
        for k in set(sizes.tolist()) - {0}:
            grp = np.nonzero(sizes == k)[0]
            rows = grp[:, None]
            idx = np.nonzero(active[grp])[1].reshape(-1, k)
            sA = s[rows, idx]
            GAA = G[rows[:, :, None], idx[:, :, None], idx[:, None, :]]
            rhs = c[rows, idx] - lam * sA
            x, singular = _block_solve(GAA, rhs, kkt_tol[grp])
            solves[grp] += 1
            if singular.any():
                for i in np.nonzero(singular)[0]:
                    _pivot(b, active, grp[i], idx[i], GAA[i], rhs[i], sA[i], kkt_tol[grp[i]], pen)
                # a pivot that shrinks A takes no step of the cap (one on a
                # non-finite block may move nothing)
                steps[grp[singular]] -= active[grp[singular]].sum(axis=1) < k
            cross = sA * x < 0
            crossing = cross.any(axis=1) & ~singular
            if crossing.any():
                rc, ic = rows[crossing], idx[crossing]
                _step_to_crossing(b, active, rc, ic, x[crossing] - b[rc, ic], cross[crossing],
                                  sA[crossing])
            solved = ~crossing & ~singular
            b[rows[solved], idx[solved]] = x[solved]
            check[grp[solved]] = True
        if check.any():
            # every problem's residual, but only the checked ones act on it
            r = _residual(G, c, b)
            gap = np.where(ok, _kkt_gap(r, lam, b), 0.0)
            viol = ~active & (gap > tol) & check[:, None]
            done = check & ~viol.any(axis=1)
            certified |= done & (gap.max(axis=1, initial=0.0) <= kkt_tol)
            running &= ~done
            active |= viol
            s = np.where(viol, np.sign(r), s)
        running &= steps < 10 + 2 * m
    return solves, certified


def _block_solve(A, rhs, kkt_tol):
    """``_stacked_solve`` of A x = rhs, and which blocks are singular: their
    x is NaN or misses its own equations by more than kkt_tol, so the point
    it gives could never certify."""
    x = _stacked_solve(A, rhs)
    miss = np.abs(rhs - np.matmul(A, x[:, :, None])[:, :, 0]).max(axis=1)
    return x, ~(miss <= kkt_tol)


def _stacked_solve(A, rhs):
    """x with A[j] x[j] = rhs[j] for a stack of k x k blocks; x[j] is NaN
    where A[j] is singular.  A stacked ``np.linalg.solve`` gives each block
    the bits it gets alone; when a block is singular the stack is solved
    block by block, so the others keep their solutions."""
    # numpy's solver: the first call into scipy's LAPACK, a separate BLAS
    # build, maps its own buffers and raises peak memory
    try:
        return np.linalg.solve(A, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        x = np.full(rhs.shape, np.nan)
        for j in range(len(A)):
            try:
                x[j] = np.linalg.solve(A[j], rhs[j])
            except np.linalg.LinAlgError:
                pass
        return x


def _pivot(b, active, p, idx, GAA, rhs, sA, kkt_tol, pen):
    """Move problem p's active coordinates b[p, idx] along a null direction
    d of their singular block GAA, with sA . d <= 0, until a coordinate
    reaches zero or an entering one would move against its sign; that
    coordinate leaves the active set.  The move leaves G b as it is and,
    up to that crossing, does not raise the penalty, so the point is no
    worse and A loses a column (Tibshirani 2013).  Column j ends the
    first singular leading block (``_block_solve`` on rhs), so it is a
    combination of the columns B before it and d = (G_BB^-1 G_Bj, -1).
    At lam = 0 there are no signs, and column j leaves."""
    k = len(idx)
    j = next((j for j in range(1, k)
              if _block_solve(GAA[None, :j + 1, :j + 1], rhs[None, :j + 1], kkt_tol)[1][0]),
             k - 1)
    d = np.zeros(k)
    d[:j], d[j] = _stacked_solve(GAA[None, :j, :j], GAA[None, :j, j])[0], -1.0
    if sA @ d > 0:
        d = -d
    cross = sA * d < 0 if pen else np.arange(k) == j
    _step_to_crossing(b, active, np.array([[p]]), idx[None], d[None], cross[None], sA[None])


def _step_to_crossing(b, active, rows, idx, d, cross, sA):
    """Move each given problem's active coordinates b[rows, idx] along d,
    toward its solution x with d = x - b or along a null direction, only
    up to the first zero crossing of a sign; the first crossers, and any
    coordinate rounding pushed past zero, leave the active set at exactly
    zero."""
    bA = b[rows, idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(cross, bA / -d, np.inf)
    tmin = t.min(axis=1, keepdims=True)
    bA = bA + tmin * d
    gone = (sA * bA < 0) | (cross & (t <= tmin))
    bA[gone] = 0.0
    b[rows, idx] = bA
    active[rows, idx] = ~gone
