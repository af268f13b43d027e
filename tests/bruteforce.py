"""Independent brute-force oracles used by the tests.

These deliberately avoid the package's vectorized implementations: plain
loops, Counters, elementary formulas and one n-length reduction at a time.
"""

import math
from collections import Counter

import numpy as np
from scipy.special import expit

from qmgm.core import derive_threshold_grid, quantile_loss
from qmgm.mgm import FAMILY_BY_KIND, LP_CLIP, glm_deviance
from qmgm.midcdf import ThresholdLogitSet, build_field
from qmgm.penalized import NodeProblem
from descent import _link_inverse


def mid_quantile_oracle(sample, tau):
    """Marginal mid-quantile via the piecewise-linear inverse of the
    mid-distribution function, computed with explicit loops."""
    counts = Counter(float(v) for v in sample)
    zs = sorted(counts)
    n = sum(counts.values())
    pis = []
    cum = 0.0
    for z in zs:
        mass = counts[z] / n
        pis.append(cum + 0.5 * mass)
        cum += mass
    if len(zs) == 1 or tau <= pis[0]:
        return zs[0]
    if tau >= pis[-1]:
        return zs[-1]
    for h in range(len(zs) - 1):
        if pis[h] <= tau <= pis[h + 1]:
            frac = (tau - pis[h]) / (pis[h + 1] - pis[h])
            return zs[h] + frac * (zs[h + 1] - zs[h])
    raise AssertionError("unreachable")


def pair_counts_oracle(truth_adj, est_adj):
    p = len(truth_adj)
    tp = fp = tn = fn = 0
    for j in range(p):
        for k in range(j + 1, p):
            t = bool(truth_adj[j][k])
            e = bool(est_adj[j][k])
            if t and e:
                tp += 1
            elif not t and e:
                fp += 1
            elif t and not e:
                fn += 1
            else:
                tn += 1
    return tp, fp, tn, fn


def metrics_oracle(truth_adj, est_adj):
    tp, fp, tn, fn = pair_counts_oracle(truth_adj, est_adj)
    div = lambda a, b: a / b if b else 0.0
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return {
        "precision": div(tp, tp + fp),
        "tpr": div(tp, tp + fn),
        "fpr": div(fp, fp + tn),
        "f1": div(2 * tp, 2 * tp + fp + fn),
        "mcc": (tp * tn - fp * fn) / mcc_den if mcc_den else 0.0,
        "accuracy": div(tp + tn, tp + fp + tn + fn),
    }


def auc_oracle(points):
    """Trapezoid area under the monotone upper envelope of (fpr, tpr)
    points, by explicit sorting and accumulation."""
    pts = sorted((float(f), float(t)) for f, t in points)
    best = 0.0
    env = []
    for f, t in pts:
        best = max(best, t)
        env.append((f, best))
    area = 0.0
    for (f0, t0), (f1, t1) in zip(env, env[1:]):
        area += (f1 - f0) * (t0 + t1) / 2.0
    return area


def hamming_oracle(a, b):
    p = len(a)
    bad = total = 0
    for j in range(p):
        for k in range(j + 1, p):
            total += 1
            bad += bool(a[j][k]) != bool(b[j][k])
    return bad / total


# How often the coordinate descent tries the exact solve over its support,
# and the KKT residual at which that solve is accepted.
SUPPORT_SOLVE_EVERY = 1000
SUPPORT_SOLVE_KKT_TOL = 1e-10


def penalized_wls_reference(X, w, z, b0, beta, lam, *, max_sweeps=1000, tol=1e-12):
    """Naive coordinate descent for the weighted lasso

        (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2 + lam * sum_k |beta_k|

    kept in residual form: every coordinate update reduces the full
    n-length residual, and the intercept is re-centred after each sweep.
    On near-collinear columns the sweeps crawl, so every
    ``SUPPORT_SOLVE_EVERY`` sweeps the exact optimum over the current
    support and signs is tried (``_support_solve``); it ends the descent
    once its KKT residual is certified.  Mutates beta; returns (b0, beta,
    sweeps, converged).
    """
    n, m = X.shape
    v = (w[:, None] * X ** 2).mean(axis=0)
    wsum = w.sum()
    r = z - b0 - X @ beta
    sweeps = 0
    converged = False
    for sweeps in range(1, max_sweeps + 1):
        delta = 0.0
        for k in range(m):
            old = beta[k]
            rho = (w * X[:, k] * r).sum() / n + v[k] * old
            new = (np.sign(rho) * max(abs(rho) - lam, 0.0) / v[k]
                   if v[k] > 0 else 0.0)
            if new != old:
                r += X[:, k] * (old - new)
                beta[k] = new
                delta = max(delta, abs(new - old))
        shift = (w * r).sum() / wsum if wsum > 0 else 0.0
        if shift != 0.0:
            b0 += shift
            r -= shift
            delta = max(delta, abs(shift))
        if delta < tol:
            converged = True
            break
        if sweeps % SUPPORT_SOLVE_EVERY == 0:
            exact = _support_solve(X, w, z, beta, lam)
            if exact is not None:
                b0, beta[:] = exact
                converged = True
                break
    return b0, beta, sweeps, converged


def _support_solve(X, w, z, beta, lam):
    """The stationary point (b0, beta) of the weighted lasso with the
    support S and signs s of beta held fixed: the weighted normal equations
    of [1, X_S] with lam s_k moved to the right-hand side.  Returns
    None when they are singular or the point fails the KKT check (a sign
    flipped, or a column outside S violates it)."""
    n, m = X.shape
    S = np.flatnonzero(beta)
    D = np.column_stack([np.ones(n), X[:, S]])
    rhs = (D * w[:, None]).T @ z
    rhs[1:] -= n * lam * np.sign(beta[S])
    try:
        theta = np.linalg.solve((D * w[:, None]).T @ D, rhs)
    except np.linalg.LinAlgError:
        return None
    exact = np.zeros(m)
    exact[S] = theta[1:]
    if kkt_residual(X, w, z, theta[0], exact, lam) > SUPPORT_SOLVE_KKT_TOL:
        return None
    return float(theta[0]), exact


def kkt_residual(X, w, z, b0, beta, lam):
    """Largest violation of the weighted-lasso optimality conditions.

    With g = -(1/n) X' W r and g0 = -(1/n) sum w r at the residual
    r = z - b0 - X beta, a minimizer has g0 = 0, g_k = -lam sign(beta_k)
    where beta_k != 0 and |g_k| <= lam where beta_k = 0.
    """
    n, m = X.shape
    r = z - b0 - X @ beta
    worst = abs(float((w * r).sum())) / n
    for k in range(m):
        g = -float((w * X[:, k] * r).sum()) / n
        if beta[k] != 0.0:
            worst = max(worst, abs(g + lam * np.sign(beta[k])))
        else:
            worst = max(worst, abs(g) - lam)
    return worst


def logistic_irls_reference(y, X, z, *, max_iter=100, tol=1e-8, ridge=1e-6):
    """Threshold logits fitted one threshold at a time.

    For each threshold z_h below max(y), a damped-Newton (IRLS) logistic
    fit of 1{y <= z_h} on [1, X], started at the intercept-only logit and
    stopped when max |step| < tol; a singular Newton system falls back to
    least squares.  Returns (coefficients, converged, degenerate) with the
    shapes of ThresholdLogitSet; degenerate thresholds keep zero
    coefficients and count as converged.
    """
    n, m = X.shape
    X1 = np.column_stack([np.ones(n), X])
    k = len(z)
    coefs = np.zeros((k, m + 1))
    converged = np.ones(k, dtype=bool)
    degenerate = np.zeros(k, dtype=bool)
    for h in range(k):
        if z[h] >= y.max():
            degenerate[h] = True
            continue
        t = (y <= z[h]).astype(float)
        coef = np.zeros(m + 1)
        coef[0] = np.log((t.mean() + 1e-12) / (1.0 - t.mean() + 1e-12))
        converged[h] = False
        for _ in range(max_iter):
            mu = expit(X1 @ coef)
            np.clip(mu, 1e-10, 1.0 - 1e-10, out=mu)
            w = mu * (1.0 - mu)
            H = (X1 * w[:, None]).T @ X1
            H[np.diag_indices_from(H)] += ridge
            g = X1.T @ (t - mu)
            try:
                step = np.linalg.solve(H, g)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(H, g, rcond=None)[0]
            coef += step
            if np.max(np.abs(step)) < tol:
                converged[h] = True
                break
        coefs[h] = coef
    return coefs, converged, degenerate


def intercept_only_problem(sample, link):
    """The node problem of a bare sample with no predictors: threshold
    logits at its distinct values from ``logistic_irls_reference`` on the
    intercept-only design, and their mid-probabilities from the package's
    ``build_field``."""
    y = np.asarray(sample, dtype=float)
    X = np.zeros((y.size, 0))
    z = derive_threshold_grid(y)
    logits = ThresholdLogitSet(0, z, *logistic_irls_reference(y, X, z))
    return NodeProblem(0, y, X, link, build_field(logits, X), logits)


BIC_EPS_GUARD = 1e-12


def _complexity(kind, cn, n, p):
    if kind == "aic":
        return 2.0 / (2.0 * n)
    return float(np.log(n) * np.log(p - 1) * cn / (2.0 * n))


def score_reference(cube, lambda_index, dataset, kind, cn, block_loss,
                    use_link_inverse, nonzero_tol):
    """Criterion score at one lambda, one (node, level) block at a time:
    the log of the block's loss (the quantile-loss sum, or
    ``block_loss(j, l, intercept, beta)``) plus its active-set size times
    the per-coefficient complexity, summed in node-then-level order."""
    p, n = dataset.p, dataset.n
    per_coef = _complexity(kind, cn, n, p)
    total = 0.0
    for j in range(p):
        yj = dataset.values[:, j]
        Xj = np.delete(dataset.values, j, axis=1)
        link = dataset.schema[j].link
        for l, tau in enumerate(cube.tau_levels):
            b0 = cube.intercepts[j, l, lambda_index]
            beta = cube.betas[j, l, lambda_index]
            if block_loss is not None:
                loss = float(block_loss(j, l, b0, beta))
            else:
                pred = b0 + Xj @ beta
                if use_link_inverse:
                    pred = _link_inverse(pred, link)[0]
                loss = float(np.sum(quantile_loss(yj - pred, float(tau))))
            nu = int(np.count_nonzero(np.abs(beta) > nonzero_tol))
            total += np.log(loss + BIC_EPS_GUARD) + nu * per_coef
    return float(total)


def deviance_losses_reference(dataset):
    """Per-block family deviance of the mean-based baseline, for
    ``score_reference``."""
    def loss(j, l, intercept, beta):
        family = FAMILY_BY_KIND[dataset.schema[j].kind]
        X = np.delete(dataset.values, j, axis=1)
        mu = intercept + X @ beta
        if family != "gaussian":
            mu = np.clip(mu, -LP_CLIP, LP_CLIP)
            mu = expit(mu) if family == "binomial" else np.exp(mu)
        return glm_deviance(family, dataset.values[:, j], mu)
    return loss
