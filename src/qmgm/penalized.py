"""Penalized mid-quantile node regression.

For one node at quantile level tau, the fit solves the implicit equation
tau = Gc_i(eta_i) under an L1 penalty, where eta_i is the link inverse of
b0 + x_i' beta and Gc_i is row i's piecewise-linear conditional mid-CDF
interpolator through the points (thresholds[h], pi[i, h]) of the node
problem's mid-probabilities ``pi`` at its logits' thresholds.
``fit_lambda_paths`` solves it by inversion: it inverts each row's
interpolator at tau to get the implied conditional mid-quantile, then fits
the link-transformed targets by penalized weighted least squares.  Rows
whose equation has no solution (tau outside the row's mid-probability
range) carry no information and are dropped.  At lambda = 0 this is the
closed-form two-step estimator.

X, the row weights and the targets stay fixed along a lambda path, so a
path is one warm-started run of the exact lasso kernel in ``qmgm.lasso``,
with one Gram matrix per path, and the paths of one call advance through
that kernel together; a point counts as converged only when its KKT
residual is certified.  With fewer than 2 solvable rows the equation
carries no conditional information, and every point is the
intercept-only answer in closed form: the link transform of the marginal
mid-quantile, with zero slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, LambdaPath, _check_lambda_grid, _readonly
from .lasso import lasso_solve, wls_gram, wls_paths
from .midcdf import ThresholdLogitSet, marginal_mid_quantile


def _link_forward(value: float, link: str) -> float:
    """Link transform of a response-scale value, clamped into the domain."""
    if link == "identity":
        return float(value)
    if link == "log":
        return float(np.log(max(value, 1e-6)))
    if link == "logit":
        v = min(max(value, 1e-6), 1.0 - 1e-6)
        return float(np.log(v / (1.0 - v)))
    raise DataError(f"unknown link {link!r}")


@dataclass(frozen=True, eq=False)
class NodeProblem:
    """Everything step two needs for one node: response, predictors, link,
    the mid-probabilities ``pi[i, h]`` of row i at threshold
    ``logits.thresholds[h]`` (``midcdf.build_field``) and the threshold
    logits they come from."""

    node: int
    y: np.ndarray                 # (n,)
    X: np.ndarray                 # (n, m)
    link: str
    pi: np.ndarray                # (n, k)
    logits: ThresholdLogitSet

    def __post_init__(self):
        # lambda paths already fitted, keyed by (tau, lambdas bytes); only
        # ``selection.fit_qmgm`` fills it
        object.__setattr__(self, "_paths", {})
        object.__setattr__(self, "y", _readonly(self.y))
        object.__setattr__(self, "pi", _readonly(self.pi))
        # one layout for every column order: numpy reductions add in an
        # order that follows the memory layout
        object.__setattr__(self, "X", _readonly(self.X, order="C"))

    @property
    def m(self) -> int:
        return self.X.shape[1]


def penalized_wls(X, w, z, b0, beta, lam):
    """Exact solve of the weighted L1-penalized least squares

        (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2 + lam * sum_k |beta_k|

    with an unpenalized intercept, by the kernel in ``qmgm.lasso``: the
    weighted means are profiled out, and an active-set method started at
    beta solves the covariance form and is accepted once its KKT residual
    is certified.  When an active-set system is singular or the step cap
    is hit, coordinate-descent sweeps from beta take over.  Mutates and
    returns beta; also returns the work done (linear solves plus fallback
    sweeps) and whether the KKT residual is certified.  With all row
    weights zero the slopes are zero and b0 is returned as passed.
    """
    gram = wls_gram(X, w, z)
    if gram is None:
        beta[:] = 0.0
        return b0, beta, 0, True
    G, c, ok, xbar, zbar = gram
    work, converged = lasso_solve(G, c, ok, beta, np.full(X.shape[1], float(lam)))
    return zbar - float(xbar @ beta), beta, work, converged


def inverse_midquantile_targets(problem: NodeProblem, tau: float):
    """Row-wise solution of the implicit equation on the link scale.

    For each row the interpolated mid-CDF is inverted at tau, giving that
    row's implied conditional mid-quantile; the link transform of it is the
    regression target.  Rows with tau outside [pi_1, pi_k] have no solution
    and are flagged unsolvable.  Log-link targets are floored at half the
    smallest positive threshold so boundary rows cannot produce unbounded
    values.
    """
    z = problem.logits.thresholds
    pi = problem.pi
    solvable = (tau >= pi[:, 0]) & (tau <= pi[:, -1])
    xi = _interp_rows(tau, pi, z)
    if problem.link == "identity":
        t = xi
    elif problem.link == "log":
        positive = z[z > 0]
        floor = 0.5 * positive[0] if positive.size else 1e-6
        t = np.log(np.maximum(xi, floor))
    else:
        v = np.clip(xi, 1e-6, 1.0 - 1e-6)
        t = np.log(v / (1.0 - v))
    return t, solvable


def _interp_rows(x: float, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp[i], fp)`` for every row i of a row-wise
    nondecreasing ``xp`` and a finite ``fp``, bit for bit, in one array
    pass: the segment is the last knot at or below x, a knot hit exactly
    returns its value, and x outside a row's range clamps to fp[0] or
    fp[-1].  (np.interp's NaN retry cannot fire here: inside a segment the
    divisor is positive, and the 0/0 of tied knots only arises in rows the
    knot and clamp rules overwrite.)"""
    k = fp.size
    j = (xp <= x).sum(axis=1) - 1
    lo = np.clip(j, 0, k - 2)
    rows = np.arange(xp.shape[0])
    x0, x1 = xp[rows, lo], xp[rows, lo + 1]
    f0, f1 = fp[lo], fp[lo + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    out[x0 == x] = f0[x0 == x]
    out[j < 0] = fp[0]
    out[j >= k - 1] = fp[-1]
    return out


def fit_lambda_paths(pairs, lambdas) -> list:
    """Fit a strictly decreasing lambda sequence with warm starts for each
    (problem, tau) pair by the inverse route: the per-row-inverted implicit
    equation is solved by penalized weighted least squares (see the module
    docstring).  The problems must have the same number of predictors.
    Returns one ``LambdaPath`` per pair, in order; ``work`` counts the
    kernel's linear solves plus any fallback sweeps.

    The pairs with at least 2 solvable rows advance together through one
    ``lasso.wls_paths`` call, and each path equals the one its pair gives
    alone.  With fewer than 2 solvable rows every point is the
    intercept-only answer in closed form: the link transform of the
    marginal mid-quantile, zero slopes, no work, converged."""
    lambdas = _check_lambda_grid(lambdas)
    M = lambdas.size
    paths, grams = {}, {}
    for i, (problem, tau) in enumerate(pairs):
        targets, solvable = inverse_midquantile_targets(problem, tau)
        if solvable.sum() >= 2:
            grams[i] = wls_gram(problem.X, solvable.astype(float), targets)
        else:
            b0 = _link_forward(marginal_mid_quantile(problem.y, tau), problem.link)
            paths[i] = LambdaPath(np.full(M, b0), np.zeros((M, problem.m)),
                                  np.zeros(M, dtype=int), np.ones(M, dtype=bool))
    for i, fields in zip(grams, wls_paths(list(grams.values()), lambdas)):
        paths[i] = LambdaPath(*fields)
    return [paths[i] for i in range(len(pairs))]
