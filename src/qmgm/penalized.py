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
residual is certified.  With fewer than ``MIN_SOLVABLE_ROWS`` solvable
rows the slopes are not identified, and every point is the
intercept-only answer in closed form: the link transform of the marginal
mid-quantile, with zero slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, _check_lambda_grid, _readonly
from .lasso import wls_gram, wls_paths, wls_step
from .midcdf import ThresholdLogitSet, marginal_mid_quantile

# On 2 rows every centered column is a multiple of one vector, so G has
# rank 1 and columns that differ by the same amount on both rows tie: the
# lasso fit is unique but its split of the slope over tied columns is
# arbitrary.  Below this many solvable rows a path is intercept-only.
MIN_SOLVABLE_ROWS = 3


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
        # the read-only (intercepts, betas, work, converged) rows of the
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


def penalized_wls(X, w, z, beta, lam):
    """Exact solves of P weighted L1-penalized least squares

        (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2 + lam * sum_k |beta_k|

    with an unpenalized intercept, one per row of X (P, n, m), w and z
    (P, n), each with row weights of positive sum: one ``lasso.wls_step``
    on their stacked ``lasso.wls_gram`` form from the starts beta (P, m),
    which are overwritten with the slopes.  Returns the intercepts, the
    work (linear solves plus fallback sweeps) and whether each KKT residual
    is certified, each (P,); each problem gets the bits it gets alone.
    """
    return wls_step(*wls_gram(X, w, z), beta, lam)


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


def fit_lambda_paths(pairs, lambdas):
    """Fit a strictly decreasing lambda sequence with warm starts for each
    (problem, tau) pair by the inverse route: the per-row-inverted implicit
    equation is solved by penalized weighted least squares (see the module
    docstring).  The problems must have the same number of predictors.
    Returns the paths stacked over the P pairs, in order, and the M
    lambdas: intercepts (P, M), betas (P, M, m), work (P, M) and converged
    (P, M); ``work`` counts the kernel's linear solves plus any fallback
    sweeps.

    The pairs with at least ``MIN_SOLVABLE_ROWS`` solvable rows advance
    together through one ``lasso.wls_paths`` call, on one ``wls_gram``
    stack per problem, and each path equals the one its pair gives alone.
    With fewer, every point is the intercept-only answer in closed form:
    the link transform of the marginal mid-quantile, zero slopes, no work,
    converged."""
    lambdas = _check_lambda_grid(lambdas)
    P, M = len(pairs), lambdas.size
    intercepts, betas = np.empty((P, M)), np.zeros((P, M, pairs[0][0].m))
    work, converged = np.zeros((P, M), dtype=int), np.ones((P, M), dtype=bool)
    found = {}      # problem -> (pair index, row weights, targets) of its solved pairs
    for i, (problem, tau) in enumerate(pairs):
        targets, solvable = inverse_midquantile_targets(problem, tau)
        if solvable.sum() >= MIN_SOLVABLE_ROWS:
            found.setdefault(problem, []).append((i, solvable, targets))
        else:
            intercepts[i] = _link_forward(marginal_mid_quantile(problem.y, tau), problem.link)
    if found:
        # a stack per problem: one over all pairs would hold a centered X per pair at once
        solved = [i for rows in found.values() for i, _, _ in rows]
        stacks = [wls_gram(problem.X[None], np.array([w for _, w, _ in rows], dtype=float),
                           np.array([t for _, _, t in rows]))
                  for problem, rows in found.items()]
        intercepts[solved], betas[solved], work[solved], converged[solved] = (
            wls_paths([np.concatenate(field) for field in zip(*stacks)], lambdas))
    return intercepts, betas, work, converged
