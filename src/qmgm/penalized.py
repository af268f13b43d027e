"""Penalized mid-quantile node regression.

For one node at quantile level tau, the fit solves the implicit equation
tau = Gc_i(eta_i) under an L1 penalty, where eta_i is the link inverse of
b0 + x_i' beta and Gc_i is row i's piecewise-linear conditional mid-CDF
interpolator through the points (thresholds[h], pi[i, h]) of the node
problem's mid-probabilities ``pi`` at its logits' thresholds.
``fit_lambda_paths`` solves it on the (node, tau) grid of the cube by
inversion: it inverts each row's interpolator at every tau to get the
implied conditional mid-quantiles, in one array pass per node, then fits
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
mid-quantile, with zero slopes.  The targets and these intercepts share
one link transform (``_link_transform``), so both floor log-link values
at half the smallest positive threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CoefficientCube, _check_lambda_grid, _readonly
from .lasso import wls_gram, wls_paths, wls_step
from .midcdf import ThresholdLogitSet, marginal_mid_quantile

# On 2 rows every centered column is a multiple of one vector, so G has
# rank 1 and columns that differ by the same amount on both rows tie: the
# lasso fit is unique but its split of the slope over tied columns is
# arbitrary.  Below this many solvable rows a path is intercept-only.
MIN_SOLVABLE_ROWS = 3


@dataclass(frozen=True, eq=False)
class NodeProblem:
    """Everything step two needs for one node, read-only and nothing more:
    response, predictors, link, the mid-probabilities ``pi[i, h]`` of row i
    at threshold ``logits.thresholds[h]`` (``midcdf.build_field``) and the
    threshold logits they come from."""

    y: np.ndarray                 # (n,)
    X: np.ndarray                 # (n, m)
    link: str
    pi: np.ndarray                # (n, k)
    logits: ThresholdLogitSet

    def __post_init__(self):
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
    which are overwritten with the certified slopes.  Returns the
    intercepts, the work (linear solves) and whether each KKT residual is
    certified, each (P,): a flagged problem keeps its start, and each
    problem gets the bits it gets alone.
    """
    return wls_step(*wls_gram(X, w, z), beta, lam)


def inverse_midquantile_targets(problem: NodeProblem, taus):
    """Row-wise solutions of the implicit equation on the link scale at
    every level of ``taus``, in one array pass.

    For each level and row the interpolated mid-CDF is inverted at tau,
    giving that row's implied conditional mid-quantile; its link transform
    (``_link_transform``) is the regression target.  Rows with tau outside
    [pi_1, pi_k] have no solution and are flagged unsolvable.  Returns the
    targets and the solvable masks, each (T, n) for the T levels.
    """
    pi = problem.pi
    taus = np.asarray(taus, dtype=float)[:, None]
    solvable = (taus >= pi[:, 0]) & (taus <= pi[:, -1])
    return _link_transform(_interp_rows(taus, pi, problem.logits.thresholds), problem), solvable


def _link_transform(xi: np.ndarray, problem: NodeProblem) -> np.ndarray:
    """The link transform of response-scale values, clamped into its
    domain: the targets and the closed-form intercepts both go through it.
    Log-link values are floored at half the smallest positive threshold
    (1e-6 when there is none), so boundary rows cannot produce unbounded
    values; logit-link values are clipped to [1e-6, 1 - 1e-6]."""
    if problem.link == "identity":
        return xi
    if problem.link == "log":
        z = problem.logits.thresholds
        positive = z[z > 0]
        return np.log(np.maximum(xi, 0.5 * positive[0] if positive.size else 1e-6))
    v = np.clip(xi, 1e-6, 1.0 - 1e-6)
    return np.log(v / (1.0 - v))


def _interp_rows(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x[t, 0], xp[i], fp)`` at (t, i) for a (T, 1) column x, a
    row-wise nondecreasing ``xp`` and a finite ``fp``, bit for bit, in one
    array pass: the segment is the last knot at or below x, a knot hit
    exactly returns its value, and x outside a row's range clamps to fp[0]
    or fp[-1].  (np.interp's NaN retry cannot fire here: inside a segment
    the divisor is positive, and the 0/0 of tied knots only arises in
    cells the knot and clamp rules overwrite.)"""
    k = fp.size
    j = (xp <= x[:, :, None]).sum(axis=2) - 1
    lo = np.clip(j, 0, k - 2)
    rows = np.arange(xp.shape[0])
    x0, x1 = xp[rows, lo], xp[rows, lo + 1]
    f0, f1 = fp[lo], fp[lo + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (f1 - f0) / (x1 - x0) * (x - x0) + f0
    hit = x0 == x
    out[hit] = f0[hit]
    out[j < 0] = fp[0]
    out[j >= k - 1] = fp[-1]
    return out


def fit_lambda_paths(problems, taus, lambdas) -> CoefficientCube:
    """The cube of the p node problems of one dataset (each with p - 1
    predictors) at every level of ``taus`` and every lambda of a strictly
    decreasing grid, fitted with warm starts by the inverse route: the
    per-row-inverted implicit equation is solved by penalized weighted
    least squares (see the module docstring).  Its ``iterations`` count
    the kernel's linear solves, and a point it flags keeps the slopes of
    the point before it (zero at the first lambda).

    The (problem, level) cells with at least ``MIN_SOLVABLE_ROWS`` solvable
    rows advance together through one ``lasso.wls_paths`` call, on one
    ``wls_gram`` stack per problem, and each path equals the one its cell
    gives alone.  With fewer, every point is the intercept-only answer in
    closed form: the link transform of the marginal mid-quantile, zero
    slopes, no work, converged."""
    lambdas = _check_lambda_grid(lambdas)
    taus = np.asarray(taus, dtype=float)
    shape = (len(problems), taus.size, lambdas.size)
    intercepts, betas = np.empty(shape), np.zeros(shape + (problems[0].m,))
    work, converged = np.zeros(shape, dtype=int), np.ones(shape, dtype=bool)
    solved, stacks = np.zeros(shape[:2], dtype=bool), []
    for j, problem in enumerate(problems):
        targets, solvable = inverse_midquantile_targets(problem, taus)
        kernel = solved[j] = solvable.sum(axis=1) >= MIN_SOLVABLE_ROWS
        # a stack per problem: one over all cells would hold a centered X per cell at once
        stacks.append(wls_gram(problem.X[None], solvable[kernel].astype(float), targets[kernel]))
        xi = np.array([marginal_mid_quantile(problem.y, tau) for tau in taus[~kernel]])
        intercepts[j, ~kernel] = _link_transform(xi, problem)[:, None]
    intercepts[solved], betas[solved], work[solved], converged[solved] = (
        wls_paths([np.concatenate(field) for field in zip(*stacks)], lambdas))
    return CoefficientCube(intercepts, betas, lambdas, taus, converged, work)
