"""Conditional mid-distribution estimation.

For a node with ordered threshold points z_1 < ... < z_k, the conditional
CDF at each threshold is estimated by a separate logistic regression of the
indicator 1{y <= z_h} on the remaining variables.  Per evaluation point the
k fitted CDF values are monotonized by increasing rearrangement, differenced
into point masses, and combined into mid-probabilities

    pi_h = F_h - 0.5 * (F_h - F_{h-1}),   F_0 := 0,

whose piecewise-linear interpolation over the thresholds is the continuous
mid-CDF surrogate used by the penalized fit.  ``fit_threshold_logits`` fits
every node of a dataset in one stacked solve, and ``build_field`` returns
the (n, k) mid-probability array of one node's rows.

The Newton loop shares its iteration cap, tolerance and clips with the
mgm count nodes (``core.IRLS_MAX_ITER``, ``IRLS_TOL``, ``MU_CLIP`` and
``LP_CLIP``) and solves its stacked steps with the lasso kernel's
``_stacked_solve``; its ridge and its CDF clip are its own.  The fit and
``build_field`` evaluate the logits with one sigmoid, ``_clipped_sigmoid``
on NumPy's exp, so this module loads no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import IRLS_MAX_ITER, IRLS_TOL, LP_CLIP, MU_CLIP, DataError, Dataset, _readonly
from .lasso import _stacked_solve

IRLS_RIDGE = 1e-6

# Fitted CDF values are kept this far inside (0, 1); the degenerate top
# threshold (indicator identically one) is stored as exactly 1.
CDF_CLIP = 1e-9


@dataclass(frozen=True, eq=False)
class ThresholdLogitSet:
    """Per-threshold logistic fits for one node.

    ``coefficients[h]`` is (intercept, slopes...) for the model of
    1{Y_node <= thresholds[h]} given the other variables.  The top
    threshold is degenerate (probability one) when it equals the maximum
    observed value; no regression is fitted there.
    """

    node: int
    thresholds: np.ndarray        # (k,)
    coefficients: np.ndarray      # (k, 1 + m)
    converged: np.ndarray         # (k,) bool
    degenerate: np.ndarray        # (k,) bool

    def __post_init__(self):
        for name in ("thresholds", "coefficients", "converged", "degenerate"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        if not np.all(np.isfinite(self.coefficients)):
            raise DataError("threshold logit coefficients must be finite")


def rearrange_monotone(values):
    """Increasing rearrangement: the sorted sequence (multiset preserved)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataError("rearrangement requires finite values")
    return np.sort(values, axis=-1)


def fit_threshold_logits(dataset: Dataset) -> list:
    """Threshold logits of every node, fitted in one stacked Newton solve;
    one ThresholdLogitSet per node, in order.

    The dataset must be validated (threshold grids present) and free of
    missing values.  Every (node, threshold) pair is one row of the stack,
    on the shared design [1, every column]; a row holds its own node's
    column at exactly zero, so it is its node's regression on the other
    columns.  Non-convergence keeps the last iterate and is flagged; the
    top threshold is replaced by the constant-one model when it equals the
    maximum observed value.
    """
    if dataset.has_missing():
        raise DataError("threshold fits require imputed (non-missing) data")
    grids = []
    for j, spec in enumerate(dataset.schema):
        if spec.threshold_grid is None:
            raise DataError(f"column {spec.name!r} has no threshold grid; validate first")
        if spec.threshold_grid.size < 2:
            raise DataError(f"column {spec.name!r} needs at least two thresholds")
        grids.append((j, spec.threshold_grid))
    values = dataset.values
    T, degenerate = _indicators([(values[:, j], z) for j, z in grids])
    counts = [int((~d).sum()) for d in degenerate]
    coefs, converged = _stacked_newton(_design(values), T,
                                       np.repeat([j + 1 for j, _ in grids], counts))
    splits = np.cumsum(counts)[:-1]
    return [_logit_set(j, z, degen, np.delete(c, j + 1, axis=1), conv)
            for (j, z), degen, c, conv in zip(grids, degenerate, np.split(coefs, splits),
                                               np.split(converged, splits))]


def _design(X):
    """[1, X] as one C-ordered array."""
    X1 = np.empty((X.shape[0], X.shape[1] + 1))
    X1[:, 0] = 1.0
    X1[:, 1:] = X
    return X1


def _indicators(responses):
    """Bool rows 1{y <= z_h} of every (y, z) pair, stacked, leaving out each
    pair's degenerate thresholds (z_h >= max y); also the degenerate masks."""
    degenerate = [z >= y.max() for y, z in responses]
    T = np.concatenate([y[None, :] <= z[~degen, None]
                        for (y, z), degen in zip(responses, degenerate)])
    return T, degenerate


def _logit_set(node, z, degenerate, coefs, converged) -> ThresholdLogitSet:
    """Scatter the fitted rows back onto the node's threshold grid; the
    degenerate thresholds keep zero coefficients and count as converged."""
    full = np.zeros((z.size, coefs.shape[1]))
    full[~degenerate] = coefs
    conv = np.ones(z.size, dtype=bool)
    conv[~degenerate] = converged
    return ThresholdLogitSet(node, z, full, conv, degenerate)


def _clipped_sigmoid(eta):
    """Overwrite eta with 1 / (1 + exp(-eta)) clipped to [MU_CLIP,
    1 - MU_CLIP], and return it: np.clip(expit(eta), ...) within 2 ulp, on
    NumPy's vectorized exp.  The Newton fit and ``_raw_cdf_matrix`` both
    evaluate the threshold logits with it.  Past +-LP_CLIP the result
    already sits at a clip bound, so eta is clipped there first and exp
    cannot overflow."""
    np.clip(eta, -LP_CLIP, LP_CLIP, out=eta)
    np.negative(eta, out=eta)
    np.exp(eta, out=eta)
    eta += 1.0
    np.divide(1.0, eta, out=eta)
    np.clip(eta, MU_CLIP, 1.0 - MU_CLIP, out=eta)
    return eta


def _stacked_newton(X1, T, pinned):
    """Damped-Newton logistic fits of every row of the indicator matrix T
    (rows x n, bool) on the shared design X1 (n x q, first column ones).

    Returns the (rows, q) coefficients and the converged flags.  Each row
    starts at its intercept-only logit, and one iteration updates every row
    still active.  The Hessians X1'WX1 come from one product with the
    q(q+1)/2 upper-triangle row products x_ia x_ib, mirrored; the ridge
    damps each step without moving the maximum-likelihood fixed point (the
    step solves (X1'WX1 + ridge I) d = X1'(t - mu)).  ``pinned[r]`` is a
    column that row r holds at exactly zero: an identity row and column in
    its Hessian and a zero gradient entry.  The steps come from one
    ``_stacked_solve``; a row whose Hessian it finds singular (a NaN step)
    takes the least-squares step instead.  A row stops on its own step
    size; one that reaches IRLS_MAX_ITER keeps its last iterate and is
    flagged unconverged.
    """
    rows, n = T.shape
    q = X1.shape[1]
    coefs = np.zeros((rows, q))
    converged = np.zeros(rows, dtype=bool)
    live = np.arange(rows)
    tbar = T.mean(axis=1)
    C = np.zeros((rows, q))
    C[:, 0] = np.log((tbar + 1e-12) / (1.0 - tbar + 1e-12))
    upper, lower = np.triu_indices(q)
    products = X1[:, upper] * X1[:, lower]
    packed_diag = np.flatnonzero(upper == lower)
    # position in the packed upper triangle of every entry of a q x q matrix
    packed_index = np.empty((q, q), dtype=np.intp)
    packed_index[upper, lower] = packed_index[lower, upper] = np.arange(upper.size)
    # mu and the weights, then the residuals, live in these (rows x n) buffers
    mu_buffer = np.empty((rows, n))
    work_buffer = np.empty((rows, n))
    for _ in range(IRLS_MAX_ITER):
        r = live.size
        if r == 0:
            break
        mu = _clipped_sigmoid(np.matmul(C, X1.T, out=mu_buffer[:r]))
        work = np.subtract(1.0, mu, out=work_buffer[:r])
        work *= mu
        packed = work @ products
        packed[:, packed_diag] += IRLS_RIDGE
        H = np.take(packed, packed_index, axis=1)
        g = np.subtract(T, mu, out=work) @ X1
        at = np.arange(r)
        H[at, pinned, :] = 0.0
        H[at, :, pinned] = 0.0
        H[at, pinned, pinned] = 1.0
        g[at, pinned] = 0.0
        step = _stacked_solve(H, g)
        # a singular Hessian's step is NaN throughout: one column tells
        for s in np.flatnonzero(np.isnan(step[:, 0])):
            step[s] = np.linalg.lstsq(H[s], g[s], rcond=None)[0]
        C += step
        done = np.max(np.abs(step), axis=1) < IRLS_TOL
        if done.any():
            coefs[live[done]] = C[done]
            converged[live[done]] = True
            keep = ~done
            live, C, T, pinned = live[keep], C[keep], T[keep], pinned[keep]
    coefs[live] = C
    return coefs, converged


def _raw_cdf_matrix(logits: ThresholdLogitSet, X: np.ndarray) -> np.ndarray:
    """Unrearranged fitted CDF values, rows x thresholds: the fit's own
    sigmoid, then the CDF clip."""
    F = _clipped_sigmoid(_design(X) @ logits.coefficients.T)
    np.clip(F, CDF_CLIP, 1.0 - CDF_CLIP, out=F)
    F[:, logits.degenerate] = 1.0
    return F


def build_field(logits: ThresholdLogitSet, X: np.ndarray) -> np.ndarray:
    """Mid-probabilities pi[i, h] of every row of X at every threshold of
    ``logits``: row i's mid-CDF interpolator is the piecewise-linear
    function through the points (logits.thresholds[h], pi[i, h]), which
    ``penalized`` inverts at tau."""
    F = rearrange_monotone(_raw_cdf_matrix(logits, X))
    mass = np.diff(F, prepend=0.0, axis=1)
    return F - 0.5 * mass


def marginal_mid_cdf(sample):
    """Distinct values with empirical CDF, masses and mid-probabilities."""
    sample = np.asarray(sample, dtype=float)
    if sample.size == 0:
        raise DataError("empty sample")
    z, counts = np.unique(sample, return_counts=True)
    mass = counts / sample.size
    F = np.cumsum(mass)
    pi = F - 0.5 * mass
    return z, F, mass, pi


def marginal_mid_quantile(sample, tau: float) -> float:
    """Marginal mid-quantile: piecewise-linear inverse of the sample
    mid-CDF, clamped to the extreme distinct values outside its range."""
    if not 0.0 < tau < 1.0:
        raise DataError(f"tau must be inside (0, 1), got {tau}")
    z, _, _, pi = marginal_mid_cdf(sample)
    if z.size == 1:
        return float(z[0])
    return float(np.interp(tau, pi, z))
