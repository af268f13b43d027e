"""Conditional mid-distribution estimation.

For a node with ordered threshold points z_1 < ... < z_k, the conditional
CDF at each threshold is estimated by a separate logistic regression of the
indicator 1{y <= z_h} on the remaining variables.  Per evaluation point the
k fitted CDF values are monotonized by increasing rearrangement, differenced
into point masses, and combined into mid-probabilities

    pi_h = F_h - 0.5 * (F_h - F_{h-1}),   F_0 := 0,

whose piecewise-linear interpolation over the thresholds is the continuous
mid-CDF surrogate used by the penalized fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import DataError, Dataset, _readonly

IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
IRLS_RIDGE = 1e-6

# Fitted CDF values are kept this far inside (0, 1); the degenerate top
# threshold (indicator identically one) is stored as exactly 1.
CDF_CLIP = 1e-9

# Output clamp for the interpolator when extrapolating beyond the grid.
INTERP_CLIP = 1e-6


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

    @property
    def k(self) -> int:
        return self.thresholds.size


@dataclass(frozen=True, eq=False)
class MidCdfField:
    """Vectorized mid-CDF interpolator over all training rows.

    ``pi[i]`` holds row i's mid-probabilities at the shared thresholds and
    ``slopes[i, h]`` the interpolation slope on segment [z_h, z_{h+1}].
    Evaluation extrapolates with the boundary-segment slope and clamps the
    result to [INTERP_CLIP, 1 - INTERP_CLIP].
    """

    thresholds: np.ndarray        # (k,)
    pi: np.ndarray                # (n, k)
    slopes: np.ndarray            # (n, k-1)

    def __post_init__(self):
        for name in ("thresholds", "pi", "slopes"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n(self) -> int:
        return self.pi.shape[0]

    def evaluate(self, eta: np.ndarray):
        """Mid-CDF values and local slopes at one eta per row.

        Returns (values, slopes); the slope is zero wherever the output
        clamp is active, so it is the exact one-sided derivative of the
        clamped interpolator.
        """
        z = self.thresholds
        idx = np.clip(np.searchsorted(z, eta, side="right") - 1, 0, z.size - 2)
        rows = np.arange(eta.size)
        b = self.slopes[rows, idx]
        val = b * (eta - z[idx]) + self.pi[rows, idx]
        clamped = (val < INTERP_CLIP) | (val > 1.0 - INTERP_CLIP)
        np.clip(val, INTERP_CLIP, 1.0 - INTERP_CLIP, out=val)
        return val, np.where(clamped, 0.0, b)


def rearrange_monotone(values):
    """Increasing rearrangement: the sorted sequence (multiset preserved)."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DataError("rearrangement requires finite values")
    return np.sort(values, axis=-1)


def fit_threshold_logits(dataset: Dataset, node: int) -> ThresholdLogitSet:
    """Fit one logistic regression per threshold of the given node.

    The dataset must be validated (threshold grids present) and free of
    missing values.  Non-convergence keeps the last iterate and is flagged;
    the top threshold is replaced by the constant-one model when it equals
    the maximum observed value.
    """
    if dataset.has_missing():
        raise DataError("threshold fits require imputed (non-missing) data")
    spec = dataset.schema[node]
    if spec.threshold_grid is None:
        raise DataError(f"column {spec.name!r} has no threshold grid; validate first")
    z = spec.threshold_grid
    if z.size < 2:
        raise DataError(f"column {spec.name!r} needs at least two thresholds")
    y = dataset.values[:, node]
    X = np.delete(dataset.values, node, axis=1)
    return _fit_threshold_logits_arrays(node, y, X, z)


def _fit_threshold_logits_arrays(node, y, X, z) -> ThresholdLogitSet:
    """Damped-Newton logistic fits of 1{y <= z_h} on [1, X] for every
    threshold at once.

    All thresholds share the design, so one iteration updates every
    threshold still active: the per-threshold Hessians X'WX come from one
    product with the row outer products x_i x_i', and the ridge jitter
    damps each step without moving the maximum-likelihood fixed point
    (the step solves (X'WX + ridge I) d = X'(t - mu)).  A threshold stops
    on its own step size; one that reaches IRLS_MAX_ITER keeps its last
    iterate and is flagged unconverged.
    """
    n, m = X.shape
    q = m + 1
    X1 = np.empty((n, q))
    X1[:, 0] = 1.0
    X1[:, 1:] = X
    k = z.size
    coefs = np.zeros((k, q))
    conv = np.ones(k, dtype=bool)
    degen = z >= y.max()
    idx = np.flatnonzero(~degen)                  # thresholds still active
    T = (y[None, :] <= z[idx, None]).astype(float)  # (threshold, row)
    tbar = T.mean(axis=1)
    C = np.zeros((idx.size, q))
    C[:, 0] = np.log((tbar + 1e-12) / (1.0 - tbar + 1e-12))
    outer = (X1[:, :, None] * X1[:, None, :]).reshape(n, q * q)
    diag = np.arange(q)
    for _ in range(IRLS_MAX_ITER):
        if idx.size == 0:
            break
        mu = expit(C @ X1.T)
        np.clip(mu, 1e-10, 1.0 - 1e-10, out=mu)
        H = ((mu * (1.0 - mu)) @ outer).reshape(-1, q, q)
        H[:, diag, diag] += IRLS_RIDGE
        step = _newton_steps(H, (T - mu) @ X1)
        C += step
        done = np.max(np.abs(step), axis=1) < IRLS_TOL
        if done.any():
            coefs[idx[done]] = C[done]
            keep = ~done
            idx, C, T = idx[keep], C[keep], T[keep]
    coefs[idx] = C
    conv[idx] = False
    return ThresholdLogitSet(node, z, coefs, conv, degen)


def _newton_steps(H, g):
    """Solve H[s] d[s] = g[s] for every slice; a singular slice falls back
    to least squares."""
    try:
        return np.linalg.solve(H, g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        pass
    steps = np.empty_like(g)
    for s in range(g.shape[0]):
        try:
            steps[s] = np.linalg.solve(H[s], g[s])
        except np.linalg.LinAlgError:
            steps[s] = np.linalg.lstsq(H[s], g[s], rcond=None)[0]
    return steps


def _raw_cdf_matrix(logits: ThresholdLogitSet, X: np.ndarray) -> np.ndarray:
    """Unrearranged fitted CDF values, rows x thresholds."""
    n = X.shape[0]
    X1 = np.empty((n, X.shape[1] + 1))
    X1[:, 0] = 1.0
    X1[:, 1:] = X
    F = expit(X1 @ logits.coefficients.T)
    np.clip(F, CDF_CLIP, 1.0 - CDF_CLIP, out=F)
    F[:, logits.degenerate] = 1.0
    return F


def build_field(logits: ThresholdLogitSet, X: np.ndarray) -> MidCdfField:
    """Mid-CDF interpolator for every row of X at once."""
    F = rearrange_monotone(_raw_cdf_matrix(logits, X))
    mass = np.diff(F, prepend=0.0, axis=1)
    pi = F - 0.5 * mass
    z = logits.thresholds
    slopes = np.diff(pi, axis=1) / np.diff(z)
    return MidCdfField(z, pi, slopes)


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
