"""Penalized mid-quantile node regression.

For one node at quantile level tau, the fit solves the implicit equation
tau = Gc_i(eta_i) under an L1 penalty, where eta_i is the link inverse of
b0 + x_i' beta and Gc_i is row i's piecewise-linear conditional mid-CDF
interpolator.  Two routes are provided:

* the inverse route (``fit_lambda_path``, the production solver): invert
  each row's interpolator at tau to get the implied conditional
  mid-quantile, then fit the link-transformed targets by penalized
  weighted least squares.  Rows whose equation has no solution (tau
  outside the row's mid-probability range) carry no information and are
  dropped.  At lambda = 0 this is the closed-form two-step estimator.

  X, the row weights and the targets stay fixed along a lambda path, so a
  path is one warm-started run of the exact lasso kernel in
  ``qmgm.lasso``, with one Gram matrix per path; a point counts as
  converged only when its KKT residual is certified.  With fewer than 2
  solvable rows the equation carries no conditional information, and
  every point is the intercept-only answer in closed form: the link
  transform of the marginal mid-quantile, with zero slopes.

* the descent route (``fit_node_quantile``; ``null_fit`` and ``lambda_max``
  build on it): proximal gradient with backtracking line search on the
  probability-scale objective

      (1/n) sum_i (tau - Gc_i(eta_i))^2 + lambda * sum_k |beta_k|,

  with the intercept unpenalized and accepted iterates never increasing
  the objective.  This squared probability-scale loss weights rows by the
  local interpolator slope, which empirically blurs support recovery, so
  it serves as the diagnostic/verification route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import (DataError, Dataset, LambdaPath, NONZERO_TOL, NumericalError,
                   _check_lambda_grid, _one_blas_thread, _readonly)
from .lasso import WLS_SWEEP_MAX, WLS_SWEEP_TOL, lasso_solve, wls_gram, wls_path
from .midcdf import (MidCdfField, ThresholdLogitSet, _fit_threshold_logits_arrays,
                     build_field, fit_all_threshold_logits, marginal_mid_quantile)

MAX_ITERATIONS = 500
CONVERGENCE_TOL = 1e-7
NULL_FIT_TOL = 1e-9
STEP_INIT = 1.0
STEP_MIN = 1e-14
STEP_GROW = 2.0
STEP_MAX = 1e6
MAX_BACKTRACKS = 70


def _link_inverse(lp: np.ndarray, link: str):
    """Link inverse eta(lp) and its derivative, overflow-safe."""
    if link == "identity":
        return lp, np.ones_like(lp)
    if link == "log":
        eta = np.exp(np.clip(lp, -700.0, 700.0))
        return eta, eta
    if link == "logit":
        eta = expit(lp)
        return eta, eta * (1.0 - eta)
    raise DataError(f"unknown link {link!r}")


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
    """Everything step two needs for one node: response, predictors, link
    and the fitted mid-CDF interpolation field."""

    node: int
    y: np.ndarray                 # (n,)
    X: np.ndarray                 # (n, m)
    link: str
    field: MidCdfField
    logits: ThresholdLogitSet

    def __post_init__(self):
        # lambda paths already fitted, keyed by (tau, lambdas bytes); only
        # ``selection.fit_qmgm`` in the calling process fills it
        object.__setattr__(self, "_paths", {})
        object.__setattr__(self, "y", _readonly(self.y))
        # one layout for every column order: numpy reductions add in an
        # order that follows the memory layout
        object.__setattr__(self, "X", _readonly(self.X, order="C"))

    def __getstate__(self):
        # pool workers get the problem without the path memo
        return {**self.__dict__, "_paths": {}}

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def m(self) -> int:
        return self.X.shape[1]

    @classmethod
    def build(cls, dataset: Dataset, node: int) -> "NodeProblem":
        """Run the threshold-logit step for one node of a validated dataset
        (the single-node case of ``build_all``)."""
        return cls.build_all(dataset, (node,))[0]

    @classmethod
    def build_all(cls, dataset: Dataset, nodes=None) -> list:
        """Run the threshold-logit step for the given nodes (default: every
        node) of a validated dataset, in one stacked solve.

        It runs on one BLAS thread: a threaded OpenBLAS product rounds
        differently from a single-threaded one, and the step must give the
        same bits in a serial run and in a replication worker of a process
        pool, whose BLAS is pinned to one thread (see
        ``selection._pool_map``).
        """
        values = dataset.values
        problems = []
        with _one_blas_thread():
            for logits in fit_all_threshold_logits(dataset, nodes):
                j = logits.node
                X = np.delete(values, j, axis=1)
                problems.append(cls(j, values[:, j], X, dataset.schema[j].link,
                                    build_field(logits, X), logits))
        return problems

    @classmethod
    def marginal(cls, sample, link: str = "identity", max_thresholds: int = 100) -> "NodeProblem":
        """Intercept-only problem for a bare sample (no predictors)."""
        from .core import derive_threshold_grid

        y = np.asarray(sample, dtype=float)
        grid = derive_threshold_grid(y, max_thresholds)
        if grid.size < 2:
            raise DataError("sample needs at least two distinct values")
        X = np.zeros((y.size, 0))
        logits = _fit_threshold_logits_arrays(0, y, X, grid)
        return cls(0, y, X, link, build_field(logits, X), logits)


@dataclass(frozen=True)
class NodeFitConfig:
    """Numeric knobs of one penalized node fit."""

    tau: float
    lam: float
    track_objective: bool = False

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise DataError(f"tau must be inside (0, 1), got {self.tau}")
        if self.lam < 0:
            raise DataError("lambda must be nonnegative")


@dataclass(frozen=True, eq=False)
class NodeFitResult:
    intercept: float
    beta: np.ndarray
    objective: float
    iterations: int
    converged: bool
    active_set: np.ndarray
    objective_trace: np.ndarray | None = None

    def __post_init__(self):
        if not np.isfinite(self.objective):
            raise NumericalError("node fit produced a non-finite objective")
        object.__setattr__(self, "beta", _readonly(self.beta))
        object.__setattr__(self, "active_set", _readonly(self.active_set))


def soft_threshold(v, t):
    """Proximal operator of t * |.| : sign(v) * max(|v| - t, 0)."""
    v = np.asarray(v, dtype=float)
    out = np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    return float(out) if out.ndim == 0 else out


def penalized_wls(X, w, z, b0, beta, lam, coef_weights=None, *,
                  max_sweeps=WLS_SWEEP_MAX, tol=WLS_SWEEP_TOL):
    """Exact solve of the weighted L1-penalized least squares

        (1/(2n)) sum_i w_i (z_i - b0 - x_i' beta)^2
            + lam * sum_k cw_k |beta_k|

    with an unpenalized intercept, by the kernel in ``qmgm.lasso``: the
    weighted means are profiled out, and an active-set method started at
    beta solves the covariance form and is accepted once its KKT residual
    is certified.  When an active-set system is singular or the step cap
    is hit, coordinate-descent sweeps from beta (stopping when no slope
    moves by tol or more, at most max_sweeps) take over.  Mutates and
    returns beta; also returns the work done (linear solves plus fallback
    sweeps) and whether the KKT residual is certified.  With all row
    weights zero the slopes are zero and b0 is returned as passed.
    """
    m = X.shape[1]
    cw = np.ones(m) if coef_weights is None else np.asarray(coef_weights, float)
    gram = wls_gram(X, w, z)
    if gram is None:
        beta[:] = 0.0
        return b0, beta, 0, True
    G, c, ok, xbar, zbar = gram
    work, converged = lasso_solve(G, c, ok, beta, lam * cw, max_sweeps, tol)
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
    z = problem.field.thresholds
    pi = problem.field.pi
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


def _penalty(lam: float, beta: np.ndarray) -> float:
    """lam * sum_k |beta_k|, exactly rounded whatever the column order."""
    return lam * math.fsum(np.abs(beta))


def _smooth_eval(problem: NodeProblem, b0: float, beta: np.ndarray, tau: float,
                 need_grad: bool):
    # Sums over the coefficients add their nonzero terms in sorted order,
    # and the gradient entry of column k reads column k only, so permuting
    # the predictor columns permutes the result bit for bit.
    nz = np.flatnonzero(beta)
    lp = b0 + np.sort(problem.X[:, nz] * beta[nz], axis=1).sum(axis=1)
    eta, deta = _link_inverse(lp, problem.link)
    g_val, g_slope = problem.field.evaluate(eta)
    r = g_val - tau
    val = float(r @ r) / problem.n
    if not need_grad:
        return val, None, None
    d = (2.0 / problem.n) * r * g_slope * deta
    return val, float(d.sum()), (problem.X * d[:, None]).sum(axis=0)


def smooth_objective(problem: NodeProblem, intercept: float, beta, tau: float) -> float:
    """Mean squared implicit-equation residual (no penalty)."""
    beta = np.asarray(beta, dtype=float)
    return _smooth_eval(problem, float(intercept), beta, tau, False)[0]


def smooth_gradient(problem: NodeProblem, intercept: float, beta, tau: float) -> np.ndarray:
    """Gradient of the smooth term, intercept first; uses the right-hand
    segment slope at interpolation knots and zero slope where the
    interpolator clamp is active."""
    beta = np.asarray(beta, dtype=float)
    _, g0, g = _smooth_eval(problem, float(intercept), beta, tau, True)
    return np.concatenate(([g0], g))


def objective(problem: NodeProblem, intercept: float, beta, config: NodeFitConfig) -> float:
    """Penalized objective; the intercept is unpenalized."""
    beta = np.asarray(beta, dtype=float)
    return (smooth_objective(problem, intercept, beta, config.tau)
            + _penalty(config.lam, beta))


def _descend(problem, tau, lam, b0, beta, *, max_iterations, tol,
             slopes_frozen=False, track=False):
    """Backtracking proximal-gradient loop; returns the last accepted iterate.

    The trial step per iteration comes from the Barzilai-Borwein ratio of
    the last two (point, gradient) pairs, which tracks the wildly varying
    local curvature of the piecewise-quadratic smooth term; halving line
    search then enforces monotone descent.
    """
    pen = _penalty(lam, beta)
    sval, g0, g = _smooth_eval(problem, b0, beta, tau, True)
    fval = sval + pen
    trace = [fval] if track else None
    converged = False
    step = STEP_INIT
    it = 0
    prev_point = None
    prev_grad = None
    while it < max_iterations:
        it += 1
        if prev_point is not None:
            s0, sb = b0 - prev_point[0], beta - prev_point[1]
            y0, yb = g0 - prev_grad[0], g - prev_grad[1]
            sy = s0 * y0 + math.fsum(sb * yb)
            if sy > 0:
                ss = s0 * s0 + math.fsum(sb * sb)
                step = min(max(ss / sy, STEP_MIN), STEP_MAX)
            else:
                step = min(step * STEP_GROW, STEP_MAX)
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            nb0 = b0 - step * g0
            if slopes_frozen:
                nbeta = beta
            else:
                nbeta = soft_threshold(beta - step * g, step * lam)
            npen = _penalty(lam, nbeta)
            nsval, _, _ = _smooth_eval(problem, nb0, nbeta, tau, False)
            nfval = nsval + npen
            if nfval <= fval:
                accepted = True
                break
            step *= 0.5
            if step < STEP_MIN:
                break
        if not accepted:
            # a stall, not convergence: every trial step raised the objective
            break
        delta = max(abs(nb0 - b0),
                    float(np.max(np.abs(nbeta - beta), initial=0.0)))
        prev_point = (b0, beta)
        prev_grad = (g0, g)
        b0, beta, fval = nb0, nbeta, nfval
        if track:
            trace.append(nfval)
        if delta < tol:
            converged = True
            break
        _, g0, g = _smooth_eval(problem, b0, beta, tau, True)
    return b0, beta, fval, it, converged, trace


def null_fit(problem: NodeProblem, tau: float) -> NodeFitResult:
    """Intercept-only fit with all slopes pinned at zero.

    The intercept starts at the link transform of the marginal mid-quantile
    of the response at tau, which already solves the intercept-only implicit
    equation whenever tau lies inside the marginal mid-probability range.
    """
    b0 = _link_forward(marginal_mid_quantile(problem.y, tau), problem.link)
    beta = np.zeros(problem.m)
    b0, beta, fval, it, conv, _ = _descend(
        problem, tau, 0.0, b0, beta,
        max_iterations=200, tol=NULL_FIT_TOL, slopes_frozen=True)
    return NodeFitResult(float(b0), beta, float(fval), it, conv,
                         np.empty(0, dtype=int))


def lambda_max(problem: NodeProblem, tau: float) -> float:
    """Smallest penalty that keeps every slope at exactly zero: max_k
    |grad_k| of the smooth term at the intercept-only optimum."""
    base = null_fit(problem, tau)
    grad = smooth_gradient(problem, base.intercept, base.beta, tau)[1:]
    return float(np.abs(grad).max(initial=0.0))


def fit_node_quantile(problem: NodeProblem, config: NodeFitConfig,
                      init: NodeFitResult | None = None) -> NodeFitResult:
    """Solve the penalized node problem by proximal gradient descent.

    Cold starts begin at the null fit (slopes zero, intercept optimized);
    warm starts begin at a previous result's coefficients.  Either way the
    first trial step is STEP_INIT.  Hitting the iteration cap of
    MAX_ITERATIONS returns the last iterate flagged unconverged.
    """
    if init is None:
        base = null_fit(problem, config.tau)
        b0, beta = base.intercept, np.zeros(problem.m)
    else:
        if init.beta.shape != (problem.m,):
            raise DataError("warm start has the wrong number of coefficients")
        b0, beta = init.intercept, np.array(init.beta)
    b0, beta, fval, it, conv, trace = _descend(
        problem, config.tau, config.lam, b0, beta,
        max_iterations=MAX_ITERATIONS, tol=CONVERGENCE_TOL,
        track=config.track_objective)
    active = np.flatnonzero(np.abs(beta) > NONZERO_TOL)
    return NodeFitResult(float(b0), beta, float(fval), it, conv, active,
                         None if trace is None else np.asarray(trace))


def fit_lambda_path(problem: NodeProblem, tau: float, lambdas) -> LambdaPath:
    """Fit a strictly decreasing lambda sequence with warm starts by the
    inverse route: the per-row-inverted implicit equation is solved by
    penalized weighted least squares (see the module docstring).  ``work``
    counts the kernel's linear solves plus any fallback sweeps.

    With fewer than 2 solvable rows every point is the intercept-only
    answer in closed form: the link transform of the marginal mid-quantile
    (``null_fit``'s start value), zero slopes, no work, converged."""
    lambdas = _check_lambda_grid(lambdas)
    targets, solvable = inverse_midquantile_targets(problem, tau)
    if solvable.sum() >= 2:
        return LambdaPath(*wls_path(problem.X, solvable.astype(float), targets, lambdas))
    M = lambdas.size
    b0 = _link_forward(marginal_mid_quantile(problem.y, tau), problem.link)
    return LambdaPath(np.full(M, b0), np.zeros((M, problem.m)),
                      np.zeros(M, dtype=int), np.ones(M, dtype=bool))
