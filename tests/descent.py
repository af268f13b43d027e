"""The descent route: a second solver of the penalized implicit equation,
kept as a test oracle.

The package fits a node by the inverse route (``qmgm.penalized.
fit_lambda_paths``).  This module solves the same implicit equation
tau = Gc_i(eta_i) another way: proximal gradient with backtracking line
search on the probability-scale objective

    (1/n) sum_i (tau - Gc_i(eta_i))^2 + lambda * sum_k |beta_k|,

with the intercept unpenalized and accepted iterates never increasing the
objective.  It is the optimizer whose properties acceptance criterion 6
checks (monotone iterates, the gradient against finite differences, the
proximal operator, lambda_max), and it is not library API: ``qmgm fit``
and ``simulate`` never run it.  The squared probability-scale loss weights
rows by the local interpolator slope, which blurs support recovery, so the
package does not use it for fitting.

Gc_i is row i's piecewise-linear interpolation of its mid-probabilities
``problem.pi[i]`` over ``problem.logits.thresholds`` (``interpolate``),
extrapolated with the boundary-segment slope and clamped to [INTERP_CLIP,
1 - INTERP_CLIP].
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from qmgm.core import DataError, NONZERO_TOL, _readonly
from qmgm.midcdf import marginal_mid_quantile
from qmgm.penalized import _link_transform

MAX_ITERATIONS = 500
CONVERGENCE_TOL = 1e-7
NULL_FIT_TOL = 1e-9
STEP_INIT = 1.0
STEP_MIN = 1e-14
STEP_GROW = 2.0
STEP_MAX = 1e6
MAX_BACKTRACKS = 70

# Output clamp for the interpolator when extrapolating beyond the grid.
INTERP_CLIP = 1e-6


class NumericalError(RuntimeError):
    """The oracle's objective went non-finite: its fit cannot be trusted."""


def segments(z: np.ndarray, pi: np.ndarray, eta: np.ndarray):
    """Each row's interpolation segment at its eta, for mid-probabilities
    pi[i, h] at thresholds z[h]: the index h of [z_h, z_{h+1}] (the
    boundary segments extend outward) and the slope
    (pi[i, h+1] - pi[i, h]) / (z_{h+1} - z_h) on it."""
    idx = np.clip(np.searchsorted(z, eta, side="right") - 1, 0, z.size - 2)
    rows = np.arange(eta.size)
    return idx, (pi[rows, idx + 1] - pi[rows, idx]) / (z[idx + 1] - z[idx])


def interpolate(z: np.ndarray, pi: np.ndarray, eta: np.ndarray):
    """Mid-CDF values and local slopes at one eta per row, for
    mid-probabilities pi[i, h] at thresholds z[h] (``midcdf.build_field``).

    Returns (values, slopes); the slope is zero wherever the output clamp
    is active, so it is the exact one-sided derivative of the clamped
    interpolator.
    """
    idx, b = segments(z, pi, eta)
    val = b * (eta - z[idx]) + pi[np.arange(eta.size), idx]
    clamped = (val < INTERP_CLIP) | (val > 1.0 - INTERP_CLIP)
    np.clip(val, INTERP_CLIP, 1.0 - INTERP_CLIP, out=val)
    return val, np.where(clamped, 0.0, b)


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


def _penalty(lam: float, beta: np.ndarray) -> float:
    """lam * sum_k |beta_k|, exactly rounded whatever the column order."""
    return lam * math.fsum(np.abs(beta))


def _smooth_eval(problem, b0: float, beta: np.ndarray, tau: float,
                 need_grad: bool):
    # Sums over the coefficients add their nonzero terms in sorted order,
    # and the gradient entry of column k reads column k only, so permuting
    # the predictor columns permutes the result bit for bit.
    nz = np.flatnonzero(beta)
    lp = b0 + np.sort(problem.X[:, nz] * beta[nz], axis=1).sum(axis=1)
    eta, deta = _link_inverse(lp, problem.link)
    g_val, g_slope = interpolate(problem.logits.thresholds, problem.pi, eta)
    r = g_val - tau
    val = float(r @ r) / problem.y.size
    if not need_grad:
        return val, None, None
    d = (2.0 / problem.y.size) * r * g_slope * deta
    return val, float(d.sum()), (problem.X * d[:, None]).sum(axis=0)


def smooth_objective(problem, intercept: float, beta, tau: float) -> float:
    """Mean squared implicit-equation residual (no penalty)."""
    beta = np.asarray(beta, dtype=float)
    return _smooth_eval(problem, float(intercept), beta, tau, False)[0]


def smooth_gradient(problem, intercept: float, beta, tau: float) -> np.ndarray:
    """Gradient of the smooth term, intercept first; uses the right-hand
    segment slope at interpolation knots and zero slope where the
    interpolator clamp is active."""
    beta = np.asarray(beta, dtype=float)
    _, g0, g = _smooth_eval(problem, float(intercept), beta, tau, True)
    return np.concatenate(([g0], g))


def objective(problem, intercept: float, beta, config: NodeFitConfig) -> float:
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


def null_fit(problem, tau: float) -> NodeFitResult:
    """Intercept-only fit with all slopes pinned at zero.

    The intercept starts at the link transform of the marginal mid-quantile
    of the response at tau, which already solves the intercept-only implicit
    equation whenever tau lies inside the marginal mid-probability range.
    """
    b0 = _link_transform(marginal_mid_quantile(problem.y, tau), problem)
    beta = np.zeros(problem.m)
    b0, beta, fval, it, conv, _ = _descend(
        problem, tau, 0.0, b0, beta,
        max_iterations=200, tol=NULL_FIT_TOL, slopes_frozen=True)
    return NodeFitResult(float(b0), beta, float(fval), it, conv,
                         np.empty(0, dtype=int))


def lambda_max(problem, tau: float) -> float:
    """Smallest penalty that keeps every slope at exactly zero: max_k
    |grad_k| of the smooth term at the intercept-only optimum."""
    base = null_fit(problem, tau)
    grad = smooth_gradient(problem, base.intercept, base.beta, tau)[1:]
    return float(np.abs(grad).max(initial=0.0))


def fit_node_quantile(problem, config: NodeFitConfig,
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
