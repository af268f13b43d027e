"""Neighborhood-selection orchestration: fit every (node, level, lambda)
combination, extract edge sets by the max/OR rule, and score lambdas with
quantile-loss information criteria."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CoefficientCube, DataError, Dataset, EstimatedGraph,
                   NONZERO_TOL, QuantileGrid, SIGN_ABSENT, SIGN_UNDEFINED,
                   _check_lambda_grid, _check_tolerance, _one_blas_thread,
                   _readonly, quantile_loss)
from .midcdf import build_field, fit_threshold_logits
from .penalized import NodeProblem, fit_lambda_paths

BIC_EPS_GUARD = 1e-12


@dataclass(frozen=True)
class SelectionCriterion:
    """AIC, or the quantile-loss BIC with complexity constant cn."""

    kind: str
    cn: float = 1.0

    def __post_init__(self):
        if self.kind not in ("aic", "bic"):
            raise DataError(f"unknown criterion kind {self.kind!r}")
        if self.kind == "bic" and not self.cn > 0:
            raise DataError("BIC requires cn > 0")

    @classmethod
    def from_name(cls, name: str, p: int, cn: float | None = None) -> "SelectionCriterion":
        """Named presets: aic, bic (cn=1), bicp (cn=log(p-1)), bic2p, bic3p."""
        name = name.lower()
        if name == "aic":
            if cn is not None:
                raise DataError("criterion 'aic' takes no cn")
            return cls("aic")
        divisors = {"bicp": 1.0, "bic2p": 2.0, "bic3p": 3.0}
        if name != "bic" and name not in divisors:
            raise DataError(f"unknown criterion {name!r}")
        if cn is None and name in divisors:
            if p < 3:
                raise DataError(f"criterion {name!r} needs at least 3 nodes: "
                                f"its cn = log(p - 1) is not positive at p = {p}")
            cn = np.log(p - 1) / divisors[name]
        return cls("bic", float(cn if cn is not None else 1.0))

    def complexity(self, n: int, p: int) -> float:
        """Complexity per coefficient of an n-row fit over p nodes:
        ln(n) ln(p-1) cn / (2n) for the BIC, 2 / (2n) for the AIC.  A value
        that is not finite (cn = inf, or an overflow) raises DataError."""
        with np.errstate(over="ignore"):
            per_coef = (2.0 / (2.0 * n) if self.kind == "aic"
                        else float(np.log(n) * np.log(p - 1) * self.cn / (2.0 * n)))
        if not np.isfinite(per_coef):
            raise DataError(f"criterion complexity per coefficient is not finite "
                            f"(cn={self.cn:g})")
        return per_coef


CRITERION_NAMES = ("aic", "bic", "bicp", "bic2p", "bic3p")


def build_problems(dataset: Dataset) -> list:
    """Run the threshold-logit step for every node of a validated dataset
    in one stacked solve: one ``NodeProblem`` per node, in order, which
    several level grids can share.

    It runs on one BLAS thread: a threaded OpenBLAS product rounds
    differently from a single-threaded one, and the step must give the
    same bits in a serial run and in a replication worker of a process
    pool, whose BLAS is pinned to one thread (see ``benchmark._pool_map``).
    """
    values = dataset.values
    problems = []
    with _one_blas_thread():
        for logits in fit_threshold_logits(dataset):
            j = logits.node
            X = np.delete(values, j, axis=1)
            problems.append(NodeProblem(j, values[:, j], X, dataset.schema[j].link,
                                        build_field(logits, X), logits))
    return problems


def fit_qmgm(dataset: Dataset, grid: QuantileGrid, lambdas, *,
             problems: list | None = None) -> CoefficientCube:
    """Fit penalized mid-quantile regressions for every node, level and
    lambda; lambdas must be finite, nonnegative and strictly decreasing
    (paths are warm-started), which is checked before any fitting.

    ``problems`` may carry prebuilt per-node mid-CDF fits so several level
    grids can share the expensive first step; without them the first step
    runs here, once over all nodes (``build_problems``).  Shared problems
    also share lambda paths: each problem keeps the paths fitted on it, and
    a (node, level) path already fitted on the same lambda grid is reused,
    not refitted, so nested level grids fit each distinct path once.
    The levels some problem lacks are solved by the inverse route in one
    ``penalized.fit_lambda_paths`` call on the (node, level) grid in this
    process; each problem keeps its cells' four rows read-only, so a cached
    path cannot change, and the cube stacks them by node and level.
    """
    lambdas = _check_lambda_grid(lambdas)
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    levels = list(grid.levels)
    if problems is None:
        problems = build_problems(dataset)
    keys = [(float(tau), lambdas.tobytes()) for tau in levels]
    todo = [k for k in keys if any(k not in pr._paths for pr in problems)]
    if todo:
        fields = [_readonly(f) for f in fit_lambda_paths(problems, [k[0] for k in todo], lambdas)]
        for j, pr in enumerate(problems):
            for t, k in enumerate(todo):
                pr._paths[k] = tuple(f[j, t] for f in fields)
    intercepts, betas, work, converged = (
        np.array([[pr._paths[k][f] for k in keys] for pr in problems]) for f in range(4))
    return CoefficientCube(intercepts, betas, lambdas, levels, converged, work)


def _coefficient_tensor(coefs: np.ndarray) -> np.ndarray:
    """B[..., j, k] = coefficient of node k in node j's regression, from
    (p, ..., p-1) slopes; the row-major order of the off-diagonal mask is
    the predictor index map (k < j -> k, k > j -> k - 1)."""
    p = coefs.shape[0]
    B = np.zeros(coefs.shape[1:-1] + (p, p))
    B[..., ~np.eye(p, dtype=bool)] = np.moveaxis(coefs, 0, -2).reshape(B.shape[:-2] + (-1,))
    return B


def edge_adjacencies(cube: CoefficientCube, tolerance: float) -> np.ndarray:
    """(M, p, p) max/OR adjacency stack: slice m is ``estimate_edge_set(cube,
    m, tolerance).adjacency``.  A bad tolerance raises DataError."""
    _check_tolerance(tolerance)
    D = _coefficient_tensor(np.abs(cube.betas).max(axis=1))
    return np.maximum(D, D.swapaxes(1, 2)) > tolerance


def estimate_edge_set(cube: CoefficientCube, lambda_index: int,
                      tolerance: float = NONZERO_TOL) -> EstimatedGraph:
    """Edge (j, k) is present when either direction's coefficient exceeds
    the tolerance in absolute value at any level (max/OR rule); the edge
    strength is that maximum and the sign comes from the attaining
    coefficients (undefined when the two directions disagree).  A negative
    or non-finite tolerance raises DataError."""
    _check_tolerance(tolerance)
    B = _coefficient_tensor(cube.betas[:, :, lambda_index])
    p = cube.p
    absB = np.abs(B)
    D = absB.max(axis=0)                      # (p, p) directional max over levels
    arg_l = absB.argmax(axis=0)               # attaining level per direction
    rows = np.arange(p)[:, None]
    cols = np.arange(p)[None, :]
    at_max = B[arg_l, rows, cols]             # attaining signed coefficient
    sgn_dir = np.sign(at_max).astype(np.int8)

    strength = np.maximum(D, D.T)
    adjacency = strength > tolerance
    strength = np.where(adjacency, strength, 0.0)

    exceeds = D > tolerance
    sign = np.full((p, p), SIGN_ABSENT, dtype=np.int8)
    both = exceeds & exceeds.T
    agree = sgn_dir == sgn_dir.T
    sign[both & agree] = sgn_dir[both & agree]
    sign[both & ~agree] = SIGN_UNDEFINED
    fwd_only = exceeds & ~exceeds.T
    sign[fwd_only] = sgn_dir[fwd_only]
    sign[fwd_only.T] = sgn_dir.T[fwd_only.T]

    J = np.broadcast_to(rows, (p, p))
    K = np.broadcast_to(cols, (p, p))
    attained = np.where(D > D.T, J, np.where(D.T > D, K, np.minimum(J, K)))
    attained = np.where(adjacency, attained, -1)
    level_at = np.where(attained == J, arg_l, arg_l.T)
    prov_tau = np.where(adjacency, cube.tau_levels[level_at], np.nan)
    return EstimatedGraph(adjacency, strength, sign, prov_tau, attained)


def quantile_losses(cube: CoefficientCube, dataset: Dataset) -> np.ndarray:
    """loss[j, l, m]: summed quantile loss of node j's regression at level l
    and lambda m, with residuals against the bare linear predictor
    (``CoefficientCube.linear_predictors``); one loss expression per node
    covers all its levels."""
    taus = cube.tau_levels[:, None, None]
    loss = np.zeros((cube.p, cube.n_levels, cube.n_lambdas))
    for j in range(cube.p):
        y, lp = cube.linear_predictors(dataset, j)
        loss[j] = quantile_loss(y - lp, taus).sum(axis=-1)
    return loss


def score_path(cube: CoefficientCube, losses: np.ndarray, criteria, n: int, *,
               nonzero_tol: float = NONZERO_TOL) -> np.ndarray:
    """Scores (C, M) of C criteria along the whole lambda grid, from the
    block losses ``losses[j, l, m]`` of an n-row fit (``quantile_losses``,
    or ``mgm.deviance_losses`` for the mean-based baseline).

    Per (node, level) block: the log of its loss plus nu times the
    criterion's complexity per coefficient, where nu is the block's
    active-set size (``SelectionCriterion.complexity(n, p)``).  The supports
    and logs are taken once for all criteria.
    """
    per_coef = np.array([crit.complexity(n, cube.p) for crit in criteria], dtype=float)
    shape = (cube.p * cube.n_levels, cube.n_lambdas)
    nu = np.count_nonzero(np.abs(cube.betas) > nonzero_tol, axis=3).reshape(shape)
    blocks = np.log(losses + BIC_EPS_GUARD).reshape(shape) + nu * per_coef[:, None, None]
    # A running sum adds the blocks node by node, level by level, at every
    # grid size; a plain sum turns pairwise when there is a single lambda.
    return np.cumsum(blocks, axis=1)[:, -1]


def select_lambda(scores, lambda_grid):
    """Index and value of the score-minimizing lambda; ties resolve to the
    larger lambda (sparser model)."""
    scores = np.asarray(scores, dtype=float)
    lam = np.asarray(lambda_grid, dtype=float)
    if scores.size == 0 or scores.shape != lam.shape:
        raise DataError("scores and lambda grid must be matching nonempty sequences")
    minimal = np.flatnonzero(scores == scores.min())
    best = minimal[np.argmax(lam[minimal])]
    return int(best), float(lam[best])
