"""Neighborhood-selection orchestration: fit every (node, level, lambda)
combination, extract edge sets by the max/OR rule, and score lambdas with
quantile-loss information criteria."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (CoefficientCube, DataError, Dataset, EstimatedGraph,
                   NONZERO_TOL, QuantileGrid, SIGN_UNDEFINED, _check_lambda_grid,
                   _check_tolerance, _one_blas_thread, quantile_loss)
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
            problems.append(NodeProblem(values[:, j], X, dataset.schema[j].link,
                                        build_field(logits, X), logits))
    return problems


def fit_qmgm(dataset: Dataset, grid: QuantileGrid, lambdas, *,
             fitted: CoefficientCube | None = None) -> CoefficientCube:
    """Fit penalized mid-quantile regressions for every node, level and
    lambda; lambdas must be finite, nonnegative and strictly decreasing
    (paths are warm-started), which is checked before any fitting.

    Without ``fitted`` both steps, ``build_problems`` and
    ``penalized.fit_lambda_paths``, run here.  Otherwise the cube is the
    slice of ``fitted``, a cube of the same dataset, at the grid's levels:
    bit for bit the grid's own fit, as a path depends only on its node,
    level and lambda grid.  A level or a lambda grid that ``fitted`` lacks
    raises DataError.
    """
    lambdas = _check_lambda_grid(lambdas)
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    levels = list(grid.levels)
    if fitted is None:
        return fit_lambda_paths(build_problems(dataset), levels, lambdas)
    if not np.array_equal(fitted.lambda_grid, lambdas):
        raise DataError("the fitted cube has another lambda grid")
    index = {float(tau): l for l, tau in enumerate(fitted.tau_levels)}
    if not set(levels) <= set(index):
        raise DataError(f"the fitted cube lacks levels {sorted(set(levels) - set(index))}")
    at = [index[tau] for tau in levels]
    return CoefficientCube(fitted.intercepts[:, at], fitted.betas[:, at], lambdas, levels,
                           fitted.converged[:, at], fitted.iterations[:, at])


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
    """Edge (j, k) is present when either direction's |coefficient| exceeds
    the tolerance at some level (max/OR rule); its strength is that maximum.
    A direction counts when it exceeds the tolerance, with the sign at its
    first maximising level; the edge takes the counting directions' common
    sign, or undefined when they disagree.  The direction that attains the
    maximum (the smaller node on a tie) and its first maximising level give
    ``attained_by`` and ``prov_tau``.  A bad tolerance raises DataError."""
    _check_tolerance(tolerance)
    B = _coefficient_tensor(cube.betas[:, :, lambda_index])
    absB = np.abs(B)
    D, level = absB.max(axis=0), absB.argmax(axis=0)        # (p, p) per direction
    s = np.where(D > tolerance, np.sign(np.take_along_axis(B, level[None], 0)[0]), 0)
    s = s.astype(np.int8)
    sign = np.where(s == s.T, s, np.where(s * s.T < 0, SIGN_UNDEFINED, s + s.T))
    strength = np.maximum(D, D.T)
    adjacency = strength > tolerance
    J, K = np.indices(D.shape)
    own = (D > D.T) | ((D == D.T) & (J <= K))     # direction j attains the pair's max
    prov_tau = np.where(adjacency, cube.tau_levels[np.where(own, level, level.T)], np.nan)
    attained_by = np.where(adjacency, np.where(own, J, K), -1)
    return EstimatedGraph(adjacency, np.where(adjacency, strength, 0.0), sign, prov_tau,
                          attained_by)


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
