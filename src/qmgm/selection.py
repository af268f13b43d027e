"""Neighborhood-selection orchestration: fit every (node, level, lambda)
combination, extract edge sets by the max/OR rule, and score lambdas with
quantile-loss information criteria."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import (CoefficientCube, DataError, Dataset, EstimatedGraph,
                   NONZERO_TOL, QuantileGrid, SIGN_ABSENT, SIGN_UNDEFINED,
                   _check_lambda_grid, _check_threads, _check_tolerance,
                   _one_blas_thread, _pin_blas_threads, quantile_loss)
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


CRITERION_NAMES = ("aic", "bic", "bicp", "bic2p", "bic3p")


def build_problems(dataset: Dataset) -> list:
    """Run the threshold-logit step for every node of a validated dataset
    in one stacked solve: one ``NodeProblem`` per node, in order, which
    several level grids can share.

    It runs on one BLAS thread: a threaded OpenBLAS product rounds
    differently from a single-threaded one, and the step must give the
    same bits in a serial run and in a replication worker of a process
    pool, whose BLAS is pinned to one thread (see ``_pool_map``).
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


def _pool_map(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in order, over ``threads`` worker processes.

    The pool starts min(threads, len(tasks)) workers; with one worker the
    tasks run serially here and this helper leaves BLAS alone.  While a
    pool runs, the parent and every worker use one BLAS thread: idle
    OpenBLAS helper threads spin and take the cores the workers need.  The
    parent's count is restored on exit, also when a task raises.  Stage 1
    never runs in the node pool: it runs once per dataset over all nodes
    in the calling process, on one BLAS thread (``build_problems``),
    and the node pool fits lambda paths only.
    """
    _check_threads(threads)
    tasks = list(tasks)
    workers = min(threads, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    # A forked worker inherits the count of 1 with OpenBLAS's thread server
    # stopped by the fork; the initializer sets only a count that differs, so
    # it starts no helper threads there and still pins a spawned worker.
    with _one_blas_thread(), ProcessPoolExecutor(
            max_workers=workers, initializer=_pin_blas_threads) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def _paths_worker(args):
    """The lambda paths of the given (problem, tau) pairs, in one batch."""
    pairs, lambdas = args
    return fit_lambda_paths(pairs, lambdas)


def fit_qmgm(dataset: Dataset, grid: QuantileGrid, lambdas, *,
             threads: int = 1, problems: list | None = None) -> CoefficientCube:
    """Fit penalized mid-quantile regressions for every node, level and
    lambda; lambdas must be finite, nonnegative and strictly decreasing
    (paths are warm-started), which is checked before any fitting.

    ``problems`` may carry prebuilt per-node mid-CDF fits so several level
    grids can share the expensive first step; without them the first step
    runs here, once over all nodes (``build_problems``).  Shared problems
    also share lambda paths: each problem keeps the paths fitted on it, and
    a (node, level) path already fitted on the same lambda grid is reused,
    not refitted, so nested level grids fit each distinct path once.
    Every path is solved by the inverse route
    (``penalized.fit_lambda_paths``), and ``CoefficientCube.from_paths``
    stacks the paths into the cube.  The nodes with missing paths are split
    into min(threads, nodes) chunks, and each chunk is one task that fits
    all its missing paths in one batched call; with ``threads`` > 1 the
    tasks run in a process pool under the BLAS pin of ``_pool_map``.
    Results do not depend on ``threads``; ``threads`` < 1 raises DataError.
    """
    lambdas = _check_lambda_grid(lambdas)
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    levels = list(grid.levels)
    if problems is None:
        problems = build_problems(dataset)
    keys = [(float(tau), lambdas.tobytes()) for tau in levels]
    todo = [cells for pr in problems if (cells := [(pr, k) for k in keys if k not in pr._paths])]
    n = min(threads, len(todo))
    chunks = [sum(todo[len(todo) * i // n:len(todo) * (i + 1) // n], []) for i in range(n)]
    tasks = [([(pr, k[0]) for pr, k in chunk], lambdas) for chunk in chunks]
    for chunk, paths in zip(chunks, _pool_map(_paths_worker, tasks, threads)):
        for (pr, k), path in zip(chunk, paths):
            pr._paths[k] = path
    return CoefficientCube.from_paths([[pr._paths[k] for k in keys] for pr in problems],
                                      lambdas, levels)


def _coefficient_tensor(cube: CoefficientCube, lambda_index: int) -> np.ndarray:
    """B[j, l, k] = coefficient of node k in node j's regression."""
    p, L = cube.p, cube.n_levels
    B = np.zeros((p, L, p))
    for j in range(p):
        others = np.concatenate((np.arange(j), np.arange(j + 1, p)))
        B[j][:, others] = cube.betas[j, :, lambda_index, :]
    return B


def estimate_edge_set(cube: CoefficientCube, lambda_index: int,
                      tolerance: float = NONZERO_TOL) -> EstimatedGraph:
    """Edge (j, k) is present when either direction's coefficient exceeds
    the tolerance in absolute value at any level (max/OR rule); the edge
    strength is that maximum and the sign comes from the attaining
    coefficients (undefined when the two directions disagree).  A negative
    or non-finite tolerance raises DataError."""
    _check_tolerance(tolerance)
    B = _coefficient_tensor(cube, lambda_index)
    p = cube.p
    absB = np.abs(B)
    D = absB.max(axis=1)                      # (p, p) directional max over levels
    arg_l = absB.argmax(axis=1)               # attaining level per direction
    rows = np.arange(p)[:, None]
    cols = np.arange(p)[None, :]
    at_max = B[rows, arg_l, cols]             # attaining signed coefficient
    sgn_dir = np.sign(at_max).astype(np.int8)

    strength = np.maximum(D, D.T)
    np.fill_diagonal(strength, 0.0)
    adjacency = strength > tolerance
    strength = np.where(adjacency, strength, 0.0)

    exceeds = D > tolerance
    np.fill_diagonal(exceeds, False)
    sign = np.full((p, p), SIGN_ABSENT, dtype=np.int8)
    both = exceeds & exceeds.T
    agree = sgn_dir == sgn_dir.T
    sign[both & agree] = sgn_dir[both & agree]
    sign[both & ~agree] = SIGN_UNDEFINED
    fwd_only = exceeds & ~exceeds.T
    sign[fwd_only] = sgn_dir[fwd_only]
    sign[fwd_only.T] = sgn_dir.T[fwd_only.T]
    sign[~adjacency] = SIGN_ABSENT

    J = np.broadcast_to(rows, (p, p))
    K = np.broadcast_to(cols, (p, p))
    attained = np.where(D > D.T, J, np.where(D.T > D, K, np.minimum(J, K)))
    attained = np.where(adjacency, attained, -1)
    level_at = np.where(attained == J, arg_l, arg_l.T)
    prov_tau = np.where(adjacency, cube.tau_levels[level_at], np.nan)
    return EstimatedGraph(adjacency, strength, sign, prov_tau, attained)


def _complexity(kind: str, cn: float, n: int, p: int) -> float:
    if kind == "aic":
        return 2.0 / (2.0 * n)
    return float(np.log(n) * np.log(p - 1) * cn / (2.0 * n))


def quantile_losses(cube: CoefficientCube, dataset: Dataset) -> np.ndarray:
    """loss[j, l, m]: summed quantile loss of node j's regression at level l
    and lambda m, with residuals against the bare linear predictor
    (``CoefficientCube.linear_predictors``)."""
    loss = np.zeros(cube.intercepts.shape)
    for j in range(cube.p):
        y, lp = cube.linear_predictors(dataset, j)
        for l, tau in enumerate(cube.tau_levels):
            loss[j, l] = quantile_loss(y - lp[l], float(tau)).sum(axis=1)
    return loss


def score_path(cube: CoefficientCube, losses: np.ndarray,
               criterion: SelectionCriterion, n: int, *,
               nonzero_tol: float = NONZERO_TOL) -> np.ndarray:
    """Criterion scores along the whole lambda grid from the block losses
    ``losses[j, l, m]`` of an n-row fit (``quantile_losses``, or
    ``mgm.deviance_losses`` for the mean-based baseline).

    Per (node, level) block: the log of its loss plus nu times the
    complexity per coefficient, where nu is the block's active-set size;
    that is ln(n) ln(p-1) cn / (2n) for the BIC and 2 / (2n) for the AIC.
    """
    with np.errstate(over="ignore"):
        per_coef = _complexity(criterion.kind, criterion.cn, n, cube.p)
    if not np.isfinite(per_coef):
        raise DataError(f"criterion complexity per coefficient is not finite "
                        f"(cn={criterion.cn:g})")
    nu = np.count_nonzero(np.abs(cube.betas) > nonzero_tol, axis=3)
    blocks = (np.log(losses + BIC_EPS_GUARD) + nu * per_coef).reshape(-1, cube.n_lambdas)
    # A running sum adds the blocks node by node, level by level, at every
    # grid size; a plain sum turns pairwise when there is a single lambda.
    return np.cumsum(blocks, axis=0)[-1]


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
