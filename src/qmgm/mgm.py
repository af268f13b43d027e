"""Mean-based mixed graphical model baseline: per-node L1-penalized GLM
neighborhood regressions (gaussian, binomial or poisson by variable kind),
stored as a one-level coefficient cube so the shared edge-extraction and
scoring machinery applies unchanged.  ``fit_mgm`` is the one entry point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .core import CoefficientCube, DataError, Dataset, LambdaPath, _check_lambda_grid
from .lasso import wls_gram, wls_paths
from .penalized import penalized_wls

OUTER_MAX_ITER = 100
OUTER_TOL = 1e-8
LP_CLIP = 30.0

FAMILY_BY_KIND = {
    "continuous": "gaussian",
    "count": "poisson",
    "binary": "binomial",
}


@dataclass(frozen=True)
class GlmFamily:
    """Exponential family with its canonical link."""

    name: str

    def __post_init__(self):
        if self.name not in ("gaussian", "binomial", "poisson"):
            raise DataError(f"unknown GLM family {self.name!r}")

    def mean(self, lp: np.ndarray) -> np.ndarray:
        if self.name == "gaussian":
            return lp
        if self.name == "binomial":
            return expit(np.clip(lp, -LP_CLIP, LP_CLIP))
        return np.exp(np.clip(lp, -LP_CLIP, LP_CLIP))

    def variance(self, mu: np.ndarray) -> np.ndarray:
        if self.name == "gaussian":
            return np.ones_like(mu)
        if self.name == "binomial":
            return np.clip(mu * (1.0 - mu), 1e-6, None)
        return np.clip(mu, 1e-6, None)


def family_for(kind: str) -> GlmFamily:
    """Family assignment is a pure function of the variable kind."""
    if kind not in FAMILY_BY_KIND:
        raise DataError(f"unknown variable kind {kind!r}")
    return GlmFamily(FAMILY_BY_KIND[kind])


def glm_deviance(family: GlmFamily, y: np.ndarray, mu: np.ndarray):
    """Family deviance between observations y (n,) and fitted means mu
    (..., n), summed over the last axis: one deviance per row of mu."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family.name == "gaussian":
        return np.sum((y - mu) ** 2, axis=-1)
    if family.name == "binomial":
        mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
        dev = xlogy(y, y / mu) + xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))
        return 2.0 * np.sum(dev, axis=-1)
    mu = np.clip(mu, 1e-10, None)
    return 2.0 * np.sum(xlogy(y, y / mu) - (y - mu), axis=-1)


def _gaussian_paths(nodes, lambdas) -> list:
    """The paths of the gaussian nodes (y, X), of equal width, through one
    ``wls_paths`` call: one outer iteration per point."""
    ones = np.ones(lambdas.size, dtype=int)
    return [LambdaPath(intercepts, betas, ones, converged) for intercepts, betas, _, converged
            in wls_paths([wls_gram(X, np.ones(y.size), y) for y, X in nodes], lambdas)]


def _proximal_newton_path(y, X, family, lambdas):
    """The arrays (intercepts, betas, outer iterations, converged) over the
    lambdas of a binomial or poisson node, warm-started along the path:
    proximal Newton, iteratively reweighted quadratic approximations each
    solved by ``penalized_wls``.  A point counts as converged when the
    outer iterates settle and the last inner solve is certified."""
    M = lambdas.size
    intercepts, betas = np.zeros(M), np.zeros((M, X.shape[1]))
    work, converged = np.zeros(M, dtype=int), np.zeros(M, dtype=bool)
    beta = np.zeros(X.shape[1])
    if family.name == "binomial":
        pbar = min(max(y.mean(), 1e-10), 1 - 1e-10)
        b0 = float(np.log(pbar / (1 - pbar)))
    else:
        b0 = float(np.log(max(y.mean(), 1e-10)))
    for i, lam in enumerate(lambdas):
        for it in range(1, OUTER_MAX_ITER + 1):
            lp = b0 + X @ beta
            mu = family.mean(lp)
            w = family.variance(mu)
            z = lp + (y - mu) / w
            nb0, nbeta, _, inner_conv = penalized_wls(X, w, z, b0, np.array(beta), float(lam))
            delta = max(abs(nb0 - b0), float(np.max(np.abs(nbeta - beta), initial=0.0)))
            b0, beta = nb0, nbeta
            if delta < OUTER_TOL:
                converged[i] = inner_conv
                break
        intercepts[i], betas[i], work[i] = b0, beta, it
    return intercepts, betas, work, converged


def fit_mgm(dataset: Dataset, lambdas) -> CoefficientCube:
    """Fit the baseline on every node and pack the paths as a cube with a
    single pseudo quantile level, so edge extraction and lambda selection
    reuse the shared code path.  The gaussian nodes advance through one
    batched kernel call, one outer iteration per point; each binomial or
    poisson node runs its own proximal-Newton path.  The lambda grid is
    checked before any fitting."""
    lambdas = _check_lambda_grid(lambdas)
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    def node(j):
        return dataset.values[:, j], np.delete(dataset.values, j, axis=1)

    families = [family_for(spec.kind) for spec in dataset.schema]
    gaussian = [j for j, family in enumerate(families) if family.name == "gaussian"]
    fitted = dict(zip(gaussian, _gaussian_paths(map(node, gaussian), lambdas)))
    paths = [[fitted[j] if j in fitted
              else LambdaPath(*_proximal_newton_path(*node(j), families[j], lambdas))]
             for j in range(dataset.p)]
    return CoefficientCube.from_paths(paths, lambdas, [0.5])


def deviance_losses(cube: CoefficientCube, dataset: Dataset) -> np.ndarray:
    """loss[j, 0, m]: family deviance of node j's regression at lambda m, the
    block loss the shared information criteria use for this baseline."""
    loss = np.zeros(cube.intercepts.shape)
    for j in range(cube.p):
        family = family_for(dataset.schema[j].kind)
        y, lp = cube.linear_predictors(dataset, j)
        loss[j] = glm_deviance(family, y, family.mean(lp))
    return loss
