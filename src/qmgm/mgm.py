"""Mean-based mixed graphical model baseline: per-node L1-penalized GLM
neighborhood regressions (gaussian, binomial or poisson by variable kind),
stored as a one-level coefficient cube so the shared edge-extraction and
scoring machinery applies unchanged.  ``fit_mgm`` is the one entry point."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .core import CoefficientCube, DataError, Dataset, _check_lambda_grid
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


def _gaussian_paths(X, y, families, lambdas):
    """The stacked paths of the gaussian nodes among P nodes, given as for
    ``_count_paths``, through one ``wls_paths`` call: one outer iteration
    per point.  The Gram forms are made for all P nodes and the gaussian
    ones kept, so zbar reads each response in y's own layout."""
    gram = [field[families == "gaussian"] for field in wls_gram(X, np.ones(y.shape), y)]
    intercepts, betas, work, converged = wls_paths(gram, lambdas)
    return intercepts, betas, np.ones_like(work), converged


def _count_paths(X, y, families, lambdas):
    """The stacked paths of the binomial and poisson nodes among P nodes of
    equal width, with predictors X (P, n, m), responses y (P, n) and family
    names ``families`` (P,), by proximal Newton warm-started along the
    lambdas.  Each outer iteration forms the running nodes' working weights
    and responses in one array pass and takes their reweighted steps
    through one ``penalized_wls`` call; a node leaves the batch once its
    iterates settle, so each path equals the one its node gives alone.  A
    point is converged when the iterates settle and the last inner solve
    is certified."""
    count = families != "gaussian"
    X, y, binomial = X[count], y[count], families[count] == "binomial"
    P, M, m = len(X), lambdas.size, X.shape[2]
    intercepts, betas = np.zeros((P, M)), np.zeros((P, M, m))
    work, converged = np.full((P, M), OUTER_MAX_ITER), np.zeros((P, M), dtype=bool)
    # start at the intercept-only fits: the canonical link of each clamped mean
    mean = np.clip(y.mean(axis=1), 1e-10, np.where(binomial, 1 - 1e-10, np.inf))
    b0 = np.log(mean / np.where(binomial, 1 - mean, 1.0))
    beta = np.zeros((P, m))
    for i, lam in enumerate(lambdas):
        run = np.arange(P)
        for it in range(1, OUTER_MAX_ITER + 1):
            lp = b0[run, None] + np.matmul(X[run], beta[run, :, None])[:, :, 0]
            clipped = np.clip(lp, -LP_CLIP, LP_CLIP)
            mu = np.where(binomial[run, None], expit(clipped), np.exp(clipped))
            w = np.clip(np.where(binomial[run, None], mu * (1.0 - mu), mu), 1e-6, None)
            nbeta = beta[run]
            nb0, _, inner_conv = penalized_wls(X[run], w, lp + (y[run] - mu) / w, nbeta, lam)
            delta = np.maximum(np.abs(nb0 - b0[run]),
                               np.abs(nbeta - beta[run]).max(axis=1, initial=0.0))
            b0[run], beta[run] = nb0, nbeta
            settled = delta < OUTER_TOL
            converged[run[settled], i] = inner_conv[settled]
            work[run[settled], i] = it
            run = run[~settled]
            if not run.size:
                break
        intercepts[:, i], betas[:, i] = b0, beta
    return intercepts, betas, work, converged


def fit_mgm(dataset: Dataset, lambdas) -> CoefficientCube:
    """Fit the baseline on every node and pack the paths as a cube with a
    single pseudo quantile level, so edge extraction and lambda selection
    reuse the shared code path.  The gaussian nodes advance through one
    batched kernel call, one outer iteration per point; the binomial and
    poisson nodes step through proximal Newton in lockstep.  Each batch's
    stacked paths fill the cube rows of its nodes.  The lambda grid is
    checked before any fitting."""
    lambdas = _check_lambda_grid(lambdas)
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    p, M, values = dataset.p, lambdas.size, dataset.values
    families = np.array([family_for(spec.kind).name for spec in dataset.schema])
    # node j regresses column j, a strided row of values.T, on the others
    X = np.array([np.delete(values, j, axis=1) for j in range(p)])
    fields = (np.zeros((p, 1, M)), np.zeros((p, 1, M, p - 1)),
              np.zeros((p, 1, M), dtype=int), np.zeros((p, 1, M), dtype=bool))
    gaussian = families == "gaussian"
    for rows, paths in ((gaussian, _gaussian_paths), (~gaussian, _count_paths)):
        for field, part in zip(fields, paths(X, values.T, families, lambdas)):
            field[rows, 0] = part
    intercepts, betas, work, converged = fields
    return CoefficientCube(intercepts, betas, lambdas, [0.5], converged, work)


def deviance_losses(cube: CoefficientCube, dataset: Dataset) -> np.ndarray:
    """loss[j, 0, m]: family deviance of node j's regression at lambda m, the
    block loss the shared information criteria use for this baseline."""
    loss = np.zeros(cube.intercepts.shape)
    for j in range(cube.p):
        family = family_for(dataset.schema[j].kind)
        y, lp = cube.linear_predictors(dataset, j)
        loss[j] = glm_deviance(family, y, family.mean(lp))
    return loss
