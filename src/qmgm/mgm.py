"""Mean-based mixed graphical model baseline: per-node L1-penalized GLM
neighborhood regressions (gaussian, binomial or poisson by variable kind),
stored as a one-level coefficient cube so the shared edge-extraction and
scoring machinery applies unchanged.  ``fit_mgm`` is the one entry point.
The count nodes' proximal Newton shares its iteration cap, tolerance and
clips with stage 1's threshold logits (``core.IRLS_MAX_ITER``,
``IRLS_TOL``, ``MU_CLIP`` and ``LP_CLIP``)."""

from __future__ import annotations

import numpy as np

from .core import (IRLS_MAX_ITER, IRLS_TOL, LP_CLIP, MU_CLIP, CoefficientCube, DataError,
                   Dataset, _check_lambda_grid)
from .lasso import wls_gram, wls_paths
from .penalized import penalized_wls

FAMILY_BY_KIND = {
    "continuous": "gaussian",
    "count": "poisson",
    "binary": "binomial",
}


def _count_mean(binomial, lp: np.ndarray) -> np.ndarray:
    """Mean of a count node at linear predictor lp: the inverse canonical
    link of the clipped predictor, expit where ``binomial`` is true (it
    broadcasts against lp) and exp, the poisson one, elsewhere."""
    from scipy.special import expit  # imported here: `qmgm fit` loads no SciPy

    clipped = np.clip(lp, -LP_CLIP, LP_CLIP)
    return np.where(binomial, expit(clipped), np.exp(clipped))


def glm_deviance(family: str, y: np.ndarray, mu: np.ndarray):
    """Deviance of the family named ``family`` (gaussian, binomial or
    poisson) between observations y (n,) and fitted means mu (..., n),
    summed over the last axis: one deviance per row of mu.  Any other name
    raises DataError."""
    from scipy.special import xlogy  # imported here: `qmgm fit` loads no SciPy

    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family == "gaussian":
        return np.sum((y - mu) ** 2, axis=-1)
    if family == "binomial":
        mu = np.clip(mu, MU_CLIP, 1.0 - MU_CLIP)
        dev = xlogy(y, y / mu) + xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))
        return 2.0 * np.sum(dev, axis=-1)
    if family == "poisson":
        mu = np.clip(mu, MU_CLIP, None)
        return 2.0 * np.sum(xlogy(y, y / mu) - (y - mu), axis=-1)
    raise DataError(f"unknown GLM family {family!r}")


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
    work, converged = np.full((P, M), IRLS_MAX_ITER), np.zeros((P, M), dtype=bool)
    # start at the intercept-only fits: the canonical link of each clamped mean
    mean = np.clip(y.mean(axis=1), MU_CLIP, np.where(binomial, 1 - MU_CLIP, np.inf))
    b0 = np.log(mean / np.where(binomial, 1 - mean, 1.0))
    beta = np.zeros((P, m))
    for i, lam in enumerate(lambdas):
        run = np.arange(P)
        for it in range(1, IRLS_MAX_ITER + 1):
            lp = b0[run, None] + np.matmul(X[run], beta[run, :, None])[:, :, 0]
            mu = _count_mean(binomial[run, None], lp)
            w = np.clip(np.where(binomial[run, None], mu * (1.0 - mu), mu), 1e-6, None)
            nbeta = beta[run]
            nb0, _, inner_conv = penalized_wls(X[run], w, lp + (y[run] - mu) / w, nbeta, lam)
            delta = np.maximum(np.abs(nb0 - b0[run]),
                               np.abs(nbeta - beta[run]).max(axis=1, initial=0.0))
            b0[run], beta[run] = nb0, nbeta
            settled = delta < IRLS_TOL
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
    families = np.array([FAMILY_BY_KIND[spec.kind] for spec in dataset.schema])
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
    block loss the shared information criteria use for this baseline; the
    fitted means are the linear predictors for a gaussian node and
    ``_count_mean`` of them for a count node."""
    loss = np.zeros(cube.intercepts.shape)
    for j, spec in enumerate(dataset.schema):
        family = FAMILY_BY_KIND[spec.kind]
        y, lp = cube.linear_predictors(dataset, j)
        mu = lp if family == "gaussian" else _count_mean(family == "binomial", lp)
        loss[j] = glm_deviance(family, y, mu)
    return loss
