"""Mean-based mixed graphical model baseline: per-node L1-penalized GLM
neighborhood regressions (gaussian, binomial or poisson by variable kind),
stored as a one-level coefficient cube so the shared edge-extraction and
scoring machinery applies unchanged."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, xlogy

from .core import CoefficientCube, DataError, Dataset
from .lasso import wls_path
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

    @property
    def link(self) -> str:
        return {"gaussian": "identity", "binomial": "logit", "poisson": "log"}[self.name]

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


def glm_deviance(family: GlmFamily, y: np.ndarray, mu: np.ndarray) -> float:
    """Family deviance between observations and fitted means."""
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if family.name == "gaussian":
        return float(np.sum((y - mu) ** 2))
    if family.name == "binomial":
        mu = np.clip(mu, 1e-10, 1.0 - 1e-10)
        dev = xlogy(y, y / mu) + xlogy(1.0 - y, (1.0 - y) / (1.0 - mu))
        return float(2.0 * np.sum(dev))
    mu = np.clip(mu, 1e-10, None)
    return float(2.0 * np.sum(xlogy(y, y / mu) - (y - mu)))


def node_lambda_max(y: np.ndarray, X: np.ndarray) -> float:
    """Smallest penalty keeping every slope at zero (all three families
    share this value under their canonical links)."""
    r = y - y.mean()
    return float(np.max(np.abs(X.T @ r)) / y.size) if X.shape[1] else 0.0


def fit_glm_lasso_path(y: np.ndarray, X: np.ndarray, family: GlmFamily, lambdas):
    """Warm-started L1 path for one node; lambdas strictly decreasing.

    A gaussian node is one weighted least-squares lasso along the whole
    path.  Binomial and poisson nodes use proximal Newton: iteratively
    reweighted quadratic approximations, each solved by the same lasso
    kernel.  A point counts as converged when the outer iterates settle and
    the last inner solve is certified.  Returns per-lambda (intercept,
    beta, objective, iterations, converged).
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size > 1 and not np.all(np.diff(lambdas) < 0):
        raise DataError("lambda grid must be strictly decreasing")
    n, m = X.shape
    if family.name == "gaussian":
        fits = [(b0, beta, 1, conv) for b0, beta, _, conv
                in wls_path(X, np.ones(n), y, lambdas, np.ones(m))]
    else:
        fits = _proximal_newton_path(y, X, family, lambdas)
    out = []
    for lam, (b0, beta, it, conv) in zip(lambdas, fits):
        mu = family.mean(b0 + X @ beta)
        obj = glm_deviance(family, y, mu) / (2.0 * n) + float(lam) * float(np.abs(beta).sum())
        out.append((b0, beta, obj, it, conv))
    return out


def _proximal_newton_path(y, X, family, lambdas):
    """(intercept, beta, outer iterations, converged) per lambda of a
    binomial or poisson node, warm-started along the path."""
    beta = np.zeros(X.shape[1])
    if family.name == "binomial":
        pbar = min(max(y.mean(), 1e-10), 1 - 1e-10)
        b0 = float(np.log(pbar / (1 - pbar)))
    else:
        b0 = float(np.log(max(y.mean(), 1e-10)))
    fits = []
    for lam in lambdas:
        conv = False
        it = 0
        for it in range(1, OUTER_MAX_ITER + 1):
            lp = b0 + X @ beta
            mu = family.mean(lp)
            w = family.variance(mu)
            z = lp + (y - mu) / w
            nb0, nbeta, _, inner_conv = penalized_wls(X, w, z, b0, np.array(beta), float(lam))
            delta = max(abs(nb0 - b0), float(np.max(np.abs(nbeta - beta), initial=0.0)))
            b0, beta = nb0, nbeta
            if delta < OUTER_TOL:
                conv = inner_conv
                break
        fits.append((b0, np.array(beta), it, conv))
    return fits


def fit_mgm(dataset: Dataset, lambdas) -> CoefficientCube:
    """Fit the baseline on every node and pack the results as a cube with a
    single pseudo quantile level, so edge extraction and lambda selection
    reuse the shared code path."""
    if dataset.has_missing():
        raise DataError("fitting requires imputed (non-missing) data")
    lambdas = np.asarray(lambdas, dtype=float)
    p = dataset.p
    M = lambdas.size
    intercepts = np.zeros((p, 1, M))
    betas = np.zeros((p, 1, M, p - 1))
    converged = np.zeros((p, 1, M), dtype=bool)
    iterations = np.zeros((p, 1, M), dtype=int)
    objectives = np.zeros((p, 1, M))
    for j in range(p):
        y = dataset.values[:, j]
        X = np.delete(dataset.values, j, axis=1)
        path = fit_glm_lasso_path(y, X, family_for(dataset.schema[j].kind), lambdas)
        for mi, (b0, beta, obj, it, conv) in enumerate(path):
            intercepts[j, 0, mi] = b0
            betas[j, 0, mi] = beta
            objectives[j, 0, mi] = obj
            iterations[j, 0, mi] = it
            converged[j, 0, mi] = conv
    return CoefficientCube(intercepts, betas, lambdas, np.asarray([0.5]),
                           converged, iterations, objectives)


def deviance_losses(cube: CoefficientCube, dataset: Dataset) -> np.ndarray:
    """loss[j, 0, m]: family deviance of node j's regression at lambda m, the
    block loss the shared information criteria use for this baseline."""
    loss = np.zeros(cube.intercepts.shape)
    for j in range(cube.p):
        family = family_for(dataset.schema[j].kind)
        y = dataset.values[:, j]
        X = np.delete(dataset.values, j, axis=1)
        for mi in range(cube.n_lambdas):
            mu = family.mean(cube.intercepts[j, 0, mi] + X @ cube.betas[j, 0, mi])
            loss[j, 0, mi] = glm_deviance(family, y, mu)
    return loss
