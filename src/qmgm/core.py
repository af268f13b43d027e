"""Shared domain types: variable schemas, datasets, quantile grids, fitted
coefficient cubes and estimated graphs, plus validation/standardization."""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

KINDS = ("continuous", "count", "binary")
LINKS = ("identity", "log", "logit")
# The links each kind may use, its default first.  A continuous column is
# standardized before it is fitted, so a log or logit link would see
# standardized values: only identity is allowed.
KIND_LINKS = {"continuous": ("identity",), "count": ("log", "identity"), "binary": ("logit",)}

# Largest number of threshold points retained per node; columns with more
# distinct values are thinned to equally spaced empirical percentiles.
MAX_THRESHOLDS = 100

# |beta| above this counts as a nonzero coefficient (edge evidence).
NONZERO_TOL = 1e-6

# Newton/IRLS safeguards shared by stage 1 and the mgm count nodes: the
# iteration cap, the largest |step| that settles a fit, how far fitted
# means stay inside their range, and the linear predictor's clip before exp.
IRLS_MAX_ITER = 100
IRLS_TOL = 1e-8
MU_CLIP = 1e-10
LP_CLIP = 30.0

SIGN_ABSENT = 0
SIGN_POSITIVE = 1
SIGN_NEGATIVE = -1
SIGN_UNDEFINED = 2
SIGN_LABELS = {
    SIGN_ABSENT: "absent",
    SIGN_POSITIVE: "positive",
    SIGN_NEGATIVE: "negative",
    SIGN_UNDEFINED: "undefined",
}
SIGN_CODES = {v: k for k, v in SIGN_LABELS.items()}


class DataError(ValueError):
    """Invalid input data or schema (CLI exit code 2)."""


def _check_tolerance(tol) -> None:
    """DataError unless the edge tolerance ``tol`` is finite and >= 0."""
    if not 0.0 <= tol < np.inf:
        raise DataError(f"tolerance must be finite and >= 0, got {tol}")


def _check_threads(threads: int) -> None:
    """DataError unless the worker count ``threads`` is at least 1."""
    if threads < 1:
        raise DataError(f"threads must be at least 1, got {threads}")


def _readonly(a: np.ndarray, order: str = "K") -> np.ndarray:
    a = np.array(a, copy=True, order=order)
    a.setflags(write=False)
    return a


@functools.cache
def _blas_thread_controls() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS library mapped
    into this process; empty when none is found (or /proc is absent)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields
                    if len(f) == 6 and "openblas" in os.path.basename(f[5])})
    names = ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
             "openblas_{}_num_threads")
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            try:
                get = getattr(lib, name.format("get"))
                put = getattr(lib, name.format("set"))
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            controls.append((get, put))
            break
    return tuple(controls)


def _set_blas_threads(counts) -> None:
    """Set each BLAS library of this process to its count in ``counts``.

    A library already at its count is left alone: OpenBLAS's set call
    starts its thread server whenever it is stopped, so in a forked worker
    (whose server the fork handler stopped) even setting 1 thread again
    would start a helper thread per extra core, which spins idle."""
    for (get, put), count in zip(_blas_thread_controls(), counts):
        if get() != count:
            put(count)


def _pin_blas_threads() -> None:
    """Set every BLAS library of this process to one thread."""
    _set_blas_threads([1] * len(_blas_thread_controls()))


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread; each library's previous count is
    restored on exit, also when the block raises."""
    previous = [get() for get, _ in _blas_thread_controls()]
    _pin_blas_threads()
    try:
        yield
    finally:
        _set_blas_threads(previous)


@dataclass(frozen=True, eq=False)
class VariableSpec:
    """Per-node metadata: measurement kind, link, and threshold grid.

    The threshold grid is the ordered set of points at which the conditional
    distribution of this node is modelled; it is populated from the observed
    distinct values by :func:`validate_and_standardize`.
    """

    name: str
    kind: str
    link: str = ""
    threshold_grid: np.ndarray | None = None
    domain: str = ""

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown variable kind {self.kind!r} for {self.name!r}")
        link = self.link or KIND_LINKS[self.kind][0]
        if link not in LINKS:
            raise DataError(f"unknown link {link!r} for {self.name!r}")
        if link not in KIND_LINKS[self.kind]:
            raise DataError(f"{self.kind} variable {self.name!r} cannot use the {link} link")
        object.__setattr__(self, "link", link)
        if self.threshold_grid is not None:
            grid = np.asarray(self.threshold_grid, dtype=float)
            if grid.ndim != 1 or grid.size == 0:
                raise DataError(f"threshold grid of {self.name!r} must be a 1-d sequence")
            if not np.all(np.diff(grid) > 0):
                raise DataError(f"threshold grid of {self.name!r} must be strictly increasing")
            if self.kind == "binary" and not set(grid).issubset({0.0, 1.0}):
                raise DataError(f"binary variable {self.name!r} has thresholds outside {{0,1}}")
            if self.kind == "count" and np.any(grid < 0):
                raise DataError(f"count variable {self.name!r} has negative thresholds")
            object.__setattr__(self, "threshold_grid", _readonly(grid))

    def with_grid(self, grid: np.ndarray) -> "VariableSpec":
        return VariableSpec(self.name, self.kind, self.link, grid, self.domain)


@dataclass(frozen=True, eq=False)
class Dataset:
    """n x p numeric table, stored C-ordered, with schema and missing mask."""

    values: np.ndarray
    schema: tuple
    missing_mask: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DataError("dataset values must be a 2-d array")
        n, p = values.shape
        if n < 2 or p < 2:
            raise DataError(f"dataset needs n >= 2 and p >= 2, got n={n}, p={p}")
        schema = tuple(self.schema)
        if len(schema) != p:
            raise DataError(f"schema length {len(schema)} does not match p={p}")
        mask = self.missing_mask
        mask = np.zeros((n, p), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
        if mask.shape != (n, p):
            raise DataError("missing mask shape does not match values")
        # one layout for every caller: numpy reductions follow the layout
        object.__setattr__(self, "values", _readonly(values, order="C"))
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "missing_mask", _readonly(mask))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def names(self) -> tuple:
        return tuple(s.name for s in self.schema)

    def column(self, j: int) -> np.ndarray:
        """Non-missing values of column j."""
        return self.values[~self.missing_mask[:, j], j]

    def has_missing(self) -> bool:
        return bool(self.missing_mask.any())


@dataclass(frozen=True)
class QuantileGrid:
    """Ordered quantile levels, all strictly inside (0, 1)."""

    levels: tuple

    def __post_init__(self):
        levels = tuple(float(t) for t in self.levels)
        if len(levels) < 1:
            raise DataError("quantile grid needs at least one level")
        if any(not 0.0 < t < 1.0 for t in levels):
            raise DataError("quantile levels must lie strictly inside (0, 1)")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise DataError("quantile levels must be strictly increasing")
        object.__setattr__(self, "levels", levels)


def standard_levels(count: int) -> QuantileGrid:
    """Conventional symmetric grid for a given number of levels.

    count = 1 gives the median, 3 the quartiles, 7 the octiles; the
    17-level grid is the 0.1, 0.15, ..., 0.9 sequence; any other count L
    uses i/(L+1), i = 1..L.
    """
    if count < 1:
        raise DataError("level count must be >= 1")
    if count == 17:
        levels = [round(0.1 + 0.05 * i, 10) for i in range(17)]
    else:
        levels = [i / (count + 1) for i in range(1, count + 1)]
    return QuantileGrid(tuple(levels))


def quantile_loss(u, tau):
    """Asymmetric absolute loss u * (tau - 1{u < 0}), elementwise over u and
    the levels tau, which broadcast against each other; every level must
    lie inside (0, 1)."""
    tau = np.asarray(tau, dtype=float)
    if not np.all((0.0 < tau) & (tau < 1.0)):
        raise DataError(f"tau must be inside (0, 1), got {tau}")
    u = np.asarray(u, dtype=float)
    out = u * (tau - (u < 0))
    return float(out) if out.ndim == 0 else out


def derive_threshold_grid(values: np.ndarray) -> np.ndarray:
    """Ordered distinct values of a column, thinned to at most
    MAX_THRESHOLDS points at equally spaced empirical percentiles.

    Thinned grids keep actual observed values (lower-interpolation
    percentiles) so the grid stays inside the observed range.
    """
    distinct = np.unique(np.asarray(values, dtype=float))
    if distinct.size <= MAX_THRESHOLDS:
        return distinct
    qs = np.linspace(0.0, 1.0, MAX_THRESHOLDS)
    grid = np.quantile(np.asarray(values, dtype=float), qs, method="lower")
    return np.unique(grid)


def validate_and_standardize(raw: Dataset) -> Dataset:
    """Validate a raw dataset and return the modelling-ready version.

    Continuous columns are centered and scaled to unit standard deviation
    (over non-missing entries); discrete columns are left untouched.
    Threshold grids are derived from the observed distinct values of each
    column after standardization.

    Raises DataError for constant columns, non-finite entries, binary
    columns with values outside {0, 1}, or negative count columns.
    """
    values = np.array(raw.values, copy=True)
    mask = raw.missing_mask
    new_schema = []
    for j, spec in enumerate(raw.schema):
        obs = ~mask[:, j]
        col = values[obs, j]
        if col.size == 0:
            raise DataError(f"column {spec.name!r} is entirely missing")
        if not np.all(np.isfinite(col)):
            raise DataError(f"column {spec.name!r} contains non-finite values")
        if np.all(col == col[0]):
            raise DataError(f"constant column {spec.name!r}")
        if spec.kind == "binary":
            if not set(np.unique(col)).issubset({0.0, 1.0}):
                raise DataError(f"binary column {spec.name!r} has values outside {{0, 1}}")
        elif spec.kind == "count":
            if np.any(col < 0):
                raise DataError(f"count column {spec.name!r} has negative values")
        else:
            col = (col - np.mean(col)) / np.std(col)
            values[obs, j] = col
        new_schema.append(spec.with_grid(derive_threshold_grid(col)))
    return Dataset(values, tuple(new_schema), mask)


def _check_lambda_grid(lambdas) -> np.ndarray:
    """The lambda grid as a float array; DataError unless it is a nonempty
    1-d sequence of finite, nonnegative, strictly decreasing values."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.ndim != 1 or lambdas.size == 0:
        raise DataError("lambda grid must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(lambdas)):
        raise DataError("lambda values must be finite")
    if np.any(lambdas < 0):
        raise DataError("lambda values must be nonnegative")
    if lambdas.size > 1 and not np.all(np.diff(lambdas) < 0):
        raise DataError("lambda grid must be strictly decreasing")
    return lambdas


@dataclass(frozen=True, eq=False)
class CoefficientCube:
    """Fitted coefficients indexed by (node, quantile level, lambda).

    ``betas[j, l, m]`` is the (p-1)-vector of slopes for node j at level
    ``tau_levels[l]`` and penalty ``lambda_grid[m]``; predictor index k maps
    to node k when k < j and node k+1 otherwise.
    """

    intercepts: np.ndarray      # (p, L, M)
    betas: np.ndarray           # (p, L, M, p-1)
    lambda_grid: np.ndarray     # (M,), strictly decreasing
    tau_levels: np.ndarray      # (L,)
    converged: np.ndarray       # (p, L, M) bool
    iterations: np.ndarray      # (p, L, M) int

    def __post_init__(self):
        p, L, M = np.asarray(self.intercepts).shape
        if np.asarray(self.betas).shape != (p, L, M, p - 1):
            raise DataError("coefficient cube dimensions are inconsistent")
        if _check_lambda_grid(self.lambda_grid).shape != (M,):
            raise DataError("lambda grid does not match cube")
        if np.asarray(self.tau_levels).shape != (L,):
            raise DataError("tau level axis does not match cube")
        if not (np.all(np.isfinite(self.intercepts)) and np.all(np.isfinite(self.betas))):
            raise DataError("coefficient cube contains non-finite coefficients")
        for name in ("intercepts", "betas", "lambda_grid", "tau_levels",
                     "converged", "iterations"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def p(self) -> int:
        return self.intercepts.shape[0]

    @property
    def n_levels(self) -> int:
        return self.intercepts.shape[1]

    @property
    def n_lambdas(self) -> int:
        return self.intercepts.shape[2]

    def linear_predictors(self, dataset: Dataset, j: int):
        """Node j's response y (n,) and its linear predictors
        lp[l, m] = b0 + X_j @ beta (L, M, n) on the rows of ``dataset``,
        from one stacked matrix-vector product over all blocks; each block
        gets the bits of its own ``X_j @ beta``."""
        X = np.delete(dataset.values, j, axis=1)
        fitted = np.matmul(X, self.betas[j][..., None])[..., 0]
        return dataset.values[:, j], self.intercepts[j][..., None] + fitted


@dataclass(frozen=True, eq=False)
class EstimatedGraph:
    """Symmetric estimated graph with per-edge strength, sign and provenance.

    ``attained_by[j, k]`` is the node whose regression attained the pair's
    maximum coefficient (-1 where no edge); ``prov_tau`` the level at which
    it was attained (NaN where no edge).
    """

    adjacency: np.ndarray       # (p, p) bool
    strength: np.ndarray        # (p, p) float
    sign: np.ndarray            # (p, p) int8, see SIGN_LABELS
    prov_tau: np.ndarray        # (p, p) float
    attained_by: np.ndarray     # (p, p) int

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        p = adj.shape[0]
        if adj.shape != (p, p) or not np.array_equal(adj, adj.T) or adj.diagonal().any():
            raise DataError("adjacency must be symmetric with a false diagonal")
        strength = np.asarray(self.strength, dtype=float)
        if np.any((strength > 0) != adj):
            raise DataError("strength must be positive exactly on edges")
        sign = np.asarray(self.sign)
        if np.any((sign == SIGN_ABSENT) != ~adj):
            raise DataError("sign must be 'absent' exactly off edges")
        for name in ("adjacency", "strength", "sign", "prov_tau", "attained_by"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def p(self) -> int:
        return self.adjacency.shape[0]

    @property
    def n_edges(self) -> int:
        return int(np.triu(self.adjacency, 1).sum())

    def edges(self):
        """Yield (j, k, strength, sign_label, tau, attained_by) for j < k."""
        p = self.p
        for j in range(p):
            for k in range(j + 1, p):
                if self.adjacency[j, k]:
                    yield (j, k, float(self.strength[j, k]),
                           SIGN_LABELS[int(self.sign[j, k])],
                           float(self.prov_tau[j, k]), int(self.attained_by[j, k]))
