"""Synthetic structure-recovery benchmark.

A ten-node mixed network (five continuous, five discrete nodes) is sampled
from a chain of conditional quantile models; learners are run across Monte
Carlo replications and scored against the known twelve-edge truth with
ROC/AUC along the penalty path and confusion metrics at the selected
penalty.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .analysis import pair_counts, stacked_pair_counts
from .core import (DataError, Dataset, NONZERO_TOL, QuantileGrid,
                   VariableSpec, _check_lambda_grid, _check_threads, _check_tolerance,
                   _one_blas_thread, _pin_blas_threads, _readonly,
                   standard_levels, validate_and_standardize)
from .mgm import deviance_losses, fit_mgm
from .penalized import fit_lambda_paths
from .selection import (CRITERION_NAMES, SelectionCriterion, build_problems,
                        edge_adjacencies, fit_qmgm, quantile_losses, score_path,
                        select_lambda)

# The generator's variables: Y1-Y5 continuous, Y6-Y10 counts.
GENERATOR_SCHEMA = tuple(VariableSpec(f"Y{j}", "continuous" if j <= 5 else "count")
                         for j in range(1, 11))

# Dependency structure of the generator: node -> parents (1-based).
MAIN_EDGES = ((1, 2), (1, 3), (1, 5), (1, 6), (2, 8), (3, 4),
              (3, 7), (5, 7), (5, 8), (7, 8), (8, 9), (9, 10))


@dataclass(frozen=True)
class DgpVariant:
    """Generator kind ('main', the only one), sample size, and seed."""

    kind: str = "main"
    n: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.kind != "main":
            raise DataError(f"unknown generator variant {self.kind!r}")
        if self.n < 10:
            raise DataError("variant needs n >= 10")
        if self.seed < 0:
            raise DataError("variant needs seed >= 0")


def true_graph() -> np.ndarray:
    """Twelve-edge truth of the generator: a read-only (10, 10) bool adjacency."""
    adj = np.zeros((10, 10), dtype=bool)
    for a, b in MAIN_EDGES:
        adj[a - 1, b - 1] = adj[b - 1, a - 1] = True
    return _readonly(adj)


def poisson_quantile(u, rate):
    """Poisson quantile by direct CDF search: smallest m with CDF(m) >= u."""
    u = np.asarray(u, dtype=float)
    rate = np.broadcast_to(np.asarray(rate, dtype=float), u.shape).copy()
    out = np.zeros(u.shape)
    pmf = np.exp(-rate)
    cdf = pmf.copy()
    unresolved = cdf < u
    m = 0
    while unresolved.any():
        m += 1
        if m > 100000:
            raise DataError("poisson quantile search exceeded its support cap")
        pmf *= rate / m
        cdf += pmf
        done = unresolved & (cdf >= u)
        out[done] = m
        unresolved &= ~done
    return out


def generate_sample(variant: DgpVariant):
    """Draw one dataset from the benchmark generator.

    Each row draws ten independent uniforms feeding the conditional quantile
    formulas in node order; the three discrete-uniform noise terms are drawn
    independently afterwards.  Identical seeds give bit-identical samples.
    The inverse CDFs are the ``scipy.special`` ufuncs that the
    ``scipy.stats`` distributions call (t, gamma, normal).  They are
    imported here, on the first draw, so importing qmgm loads no SciPy and
    ``simulate`` loads ``scipy.special`` alone, never ``scipy.stats``.
    """
    from scipy import special

    rng = np.random.default_rng(variant.seed)
    n = variant.n
    U = np.clip(rng.random((n, 10)), 1e-15, 1.0 - 1e-16)
    du6 = rng.integers(1, 4, n).astype(float)
    du8 = rng.integers(1, 4, n).astype(float)
    du9 = rng.integers(1, 6, n).astype(float)

    y = np.zeros((n, 10))
    y[:, 0] = special.stdtrit(3, U[:, 0])
    y1 = y[:, 0]
    y[:, 1] = -0.5 * U[:, 1] ** 2 * (y1 + 3.0)
    y[:, 2] = y1 + special.gammaincinv(np.abs(y1) + 0.1, U[:, 2]) * 0.5
    y3 = y[:, 2]
    y[:, 3] = 0.1 * (y3 + 5.0) ** 2 * np.sqrt(np.abs(y3 + 5.0)) * special.ndtri(U[:, 3])
    y[:, 4] = (2.0 * np.cos(np.pi * y1 / 4.0) * (U[:, 4] - 0.5) * (y1 + 2.0)
               + (0.1 + 0.1 * np.abs(y1)) * special.ndtri(U[:, 4]))
    y5 = y[:, 4]
    y[:, 5] = np.floor((U[:, 5] + 0.5) * np.abs(y1)) + du6
    rate7 = np.abs(y3 + 5.0) ** -0.5 + np.abs(np.log(np.abs(y5) + 1.0))
    y[:, 6] = poisson_quantile(U[:, 6], rate7)
    y7 = y[:, 6]
    y[:, 7] = (np.floor(U[:, 7] * y7 + np.abs(y[:, 1] + 0.5) ** 1.3)
               + du8 * np.floor(1.0 + np.abs(y5)))
    y[:, 8] = np.floor(1.0 + U[:, 8] * y[:, 7]) + du9
    y9 = y[:, 8]
    rate10 = np.exp(0.8 * U[:, 9] * np.log(np.abs(y9 + 0.1)))
    y[:, 9] = poisson_quantile(U[:, 9], rate10)

    return Dataset(y, GENERATOR_SCHEMA), true_graph()


@dataclass(frozen=True)
class RecoveryMetrics:
    """Confusion-based structure recovery scores over unordered node pairs."""

    precision: float
    tpr: float
    fpr: float
    f1: float
    mcc: float
    accuracy: float


def metrics_from_counts(tp: int, fp: int, tn: int, fn: int) -> RecoveryMetrics:
    """Zero denominators yield a zero metric by convention."""
    def ratio(num, den):
        return num / den if den > 0 else 0.0

    mcc_den = np.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return RecoveryMetrics(
        precision=ratio(tp, tp + fp),
        tpr=ratio(tp, tp + fn),
        fpr=ratio(fp, fp + tn),
        f1=ratio(2 * tp, 2 * tp + fp + fn),
        mcc=float((tp * tn - fp * fn) / mcc_den) if mcc_den > 0 else 0.0,
        accuracy=ratio(tp + tn, tp + fp + tn + fn),
    )


def confusion_metrics(truth, estimate) -> RecoveryMetrics:
    return metrics_from_counts(*pair_counts(truth, estimate))


def roc_curve(truth, graphs):
    """ROC points along a penalty path plus the envelope AUC.

    One (FPR, TPR) point per graph or adjacency (per slice of an (M, p, p)
    stack) plus (0, 0) and (1, 1); the AUC integrates the monotone upper
    envelope (points sorted by FPR, cumulative-max TPR) by trapezoids.  The
    pair counts of all slices come from one ``stacked_pair_counts`` pass.
    """
    pts = [(0.0, 0.0)]
    for counts in zip(*(c.tolist() for c in stacked_pair_counts(truth, graphs))):
        m = metrics_from_counts(*counts)
        pts.append((m.fpr, m.tpr))
    pts.append((1.0, 1.0))
    pts = np.asarray(pts)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    fpr = pts[order, 0]
    tpr = np.maximum.accumulate(pts[order, 1])
    auc = float(np.trapezoid(tpr, fpr))
    return pts, auc


@dataclass(frozen=True)
class LearnerConfig:
    """A named learner: 'mgm' or 'qmgm<L>' for an L-level quantile grid;
    every spelling of the same L ('qmgm03', 'qmgm 3') is named 'qmgm3'."""

    name: str
    kind: str
    levels: QuantileGrid | None = None

    @classmethod
    def from_name(cls, name: str) -> "LearnerConfig":
        name = name.strip().lower()
        if name == "mgm":
            return cls("mgm", "mgm")
        if name.startswith("qmgm"):
            try:
                count = int(name[4:])
            except ValueError:
                raise DataError(f"unknown learner {name!r}") from None
            return cls(f"qmgm{count}", "qmgm", standard_levels(count))
        raise DataError(f"unknown learner {name!r}")


def default_lambda_grid(lo: float = 0.001, hi: float = 5.0, count: int = 50) -> np.ndarray:
    """Log-equispaced penalty grid, returned in decreasing order."""
    if not 0 < lo < hi < np.inf:
        raise DataError(f"lambda grid needs finite 0 < lo < hi, got lo={lo} hi={hi}")
    if count < 1:
        raise DataError("lambda grid needs at least one value")
    if count == 1:
        return np.asarray([hi])
    return np.exp(np.linspace(np.log(hi), np.log(lo), count))


def run_learner(dataset: Dataset, truth: np.ndarray, learner: LearnerConfig,
                lambdas, *, nonzero_tol: float, fitted) -> dict:
    """Fit one learner on one dataset: path AUC plus the selection of every
    criterion in ``CRITERION_NAMES``, and how many of the cube's ``points``
    are ``uncertified`` (not certified converged).  A qmgm learner slices
    ``fitted``, a cube of the dataset at a superset of its levels, when
    given (``fit_qmgm``); ``seconds`` excludes fitting it."""
    start = time.perf_counter()
    if learner.kind == "qmgm":
        cube = fit_qmgm(dataset, learner.levels, lambdas, fitted=fitted)
        losses = quantile_losses(cube, dataset)
    else:
        cube = fit_mgm(dataset, lambdas)
        losses = deviance_losses(cube, dataset)
    adjacencies = edge_adjacencies(cube, nonzero_tol)
    _, auc = roc_curve(truth, adjacencies)
    crits = [SelectionCriterion.from_name(cname, dataset.p) for cname in CRITERION_NAMES]
    scores = score_path(cube, losses, crits, dataset.n, nonzero_tol=nonzero_tol)
    by_criterion = {}
    for cname, row in zip(CRITERION_NAMES, scores):
        mi, lam = select_lambda(row, lambdas)
        rec = asdict(confusion_metrics(truth, adjacencies[mi]))
        rec["edges"] = int(np.triu(adjacencies[mi], 1).sum())
        rec["lambda"] = lam
        by_criterion[cname] = rec
    return {"auc": auc, "seconds": time.perf_counter() - start,
            "criteria": by_criterion,
            "uncertified": int(np.count_nonzero(~cube.converged)),
            "points": int(cube.converged.size)}


def _replication_worker(args):
    index, variant, learners, lambdas, nonzero_tol, sample_fn = args
    try:
        dataset, truth = (sample_fn or generate_sample)(variant)
        dataset = validate_and_standardize(dataset)
        levels = sorted({tau for lc in learners if lc.kind == "qmgm" for tau in lc.levels.levels})
        fitted = fit_lambda_paths(build_problems(dataset), levels, lambdas) if levels else None
        record = {lc.name: run_learner(dataset, truth, lc, lambdas,
                                       nonzero_tol=nonzero_tol, fitted=fitted)
                  for lc in learners}
        return index, variant.seed, record, None
    except Exception as exc:  # noqa: BLE001 - failures are recorded, not fatal
        return index, variant.seed, None, f"{type(exc).__name__}: {exc}"


def _pool_map(fn, tasks, threads: int) -> list:
    """[fn(t) for t in tasks], in order, over ``threads`` worker processes;
    ``simulate`` runs its replications through it.

    The pool starts min(threads, len(tasks)) workers; with one worker the
    tasks run serially here and this helper leaves BLAS alone.  While a
    pool runs, the parent and every worker use one BLAS thread: idle
    OpenBLAS helper threads spin and take the cores the workers need.  The
    parent's count is restored on exit, also when a task raises.
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


METRIC_FIELDS = ("precision", "tpr", "fpr", "f1", "mcc", "accuracy", "edges")
SUMMARY_FIELDS = ("learner", "criterion", "metric", "median", "p10", "p90")
DETAIL_FIELDS = ("replication", "seed", "learner", "criterion", "metric", "value")


@dataclass
class BenchmarkRun:
    """Replication records plus the tables read off them."""

    variant: DgpVariant    # replication r ran on seed variant.seed + r
    R: int
    learner_names: tuple
    lambdas: np.ndarray
    tolerance: float       # edge tolerance of every edge set and score
    threads: int           # worker processes the replications ran on
    records: list          # (index, seed, record) for successes
    failures: list         # (index, seed, message)

    def facts(self):
        """Every (replication, seed, learner, criterion, metric, value) of
        the successful replications once, in record order: per learner the
        path ``auc`` and ``seconds``, then each criterion's metrics and
        ``lambda``."""
        for index, seed, rec in self.records:
            for learner in self.learner_names:
                yield index, seed, learner, "path", "auc", rec[learner]["auc"]
                yield index, seed, learner, "path", "seconds", rec[learner]["seconds"]
                for cname in CRITERION_NAMES:
                    for metric in METRIC_FIELDS + ("lambda",):
                        yield (index, seed, learner, cname, metric,
                               rec[learner]["criteria"][cname][metric])

    def _quantile_rows(self, metrics) -> list:
        """Median, p10 and p90 over the replications of each (learner,
        criterion, metric) with a metric in ``metrics``, in fact order."""
        values = {}
        for _, _, learner, cname, metric, value in self.facts():
            if metric in metrics:
                values.setdefault((learner, cname, metric), []).append(value)
        return [{"learner": learner, "criterion": cname, "metric": metric,
                 "median": float(np.median(v)), "p10": float(np.percentile(v, 10)),
                 "p90": float(np.percentile(v, 90))}
                for (learner, cname, metric), v in values.items()]

    def summary_rows(self) -> list:
        """Per learner: path AUC row plus one row per criterion and metric."""
        return self._quantile_rows(("auc",) + METRIC_FIELDS)

    def timing_rows(self) -> list:
        return self._quantile_rows(("seconds",))

    def detail_rows(self) -> list:
        return [dict(zip(DETAIL_FIELDS, fact)) for fact in self.facts()
                if fact[4] != "seconds"]

    def config_digest(self) -> str:
        payload = {
            "variant": self.variant.kind, "n": self.variant.n,
            "seed": self.variant.seed,
            "R": self.R, "learners": list(self.learner_names),
            "criteria": list(CRITERION_NAMES),
            "lambdas": [float(v) for v in self.lambdas],
            "tolerance": self.tolerance,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def write_outputs(run: BenchmarkRun, outdir: str):
    """Write summary/timing/detail tables, the truth document and the
    manifest into a directory.  Wall-clock lives in its own file so the
    summary stays byte-identical across reruns of the same config.  The
    manifest's ``uncertified_points`` line gives each learner's (node,
    level, lambda) points that are not certified converged, over all its
    points, summed over the successful replications."""
    import os

    from .io import document_from_adjacency, export_graph, write_rows_csv

    os.makedirs(outdir, exist_ok=True)
    write_rows_csv(run.summary_rows(), SUMMARY_FIELDS,
                   os.path.join(outdir, "summary.csv"))
    write_rows_csv(run.timing_rows(), SUMMARY_FIELDS,
                   os.path.join(outdir, "timing.csv"))
    write_rows_csv(run.detail_rows(), DETAIL_FIELDS,
                   os.path.join(outdir, "details.csv"))
    export_graph(document_from_adjacency(GENERATOR_SCHEMA, true_graph()),
                 os.path.join(outdir, "truth.json"))
    lam, seed = run.lambdas, run.variant.seed
    uncertified = ",".join(
        f"{name}={sum(rec[name]['uncertified'] for _, _, rec in run.records)}"
        f"/{sum(rec[name]['points'] for _, _, rec in run.records)}"
        for name in run.learner_names)
    manifest = [
        f"config_digest: {run.config_digest()}",
        f"variant: {run.variant.kind}",
        f"n: {run.variant.n}",
        f"R: {run.R}",
        f"base_seed: {seed}",
        f"learners: {','.join(run.learner_names)}",
        f"criteria: {','.join(CRITERION_NAMES)}",
        f"lambda_grid: max={lam[0]:.12g} min={lam[-1]:.12g} count={lam.size}",
        f"tolerance: {run.tolerance:.12g}",
        f"threads: {run.threads}",
        f"replication_seeds: {','.join(str(seed + r) for r in range(run.R))}",
        f"uncertified_points: {uncertified}",
        f"failures: {len(run.failures)}",
    ]
    manifest += [f"failure: replication={i} seed={s} error={msg}"
                 for i, s, msg in run.failures]
    with open(os.path.join(outdir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")


def run_replications(learner_names, variant: DgpVariant, R: int, *, lambdas,
                     nonzero_tol: float = NONZERO_TOL, threads: int = 1,
                     sample_fn=None) -> BenchmarkRun:
    """Run R Monte Carlo replications (replication r uses seed base + r),
    each scoring every criterion in ``CRITERION_NAMES`` along ``lambdas``.

    Individual replication failures are recorded and excluded from the
    summaries.  With ``threads`` > 1 the replications run in a process pool
    under the BLAS pin of ``_pool_map``; results are independent
    of the thread count.  ``threads`` < 1, a negative or non-finite
    ``nonzero_tol`` and a lambda grid that is not finite, nonnegative and
    strictly decreasing raise DataError before any replication runs.
    """
    _check_tolerance(nonzero_tol)
    if R < 1:
        raise DataError("R must be >= 1")
    lambdas = _check_lambda_grid(lambdas)
    learners = tuple(LearnerConfig.from_name(nm) for nm in learner_names)
    if len({lc.name for lc in learners}) < len(learners):
        raise DataError(f"a learner is given more than once: {','.join(learner_names)}")
    tasks = [(r, replace(variant, seed=variant.seed + r), learners, lambdas,
              nonzero_tol, sample_fn) for r in range(R)]
    records, failures = [], []
    for index, seed, record, error in _pool_map(_replication_worker, tasks, threads):
        if error is None:
            records.append((index, seed, record))
        else:
            failures.append((index, seed, error))
    return BenchmarkRun(variant, R, tuple(lc.name for lc in learners), lambdas,
                        float(nonzero_tol), threads, records, failures)
