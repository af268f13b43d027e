import os

import numpy as np
import pytest
from scipy import special, stats

from qmgm import benchmark
from qmgm.benchmark import (DgpVariant, LearnerConfig, _pool_map, confusion_metrics,
                            default_lambda_grid, generate_sample,
                            metrics_from_counts, pair_counts,
                            poisson_quantile, roc_curve, run_replications,
                            true_graph, write_outputs)
from qmgm.core import (DataError, Dataset, EstimatedGraph, VariableSpec,
                       _blas_thread_controls, validate_and_standardize)
from qmgm.selection import build_problems

from bruteforce import auc_oracle, metrics_oracle, pair_counts_oracle


def graph_from_adj(adj):
    adj = np.asarray(adj, dtype=bool)
    p = adj.shape[0]
    strength = np.where(adj, 1.0, 0.0)
    sign = np.where(adj, 1, 0).astype(np.int8)
    return EstimatedGraph(adj, strength, sign, np.full((p, p), np.nan),
                          np.full((p, p), -1, dtype=int))


def random_adj(rng, p, density=0.4):
    up = rng.random((p, p)) < density
    adj = np.triu(up, 1)
    return adj | adj.T


def test_true_graph_has_twelve_edges():
    tg = true_graph()
    assert tg.shape == (10, 10) and tg.dtype == bool
    assert np.triu(tg, 1).sum() == 12
    assert np.array_equal(tg, tg.T) and not tg.diagonal().any()
    assert not tg.flags.writeable


def test_generator_determinism():
    a, _ = generate_sample(DgpVariant("main", 200, 42))
    b, _ = generate_sample(DgpVariant("main", 200, 42))
    assert np.array_equal(a.values, b.values)
    c, _ = generate_sample(DgpVariant("main", 200, 43))
    assert not np.array_equal(a.values, c.values)


def test_generator_column_properties():
    ds, _ = generate_sample(DgpVariant("main", 2000, 5))
    y6 = ds.values[:, 5]
    assert np.all(y6 >= 1.0)
    assert np.all(y6 == np.floor(y6))
    for j in range(5, 10):
        col = ds.values[:, j]
        assert np.all(col == np.floor(col))
        assert np.all(col >= 0)


def test_t3_moments_of_first_node():
    # the sample variance of a t3 column fluctuates heavily (its fourth
    # moment is infinite), so the quantile-based scale is checked as well
    ds, _ = generate_sample(DgpVariant("main", 50000, 18))
    y1 = ds.values[:, 0]
    assert abs(y1.mean()) < 0.05
    assert np.var(y1) == pytest.approx(3.0, rel=0.05)
    q75, q25 = np.percentile(y1, [75, 25])
    assert q75 - q25 == pytest.approx(2 * stats.t.ppf(0.75, 3), rel=0.02)


def test_poisson_quantile_matches_scipy():
    rng = np.random.default_rng(0)
    u = rng.random(500)
    rates = rng.uniform(0.05, 40.0, 500)
    ours = poisson_quantile(u, rates)
    ref = stats.poisson.ppf(u, rates)
    assert np.array_equal(ours, ref)


def test_poisson_quantile_edge_cases():
    assert poisson_quantile(np.array([0.0]), 3.0)[0] == 0.0
    assert poisson_quantile(np.array([1e-12]), 3.0)[0] == 0.0
    assert poisson_quantile(np.array([0.999999]), 0.5)[0] >= 5


def test_generator_inverse_cdfs_equal_scipy_stats():
    # the generator's scipy.special calls are the ones scipy.stats makes;
    # u covers the generator's clip ends and the median
    rng = np.random.default_rng(0)
    u = np.concatenate(([1e-15, 1.0 - 1e-16, 0.5],
                        np.logspace(-15, -1, 57), 1.0 - np.logspace(-16, -1, 57),
                        np.clip(rng.random(400), 1e-15, 1.0 - 1e-16)))
    assert np.array_equal(special.stdtrit(3, u), stats.t.ppf(u, df=3))
    assert np.array_equal(special.ndtri(u), stats.norm.ppf(u))
    # gamma shapes |y1| + 0.1 over [0.1, 50], every shape against every u
    a = np.concatenate((np.linspace(0.1, 50.0, 200), rng.uniform(0.1, 50.0, 100)))
    a, uu = np.meshgrid(a, u)
    assert np.array_equal(special.gammaincinv(a, uu) * 0.5,
                          stats.gamma.ppf(uu, a=a, scale=0.5))


def test_confusion_metrics_perfect():
    tg = true_graph()
    m = confusion_metrics(tg, graph_from_adj(tg))
    assert (m.precision, m.tpr, m.f1, m.mcc, m.accuracy) == (1, 1, 1, 1, 1)
    assert m.fpr == 0


def test_confusion_metrics_hand_example():
    # TP=2 TN=3 FP=1 FN=1 over 7 pairs -> mcc = 5/12
    m = metrics_from_counts(2, 1, 3, 1)
    assert m.mcc == pytest.approx(5 / 12)
    assert m.precision == pytest.approx(2 / 3)
    assert m.tpr == pytest.approx(2 / 3)
    assert m.fpr == pytest.approx(1 / 4)


def test_confusion_metrics_empty_estimate():
    tg = true_graph()
    m = confusion_metrics(tg, graph_from_adj(np.zeros((10, 10))))
    assert m.tpr == 0.0
    assert m.fpr == 0.0
    assert m.accuracy == pytest.approx(33 / 45)
    assert m.precision == 0.0  # zero-denominator convention


def test_pair_counts_rejects_non_square_adjacency():
    with pytest.raises(DataError, match="square"):
        pair_counts(np.zeros((2, 3), bool), np.zeros((2, 3), bool))


def test_metrics_match_bruteforce_oracle():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        p = rng.integers(3, 9)
        t = random_adj(rng, p)
        e = random_adj(rng, p)
        tp, fp, tn, fn = pair_counts(t, e)
        assert (tp, fp, tn, fn) == pair_counts_oracle(t.tolist(), e.tolist())
        got = confusion_metrics(t, e)
        want = metrics_oracle(t.tolist(), e.tolist())
        for name, val in want.items():
            assert getattr(got, name) == pytest.approx(val, abs=1e-12)


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(11)
    t = random_adj(rng, 7)
    e = random_adj(rng, 7)
    perm = rng.permutation(7)
    a = confusion_metrics(t, e)
    b = confusion_metrics(t[np.ix_(perm, perm)], e[np.ix_(perm, perm)])
    assert a == b


def test_roc_random_guess_near_half():
    rng = np.random.default_rng(13)
    t = random_adj(rng, 30, density=0.3)
    graphs = [graph_from_adj(random_adj(rng, 30, d))
              for d in np.linspace(0.02, 0.98, 25)]
    _, auc = roc_curve(t, graphs)
    assert 0.4 < auc < 0.6


def test_roc_nested_perfect_path():
    tg = true_graph()
    edges = list(zip(*np.nonzero(np.triu(tg, 1))))
    adj = np.zeros((10, 10), dtype=bool)
    graphs = []
    for a, b in edges:            # grow the true graph edge by edge
        adj[a, b] = adj[b, a] = True
        graphs.append(graph_from_adj(adj.copy()))
    graphs.append(graph_from_adj(np.ones((10, 10), bool) ^ np.eye(10, dtype=bool)))
    _, auc = roc_curve(tg, graphs)
    assert auc == pytest.approx(1.0)


def _staircase_auc(points):
    pts = sorted((float(f), float(t)) for f, t in points)
    area = best = 0.0
    for (f0, t0), (f1, _) in zip(pts, pts[1:]):
        best = max(best, t0)
        area += (f1 - f0) * best
    return area


def test_roc_matches_bruteforce_and_envelope_monotone():
    # the trapezoid value must match an independent recomputation; path
    # extension monotonicity holds for the step-function envelope (an
    # interior point below a trapezoid chord can lower the interpolated
    # area, so the interpolating version is not monotone)
    rng = np.random.default_rng(19)
    for _ in range(60):
        p = rng.integers(4, 9)
        t = random_adj(rng, p)
        graphs = [graph_from_adj(random_adj(rng, p)) for _ in range(6)]
        pts, auc = roc_curve(t, graphs)
        assert auc == pytest.approx(auc_oracle(pts), abs=1e-12)
        # the graphs as a list and as an (M, p, p) stack give the same bits,
        # and each point is that graph's own confusion metrics
        stacked, stacked_auc = roc_curve(t, np.array([g.adjacency for g in graphs]))
        assert np.array_equal(stacked, pts) and stacked_auc == auc
        assert pts[1:-1].tolist() == [[m.fpr, m.tpr] for m in
                                      (confusion_metrics(t, g) for g in graphs)]
        assert 0.0 <= auc <= 1.0
        more, _ = roc_curve(t, graphs + [graph_from_adj(random_adj(rng, p))])
        assert _staircase_auc(more) >= _staircase_auc(pts) - 1e-12


def test_learner_config_parsing():
    assert LearnerConfig.from_name("mgm").kind == "mgm"
    lc = LearnerConfig.from_name("qmgm7")
    assert lc.kind == "qmgm" and len(lc.levels.levels) == 7
    assert LearnerConfig.from_name("QMGM3").name == "qmgm3"
    with pytest.raises(DataError):
        LearnerConfig.from_name("qmgmX")
    with pytest.raises(DataError):
        LearnerConfig.from_name("glasso")


def test_dgp_variant_accepts_only_main():
    assert DgpVariant("main", 100, 3) == DgpVariant(n=100, seed=3)
    with pytest.raises(DataError):
        DgpVariant("binary", 100, 3)


def test_default_lambda_grid():
    grid = default_lambda_grid()
    assert grid.size == 50
    assert grid[0] == pytest.approx(5.0)
    assert grid[-1] == pytest.approx(0.001)
    assert np.all(np.diff(grid) < 0)
    steps = np.diff(np.log(grid))
    assert np.allclose(steps, steps[0])


@pytest.mark.parametrize("lo, hi", [(0.001, np.inf), (np.nan, 5.0),
                                    (0.001, np.nan), (-np.inf, 5.0)])
def test_default_lambda_grid_rejects_non_finite_bounds(lo, hi):
    with pytest.raises(DataError, match="needs finite 0 < lo < hi"):
        default_lambda_grid(lo, hi)


def test_run_replications_single_equals_summary():
    lambdas = default_lambda_grid(count=6)
    run = run_replications(["mgm"], DgpVariant("main", 120, 3), 1,
                           lambdas=lambdas)
    rows = run.summary_rows()
    _, _, rec = run.records[0]
    auc_row = next(r for r in rows if r["metric"] == "auc")
    assert auc_row["median"] == pytest.approx(rec["mgm"]["auc"])
    assert auc_row["p10"] == pytest.approx(rec["mgm"]["auc"])


def test_run_replications_deterministic_and_thread_invariant():
    lambdas = default_lambda_grid(count=5)
    kw = dict(lambdas=lambdas)
    a = run_replications(["qmgm1"], DgpVariant("main", 100, 9), 3, **kw)
    b = run_replications(["qmgm1"], DgpVariant("main", 100, 9), 3, **kw)
    c = run_replications(["qmgm1"], DgpVariant("main", 100, 9), 3, threads=2, **kw)
    strip = lambda run: [
        {k: v for k, v in r["qmgm1"].items() if k != "seconds"}
        for _, _, r in run.records]
    assert strip(a) == strip(b) == strip(c)
    assert a.config_digest() == b.config_digest()


def _constant_column_sample(variant):
    """A main sample whose last column is constant, which validation rejects."""
    ds, truth = generate_sample(variant)
    values = ds.values.copy()
    values[:, -1] = 1.0
    return Dataset(values, ds.schema), truth


def test_run_replications_records_failures():
    # every replication fails validation and is recorded rather than raised
    run = run_replications(["mgm"], DgpVariant("main", 60, 1), 2,
                           lambdas=[0.5],
                           sample_fn=_constant_column_sample)
    assert len(run.failures) == 2
    assert len(run.records) == 0
    assert "constant column" in run.failures[0][2]


def test_write_outputs_of_a_run_where_every_replication_failed(tmp_path):
    run = run_replications(["qmgm1", "mgm"], DgpVariant("main", 60, 4), 3,
                           lambdas=[0.5],
                           sample_fn=_constant_column_sample)
    write_outputs(run, tmp_path)
    header = "learner,criterion,metric,median,p10,p90\n"
    assert (tmp_path / "summary.csv").read_text() == header
    assert (tmp_path / "timing.csv").read_text() == header
    assert ((tmp_path / "details.csv").read_text()
            == "replication,seed,learner,criterion,metric,value\n")
    manifest = (tmp_path / "manifest.txt").read_text().splitlines()
    assert "failures: 3" in manifest
    assert "replication_seeds: 4,5,6" in manifest
    failed = [line for line in manifest if line.startswith("failure:")]
    assert [line.split(" error=")[0] for line in failed] == [
        f"failure: replication={r} seed={4 + r}" for r in range(3)]
    assert all("constant column" in line for line in failed)


def test_write_outputs_manifest_reads_the_runs_threads(tmp_path):
    run = run_replications(["mgm"], DgpVariant("main", 60, 4), 2, threads=2,
                           lambdas=[0.5], sample_fn=_constant_column_sample)
    write_outputs(run, tmp_path)
    assert "threads: 2" in (tmp_path / "manifest.txt").read_text().splitlines()


def _report_blas_threads(variant):
    """A sample function whose failure message carries the BLAS thread
    counts of the process that ran the replication."""
    raise RuntimeError(f"blas threads {[get() for get, _ in _blas_thread_controls()]}")


def test_replication_pool_pins_blas_to_one_thread_and_restores(blas_threads):
    counts = blas_threads()
    run = run_replications(["mgm"], DgpVariant("main", 60, 1), 2, threads=2,
                           lambdas=[0.5],
                           sample_fn=_report_blas_threads)
    pinned = f"RuntimeError: blas threads {[1] * len(counts)}"
    assert [msg for _, _, msg in run.failures] == [pinned] * 2
    assert blas_threads() == counts


def _report_os_threads_after_stage_one(variant):
    """A sample function that runs stage 1 on the variant's sample, then
    fails with the OS thread count of the process that ran the replication."""
    dataset, _ = generate_sample(variant)
    build_problems(validate_and_standardize(dataset))
    raise RuntimeError(f"os threads {len(os.listdir('/proc/self/task'))}")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_replication_worker_runs_on_one_os_thread_after_stage_one(blas_threads):
    run = run_replications(["mgm"], DgpVariant("main", 60, 1), 2, threads=2,
                           lambdas=[0.5],
                           sample_fn=_report_os_threads_after_stage_one)
    assert [msg for _, _, msg in run.failures] == ["RuntimeError: os threads 1"] * 2


def _worker_blas_threads(_):
    return [get() for get, _ in _blas_thread_controls()]


def _failing_task(index):
    raise RuntimeError(f"task {index} fails")


def test_pool_map_pins_blas_to_one_thread_and_restores(blas_threads, tiny_mixed,
                                                       monkeypatch):
    counts = blas_threads()
    parent_at_start = []
    pool_class = benchmark.ProcessPoolExecutor

    def spy(**kw):
        parent_at_start.append(blas_threads())
        return pool_class(**kw)

    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", spy)
    assert _pool_map(_worker_blas_threads, range(3), 2) == [[1] * len(counts)] * 3
    assert parent_at_start == [[1] * len(counts)]
    # a single task runs here, serially, with the parent's counts untouched
    assert _pool_map(_worker_blas_threads, [0], 2) == [counts]
    ds = validate_and_standardize(tiny_mixed)
    assert blas_threads() == counts
    build_problems(ds)  # stage 1 pins itself, serially too, and restores
    assert blas_threads() == counts
    with pytest.raises(RuntimeError, match="fails"):
        _pool_map(_failing_task, range(2), 2)
    assert blas_threads() == counts


def _worker_os_threads(_):
    return len(os.listdir("/proc/self/task"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_pool_worker_runs_on_one_os_thread(blas_threads):
    # the parent runs 2 BLAS threads; a worker must not start helper threads
    assert _pool_map(_worker_os_threads, range(4), 2) == [1] * 4


def test_pool_is_sized_to_the_work(monkeypatch):
    sizes = []
    pool_class = benchmark.ProcessPoolExecutor

    def spy(max_workers, **kw):
        sizes.append(max_workers)
        return pool_class(max_workers=max_workers, **kw)

    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", spy)
    assert _pool_map(abs, [-1, -2], 4) == [1, 2]
    assert _pool_map(abs, [-3], 4) == [3]
    assert sizes == [2]


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_run_replications_rejects_bad_tolerance_before_running(tol):
    # the sample function would record a failure if any replication ran
    with pytest.raises(DataError, match="tolerance must be finite and >= 0"):
        run_replications(["mgm"], DgpVariant("main", 60, 1), 2, lambdas=[0.5],
                         nonzero_tol=tol, sample_fn=_constant_column_sample)


@pytest.mark.parametrize("lambdas, message", [
    ([0.1, 0.5], "strictly decreasing"), ([np.inf, 0.5], "must be finite")])
def test_run_replications_rejects_bad_lambda_grid_before_running(lambdas, message):
    # an unchecked grid used to fail inside every replication instead
    with pytest.raises(DataError, match=message):
        run_replications(["mgm", "qmgm1"], DgpVariant("main", 60, 1), 2,
                         lambdas=lambdas, sample_fn=_constant_column_sample)


def generate_null_sample(n: int, seed: int):
    """Three normal and three Poisson columns, mutually independent, and
    their edgeless truth: a sample for null-structure checks."""
    rng = np.random.default_rng(seed)
    cols = [rng.normal(size=n) for _ in range(3)]
    cols += [rng.poisson(3.0, size=n).astype(float) for _ in range(3)]
    schema = tuple(VariableSpec(f"V{j + 1}", "continuous" if j < 3 else "count")
                   for j in range(6))
    return Dataset(np.column_stack(cols), schema), np.zeros((6, 6), dtype=bool)


def test_null_sample_properties():
    ds, tg = generate_null_sample(200, 4)
    assert tg.shape == (6, 6) and not tg.any()
    assert ds.p == 6
    a, _ = generate_null_sample(200, 4)
    assert np.array_equal(ds.values, a.values)
