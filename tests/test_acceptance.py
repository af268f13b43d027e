"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy benchmark
fixture (criteria 1-3) runs the main generator at n=500 for 20 replications
with four learners and is shared across tests; expect several minutes.
"""

import time

import numpy as np
import pytest

from qmgm.benchmark import (DgpVariant, default_lambda_grid, confusion_metrics,
                            generate_sample, pair_counts, roc_curve, run_replications)
from qmgm.cli import main as cli_main
from qmgm.core import Dataset, EstimatedGraph, validate_and_standardize
from qmgm.midcdf import marginal_mid_quantile
from qmgm.penalized import fit_lambda_paths
from qmgm.selection import build_problems
from qmgm.analysis import hamming_distance
from qmgm.io import save_csv

from bruteforce import (auc_oracle, hamming_oracle, intercept_only_problem,
                        metrics_oracle, mid_quantile_oracle, pair_counts_oracle)
from descent import (NodeFitConfig, fit_node_quantile, lambda_max, smooth_gradient,
                     soft_threshold)
from test_benchmark import generate_null_sample

TABLE_LEARNERS = ("qmgm1", "qmgm3", "qmgm7", "mgm")


@pytest.fixture(scope="session")
def table_run():
    """Desk-scale reproduction run shared by criteria 1-3."""
    start = time.perf_counter()
    run = run_replications(TABLE_LEARNERS, DgpVariant("main", 500, 0), 20,
                           lambdas=default_lambda_grid(0.001, 5.0, 50),
                           threads=2)
    elapsed = time.perf_counter() - start
    assert not run.failures, f"replications failed: {run.failures}"
    return run, elapsed


def summary_value(run, learner, criterion, metric):
    for row in run.summary_rows():
        if (row["learner"], row["criterion"], row["metric"]) == \
                (learner, criterion, metric):
            return row["median"]
    raise KeyError((learner, criterion, metric))


def test_criterion_1_auc_table_reproduction(table_run):
    run, elapsed = table_run
    med = {lr: summary_value(run, lr, "path", "auc")
           for lr in ("mgm", "qmgm1", "qmgm7")}
    print(f"\n  median AUC: mgm {med['mgm']:.4f}, qmgm1 {med['qmgm1']:.4f}, "
          f"qmgm7 {med['qmgm7']:.4f}; wall {elapsed/60:.1f} min")
    assert abs(med["qmgm7"] - 0.86) <= 0.06, f"qmgm7 median {med['qmgm7']}"
    assert abs(med["qmgm1"] - 0.79) <= 0.06, f"qmgm1 median {med['qmgm1']}"
    assert abs(med["mgm"] - 0.71) <= 0.06, f"mgm median {med['mgm']}"
    assert med["qmgm1"] - med["mgm"] >= 0.02, "mgm -> qmgm1 gap too small"
    assert med["qmgm7"] - med["qmgm1"] >= 0.02, "qmgm1 -> qmgm7 gap too small"
    assert elapsed <= 1800, f"benchmark took {elapsed:.0f}s"
    print("ACCEPTANCE 1 (desk-scale AUC table reproduction): PASS")


def test_criterion_2_monotone_in_levels(table_run):
    run, _ = table_run
    auc = [summary_value(run, f"qmgm{L}", "path", "auc") for L in (1, 3, 7)]
    print(f"\n  median AUC by level count: {np.round(auc, 4)}")
    assert auc[1] >= auc[0] - 0.02
    assert auc[2] >= auc[1] - 0.02
    print("ACCEPTANCE 2 (AUC nondecreasing in quantile levels): PASS")


def test_criterion_3_aic_overfits_relative_to_bicp(table_run):
    run, _ = table_run
    for lr in ("qmgm1", "qmgm7"):
        fpr_aic = summary_value(run, lr, "aic", "fpr")
        fpr_bicp = summary_value(run, lr, "bicp", "fpr")
        print(f"\n  {lr}: median FPR aic {fpr_aic:.3f} vs bicp {fpr_bicp:.3f}")
        assert fpr_aic >= fpr_bicp, f"{lr}: AIC no denser than BICp"
    print("ACCEPTANCE 3 (AIC at least as dense as BICp): PASS")


def _null_sample(variant):
    return generate_null_sample(variant.n, variant.seed)


def test_criterion_4_null_structure():
    run = run_replications(["qmgm7"], DgpVariant("main", 1000, 100), 20,
                           lambdas=default_lambda_grid(0.001, 5.0, 50),
                           threads=2,
                           sample_fn=_null_sample)
    assert not run.failures
    edges = summary_value(run, "qmgm7", "bicp", "edges")
    print(f"\n  median selected edges on independent columns: {edges}")
    assert edges <= 1.0
    print("ACCEPTANCE 4 (independent columns select a near-empty graph): PASS")


def test_criterion_5_midquantile_oracle_equivalence():
    rng = np.random.default_rng(2024)
    taus = [round(0.1 * i, 10) for i in range(1, 10)]
    worst = 0.0
    for case in range(100):
        if case % 2 == 0:
            sample = rng.integers(0, 15, size=200).astype(float)
        else:
            sample = rng.poisson(8.0, size=150).astype(float)
        problem = intercept_only_problem(sample, "identity")
        intercepts = fit_lambda_paths([problem], taus, [0.0]).intercepts[0, :, 0]
        for tau, intercept in zip(taus, intercepts):
            oracle = mid_quantile_oracle(sample, tau)
            worst = max(worst, abs(intercept - oracle))
            assert abs(intercept - oracle) <= 1e-6, (case, tau)
            assert abs(marginal_mid_quantile(sample, tau) - oracle) <= 1e-9
    print(f"\n  worst |fit - oracle| over 900 fits: {worst:.2e}")
    print("ACCEPTANCE 5 (intercept-only fits equal the marginal mid-quantile): PASS")


@pytest.fixture(scope="session")
def acceptance_problems():
    dataset, _ = generate_sample(DgpVariant("main", 500, 1))
    ds = validate_and_standardize(dataset)
    return ds, build_problems(ds)


def test_criterion_6_optimizer_property_suite(acceptance_problems):
    ds, problems = acceptance_problems
    # (a) accepted iterates never increase the objective
    checked_traces = 0
    for node in (0, 2, 6, 8):
        pr = problems[node]
        for tau, lam in ((0.25, 0.02), (0.5, 0.1), (0.75, 0.0)):
            res = fit_node_quantile(
                pr, NodeFitConfig(tau=tau, lam=lam, track_objective=True))
            trace = res.objective_trace
            assert np.all(np.diff(trace) <= 1e-14), (node, tau, lam)
            checked_traces += 1
    # (b) gradient vs central finite differences off-knot
    rng = np.random.default_rng(77)
    sub = np.sort(rng.choice(ds.n, 40, replace=False))
    small = validate_and_standardize(
        Dataset(ds.values[sub], ds.schema, ds.missing_mask[sub]))
    from test_penalized import _fd_gradient, _off_knot
    fd_checked = 0
    for node, margin in ((0, 1e-4), (4, 1e-4), (6, 1e-3)):
        pr = build_problems(small)[node]
        tries = 0
        found = 0
        while found < 4 and tries < 500:
            tries += 1
            b0 = float(rng.normal(scale=0.3))
            beta = rng.normal(scale=0.03, size=pr.m)
            if not _off_knot(pr, b0, beta, margin):
                continue
            ana = smooth_gradient(pr, b0, beta, 0.5)
            num = _fd_gradient(pr, b0, beta, 0.5)
            rel = np.linalg.norm(ana - num) / max(np.linalg.norm(num), 1e-8)
            assert rel < 1e-4, (node, rel)
            found += 1
            fd_checked += 1
    assert fd_checked >= 12
    # (c) soft threshold against an independent bisection search on the
    # subgradient of the (convex) proximal objective; value comparisons
    # alone cannot resolve a quadratic argmin below sqrt(eps)
    def prox_by_bisection(v, t):
        if abs(v) <= t:
            return 0.0      # zero sits inside the subdifferential at the kink
        def dg(x):          # increasing; jump at the kink already excluded
            return (x - v) + (t if x >= 0 else -t)
        lo, hi = v - 2 * t - 2, v + 2 * t + 2
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if dg(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(5)
    for _ in range(200):
        v = float(rng.uniform(-10, 10))
        t = float(rng.uniform(0, 8))
        got = soft_threshold(v, t)
        fun = lambda x: 0.5 * (x - v) ** 2 + t * abs(x)
        best = prox_by_bisection(v, t)
        assert abs(got - best) <= 1e-10
        assert fun(got) <= fun(best) + 1e-10
    # (d) lambda at or above lambda_max leaves every slope at exactly zero
    for node in (1, 5, 9):
        pr = problems[node]
        for tau in (0.25, 0.5, 0.875):
            lmax = lambda_max(pr, tau)
            for factor in (1.0, 1.5):
                res = fit_node_quantile(
                    pr, NodeFitConfig(tau=tau, lam=factor * lmax))
                assert np.all(res.beta == 0.0), (node, tau, factor)
    print(f"\n  monotone traces: {checked_traces}, finite-difference checks: "
          f"{fd_checked}, prox checks: 200")
    print("ACCEPTANCE 6 (optimizer property suite): PASS")


def test_criterion_7_metrics_oracle():
    rng = np.random.default_rng(31)

    def rand_adj(p, density):
        up = np.triu(rng.random((p, p)) < density, 1)
        return up | up.T

    def as_graph(adj):
        p = adj.shape[0]
        strength = np.where(adj, 1.0, 0.0)
        sign = np.where(adj, 1, 0).astype(np.int8)
        return EstimatedGraph(adj, strength, sign, np.full((p, p), np.nan),
                              np.full((p, p), -1))

    max_auc_err = 0.0
    for _ in range(1000):
        p = int(rng.integers(3, 9))
        t = rand_adj(p, rng.uniform(0.2, 0.7))
        e = rand_adj(p, rng.uniform(0.2, 0.7))
        assert pair_counts(t, e) == pair_counts_oracle(t.tolist(), e.tolist())
        got = confusion_metrics(t, e)
        want = metrics_oracle(t.tolist(), e.tolist())
        for name, val in want.items():
            assert getattr(got, name) == pytest.approx(val, abs=1e-12)
        assert hamming_distance(t, e) == pytest.approx(
            hamming_oracle(t.tolist(), e.tolist()), abs=1e-15)
        path = [as_graph(rand_adj(p, d)) for d in np.linspace(0.1, 0.9, 5)]
        pts, auc = roc_curve(t, path)
        max_auc_err = max(max_auc_err, abs(auc - auc_oracle(pts)))
        assert abs(auc - auc_oracle(pts)) <= 1e-12
    print(f"\n  1000 random pairs checked; worst AUC deviation {max_auc_err:.2e}")
    print("ACCEPTANCE 7 (metrics match brute-force recomputation): PASS")


def test_criterion_8_determinism(tmp_path):
    sim_args = ["simulate", "--n", "150", "--R", "3",
                "--learners", "qmgm3,mgm", "--lambda-count", "12",
                "--seed", "7", "--threads", "2"]
    for out in ("run1", "run2"):
        assert cli_main(sim_args + ["--output", str(tmp_path / out)]) == 0
    for name in ("summary.csv", "details.csv", "truth.json", "manifest.txt"):
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"

    dataset, _ = generate_sample(DgpVariant("main", 120, 2))
    save_csv(dataset, tmp_path / "data.csv")
    schema = "\n".join([f"Y{i} continuous" for i in range(1, 6)]
                       + [f"Y{i} count" for i in range(6, 11)]) + "\n"
    (tmp_path / "schema.txt").write_text(schema, encoding="utf-8")
    docs = []
    for name in ("g1.json", "g2.json"):
        rc = cli_main(["fit", str(tmp_path / "data.csv"),
                       "--schema", str(tmp_path / "schema.txt"),
                       "--tau-levels", "3", "--lambda-count", "10",
                       "--output", str(tmp_path / name)])
        assert rc == 0
        docs.append((tmp_path / name).read_bytes())
    assert docs[0] == docs[1], "graph documents differ between identical runs"
    print("\nACCEPTANCE 8 (byte-identical outputs for identical configs): PASS")
