from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import descent
from bruteforce import intercept_only_problem, kkt_residual, penalized_wls_reference
from descent import (NodeFitConfig, fit_node_quantile, lambda_max, null_fit,
                     objective, segments, smooth_gradient, smooth_objective,
                     soft_threshold)
from qmgm.benchmark import DgpVariant, default_lambda_grid, generate_sample
from qmgm.core import (DataError, Dataset, NONZERO_TOL, QuantileGrid,
                       VariableSpec, standard_levels, validate_and_standardize)
from qmgm import penalized
from qmgm.lasso import wls_gram, wls_paths
from qmgm.mgm import fit_mgm
from qmgm.midcdf import marginal_mid_quantile
from qmgm.penalized import (NodeProblem, fit_lambda_paths,
                            inverse_midquantile_targets, penalized_wls)
from qmgm.selection import build_problems, fit_qmgm

PATH_FIELDS = ("intercepts", "betas", "iterations", "converged")


def lone_path(problem, tau, lambdas):
    """The path of one (problem, tau) cell by field name: cell (0, 0) of the
    cube of ``fit_lambda_paths``.  A cube's nodes have p - 1 predictors, so
    the cell sits among copies of its own problem."""
    cube = fit_lambda_paths([problem] * (problem.m + 1), [tau], lambdas)
    return SimpleNamespace(**{name: getattr(cube, name)[0, 0] for name in PATH_FIELDS})


def targets_at(problem, tau):
    """Targets and solvable mask at one level: row 0 of the grid call."""
    targets, solvable = inverse_midquantile_targets(problem, [tau])
    return targets[0], solvable[0]


@pytest.fixture(scope="module")
def problems(dgp_500):
    ds, _ = dgp_500
    return build_problems(ds)


def test_soft_threshold_examples():
    assert soft_threshold(3.0, 1.0) == pytest.approx(2.0)
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-2.5, 0.0) == -2.5


@given(st.floats(-50, 50), st.floats(0, 20))
def test_soft_threshold_is_prox(v, t):
    # sign(v) * max(|v| - t, 0) minimizes 0.5 (x - v)^2 + t |x|
    got = soft_threshold(v, t)
    grid = np.linspace(v - 2 * t - 1, v + 2 * t + 1, 4001)
    vals = 0.5 * (grid - v) ** 2 + t * np.abs(grid)
    best = 0.5 * (got - v) ** 2 + t * abs(got)
    assert best <= vals.min() + 1e-10


def test_objective_penalty_scaling(problems):
    pr = problems[1]
    rng = np.random.default_rng(0)
    beta = rng.normal(scale=0.1, size=pr.m)
    c1 = NodeFitConfig(tau=0.5, lam=0.3)
    c2 = NodeFitConfig(tau=0.5, lam=0.6)
    f0 = smooth_objective(pr, 0.1, beta, 0.5)
    pen1 = objective(pr, 0.1, beta, c1) - f0
    pen2 = objective(pr, 0.1, beta, c2) - f0
    assert pen2 == pytest.approx(2.0 * pen1, rel=1e-12)
    assert objective(pr, 0.1, beta, NodeFitConfig(tau=0.5, lam=0.0)) == pytest.approx(f0)


def test_null_intercept_solves_marginal_equation():
    # an intercept-only problem has identical mid-CDFs in every row, so the
    # zero-slope optimum is exactly the marginal mid-quantile
    rng = np.random.default_rng(8)
    sample = rng.poisson(6.0, 250).astype(float)
    pr = intercept_only_problem(sample, "identity")
    for tau in (0.1, 0.25, 0.5, 0.9):
        base = null_fit(pr, tau)
        assert base.intercept == pytest.approx(
            marginal_mid_quantile(sample, tau), abs=1e-6)


def _fd_gradient(pr, b0, beta, tau, h=1e-6):
    grad = np.zeros(1 + pr.m)
    for idx in range(1 + pr.m):
        for sgn in (1.0, -1.0):
            bb0 = b0 + sgn * h * (idx == 0)
            bb = beta.copy()
            if idx > 0:
                bb[idx - 1] += sgn * h
            grad[idx] += sgn * smooth_objective(pr, bb0, bb, tau)
    return grad / (2 * h)


def _off_knot(pr, b0, beta, margin):
    """Every row at least `margin` (in eta units) away from any kink of its
    clamped interpolator: threshold knots and clamp crossing points.  Rows
    on flat segments cannot cross a clamp boundary and are always safe."""
    lp = b0 + pr.X @ beta
    if pr.link == "log":
        eta = np.exp(np.clip(lp, -700, 700))
    elif pr.link == "logit":
        eta = 1 / (1 + np.exp(-lp))
    else:
        eta = lp
    z = pr.logits.thresholds
    dist_knot = np.min(np.abs(eta[:, None] - z[None, :]), axis=1)
    idx, slope = segments(z, pr.pi, eta)
    raw = slope * (eta - z[idx]) + pr.pi[np.arange(eta.size), idx]
    with np.errstate(divide="ignore"):
        dist_clamp = np.where(
            slope != 0.0,
            np.minimum(np.abs(raw - 1e-6), np.abs(raw - (1 - 1e-6)))
            / np.where(slope != 0.0, np.abs(slope), 1.0),
            np.inf)
    return np.all(dist_knot > margin) and np.all(dist_clamp > margin)


def test_gradient_matches_finite_differences(dgp_500):
    # small row subsets keep whole instances inside one smooth piece
    ds, _ = dgp_500
    rng = np.random.default_rng(42)
    sub = np.sort(rng.choice(ds.n, 40, replace=False))
    small = validate_and_standardize(
        Dataset(ds.values[sub], ds.schema, ds.missing_mask[sub]))
    for node, margin in ((0, 1e-4), (4, 1e-4), (6, 1e-3)):
        pr = build_problems(small)[node]
        checked = 0
        tries = 0
        while checked < 3:
            tries += 1
            assert tries < 400, "could not sample enough off-knot instances"
            b0 = null_fit(pr, 0.5).intercept + rng.normal(scale=0.05)
            beta = rng.normal(scale=0.02, size=pr.m)
            if not _off_knot(pr, b0, beta, margin):
                continue
            ana = smooth_gradient(pr, b0, beta, 0.5)
            num = _fd_gradient(pr, b0, beta, 0.5)
            denom = max(np.linalg.norm(num), 1e-8)
            assert np.linalg.norm(ana - num) / denom < 1e-4
            checked += 1


def test_descent_trace_monotone(problems):
    pr = problems[2]
    cfg = NodeFitConfig(tau=0.375, lam=0.05, track_objective=True)
    res = fit_node_quantile(pr, cfg)
    trace = res.objective_trace
    assert trace is not None and trace.size >= 2
    assert np.all(np.diff(trace) <= 1e-14)


def test_lambda_max_gives_exact_null(problems):
    for node in (0, 6):
        pr = problems[node]
        for tau in (0.25, 0.5):
            lmax = lambda_max(pr, tau)
            for lam in (lmax, 1.01 * lmax, 2.0 * lmax):
                res = fit_node_quantile(pr, NodeFitConfig(tau=tau, lam=lam))
                assert np.all(res.beta == 0.0)
                assert res.active_set.size == 0


def test_descent_stall_is_reported_unconverged(problems, monkeypatch):
    # with no backtracking allowed no trial step is ever accepted: the loop
    # stops at its start, and that stall is not convergence
    monkeypatch.setattr(descent, "MAX_BACKTRACKS", 0)
    res = fit_node_quantile(problems[1], NodeFitConfig(tau=0.5, lam=0.01))
    assert not res.converged
    assert res.iterations == 1


def test_below_lambda_max_some_slope_moves(problems):
    pr = problems[1]
    lmax = lambda_max(pr, 0.5)
    res = fit_node_quantile(pr, NodeFitConfig(tau=0.5, lam=0.2 * lmax))
    assert np.any(res.beta != 0.0)


def test_path_requires_decreasing_grid(problems):
    with pytest.raises(DataError, match="strictly decreasing"):
        fit_lambda_paths(problems, [0.5], [0.1, 0.2])
    with pytest.raises(DataError, match="nonempty"):
        fit_lambda_paths(problems, [0.5], [])


def test_active_set_grows_down_the_path(problems):
    lambdas = np.exp(np.linspace(np.log(5.0), np.log(0.001), 20))
    pr = problems[1]
    path = lone_path(pr, 0.5, lambdas)
    active = np.count_nonzero(np.abs(path.betas) > NONZERO_TOL, axis=1)
    assert active[-1] >= active[0]
    assert active[0] == 0  # lambda = 5 keeps everything out


def test_path_empties_exactly_at_max_abs_c(problems):
    # the fitted path's lambda_max is max |c_k| over the non-flat columns of
    # the kernel's covariance form: every slope is zero there, and exactly
    # one enters just below it
    for pr in problems:
        for tau in (0.125, 0.25, 0.5, 0.75, 0.875):
            t, solvable = targets_at(pr, tau)
            assert solvable.sum() >= 2, (pr.logits.node, tau)
            _, c, ok, _, _ = wls_gram(pr.X[None], solvable[None].astype(float), t[None])
            lmax = float(np.abs(c[ok]).max())
            at = lone_path(pr, tau, [lmax]).betas[0]
            assert not at.any(), (pr.logits.node, tau)
            below = lone_path(pr, tau, [lmax * (1 - 1e-6)]).betas[0]
            assert np.count_nonzero(below) == 1, (pr.logits.node, tau)


def test_permutation_equivariance(problems):
    pr = problems[3]
    rng = np.random.default_rng(9)
    perm = rng.permutation(pr.m)
    permuted = NodeProblem(pr.y, pr.X[:, perm], pr.link, pr.pi, pr.logits)
    # production route: the convex subproblem has a unique optimum
    a = lone_path(pr, 0.5, [0.05])
    b = lone_path(permuted, 0.5, [0.05])
    assert b.betas[0] == pytest.approx(a.betas[0][perm], abs=1e-8)
    assert b.intercepts[0] == pytest.approx(a.intercepts[0], abs=1e-8)
    # descent route: the objective is nonsmooth and nonconvex, and runs that
    # take different trajectories stop at different kinks; column order
    # does not steer the arithmetic, so both runs take the same trajectory
    a = fit_node_quantile(pr, NodeFitConfig(tau=0.5, lam=0.05))
    b = fit_node_quantile(permuted, NodeFitConfig(tau=0.5, lam=0.05))
    assert b.objective == pytest.approx(a.objective, abs=1e-7)
    assert b.beta == pytest.approx(a.beta[perm], abs=1e-4)


def _descent_path(pr, tau, lambdas):
    """Cold descent fit at the first lambda, then warm starts down the grid."""
    fits = [fit_node_quantile(pr, NodeFitConfig(tau=tau, lam=lambdas[0]))]
    for lam in lambdas[1:]:
        fits.append(fit_node_quantile(pr, NodeFitConfig(tau=tau, lam=lam),
                                      init=fits[-1]))
    return fits


def _same_fit(a, b, perm=None):
    beta = a.beta if perm is None else a.beta[perm]
    return (a.intercept == b.intercept and np.array_equal(beta, b.beta)
            and a.objective == b.objective and a.iterations == b.iterations)


def test_column_layout_and_order_do_not_steer_arithmetic(problems):
    # a Fortran-ordered X must be stored like a C-ordered one: numpy's
    # reductions add in an order that follows the memory layout
    pr = problems[3]
    fortran = NodeProblem(pr.y, np.asfortranarray(pr.X), pr.link, pr.pi, pr.logits)
    rng = np.random.default_rng(21)
    perm = rng.permutation(pr.m)
    permuted = NodeProblem(pr.y, pr.X[:, perm], pr.link, pr.pi, pr.logits)
    base = null_fit(pr, 0.5).intercept
    for zeros in (0, 3, 6):
        b0 = base + rng.normal(scale=0.05)
        beta = rng.normal(scale=0.05, size=pr.m)
        beta[rng.choice(pr.m, zeros, replace=False)] = 0.0
        f = smooth_objective(pr, b0, beta, 0.5)
        g = smooth_gradient(pr, b0, beta, 0.5)
        assert smooth_objective(fortran, b0, beta, 0.5) == f
        assert np.array_equal(smooth_gradient(fortran, b0, beta, 0.5), g)
        assert smooth_objective(permuted, b0, beta[perm], 0.5) == f
        assert np.array_equal(smooth_gradient(permuted, b0, beta[perm], 0.5),
                              np.concatenate(([g[0]], g[1:][perm])))
    a = _descent_path(pr, 0.5, [0.2, 0.05])
    b = _descent_path(fortran, 0.5, [0.2, 0.05])
    assert all(_same_fit(ra, rb) for ra, rb in zip(a, b))
    a = lone_path(pr, 0.5, [0.2, 0.05])
    b = lone_path(fortran, 0.5, [0.2, 0.05])
    for name in PATH_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    a = _descent_path(pr, 0.5, [0.2, 0.05])
    b = _descent_path(permuted, 0.5, [0.2, 0.05])
    assert all(_same_fit(ra, rb, perm) for ra, rb in zip(a, b))


def test_inverse_targets_marginal_case():
    rng = np.random.default_rng(4)
    sample = rng.poisson(5.0, 300).astype(float)
    pr = intercept_only_problem(sample, "identity")
    t, solvable = targets_at(pr, 0.5)
    assert solvable.all()
    assert t == pytest.approx(np.full(300, marginal_mid_quantile(sample, 0.5)),
                              abs=1e-8)


def test_inverse_unsolvable_rows_flagged():
    pr = intercept_only_problem(np.array([0.0, 0.0, 0.0, 1.0] * 30), "logit")
    _, solvable = targets_at(pr, 0.05)
    assert not solvable.any()  # pi_1 = 0.375 > 0.05 for every row


def test_lambda_zero_recovers_single_parent():
    # the second generator node depends only on the first; the unpenalized
    # fit at the median should put its weight there
    dataset, _ = generate_sample(DgpVariant("main", 1000, 7))
    ds = validate_and_standardize(dataset)
    pr = build_problems(ds)[1]
    beta = lone_path(pr, 0.5, [0.0]).betas[0]
    parent = abs(beta[0])
    rest = np.abs(beta[1:]).max()
    assert parent > 0.2
    assert parent > 2.5 * rest


def test_penalized_wls_matches_lstsq_at_zero_lambda():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 4))
    y = X @ np.array([1.0, -2.0, 0.0, 0.5]) + rng.normal(size=80)
    beta = np.zeros((1, 4))
    b0, _, conv = penalized_wls(X[None], np.ones((1, 80)), y[None], beta, 0.0)
    ref = np.linalg.lstsq(np.column_stack([np.ones(80), X]), y, rcond=None)[0]
    assert conv[0]
    assert b0[0] == pytest.approx(ref[0], abs=1e-6)
    assert beta[0] == pytest.approx(ref[1:], abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(12, 60), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       binary_rows=st.booleans(), log10_lam=st.floats(-4.0, np.log10(0.5)),
       correlated=st.booleans())
# near-collinear columns on which the plain coordinate descent of the
# reference had not converged after its 10^5 sweeps
@example(n=12, m=3, seed=3073244, binary_rows=True, log10_lam=-3.0, correlated=True)
@example(n=38, m=5, seed=57, binary_rows=False, log10_lam=-3.0, correlated=True)
def test_penalized_wls_matches_reference_and_certifies_kkt(n, m, seed, binary_rows,
                                                           log10_lam, correlated):
    # small lambdas on strongly correlated columns are where coordinate
    # sweeps crawl toward the optimum
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log10_lam
    raw = rng.normal(size=(n, m))
    if correlated:
        raw = rng.normal(size=(n, 1)) + 0.15 * raw
    X = raw * rng.uniform(0.3, 3.0, m) + rng.normal(size=m)
    z = X @ (rng.normal(size=m) * rng.binomial(1, 0.5, m)) + rng.normal(size=n)
    if binary_rows:
        w = np.zeros(n)
        w[rng.choice(n, rng.integers(m + 5, n + 1), replace=False)] = 1.0
    else:
        w = rng.uniform(0.05, 2.0, n)
    beta = np.zeros((1, m))
    b0, _, conv = penalized_wls(X[None], w[None], z[None], beta, lam)
    b0, beta = b0[0], beta[0]
    # the residual-form reference crawls when a column's mean dwarfs its spread
    rb0, rbeta, _, rconv = penalized_wls_reference(X, w, z, 0.3, np.zeros(m), lam,
                                                   max_sweeps=10**5)
    assert rconv
    assert np.array_equal(beta != 0, rbeta != 0)
    assert np.abs(beta - rbeta).max() <= 1e-8
    assert abs(b0 - rb0) <= 1e-8
    if conv[0]:
        assert kkt_residual(X, w, z, b0, beta, lam) <= 1e-8


def test_penalized_wls_flat_column():
    # a column constant on the weighted rows is not identified beside the
    # intercept and keeps a zero slope, even unpenalized
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    w = (rng.random(50) < 0.6).astype(float)
    X[w > 0, 1] = 0.37
    z = 2.0 * X[:, 0] + rng.normal(size=50)
    beta = np.zeros((1, 3))
    b0, _, conv = penalized_wls(X[None], w[None], z[None], beta, 0.0)
    assert conv[0] and beta[0, 1] == 0.0
    assert kkt_residual(X, w, z, b0[0], beta[0], 0.0) <= 1e-10


def test_penalized_wls_singular_active_set_falls_back_to_sweeps(monkeypatch):
    # a column and its scaled duplicate make every active set holding both
    # singular; the duplicate buys the same fit at a quarter of the
    # penalty, so the optimum is unique (the duplicate carries the shared
    # slope) and the reference must find it too
    from qmgm import lasso

    sweeps, calls = lasso._sweeps, []

    def spy(*args):
        calls.append(1)
        return sweeps(*args)

    monkeypatch.setattr(lasso, "_sweeps", spy)
    rng = np.random.default_rng(2)
    n, m = 40, 4
    X = rng.normal(size=(n, m))
    X[:, 2] = 4.0 * X[:, 0]
    z = X @ np.array([1.0, -0.5, 0.8, 0.0]) + rng.normal(size=n)
    w = rng.uniform(0.2, 2.0, n)
    for lam in (0.3, 0.05, 0.01):
        calls.clear()
        beta = np.zeros((1, m))
        b0, _, conv = penalized_wls(X[None], w[None], z[None], beta, lam)
        b0, beta = b0[0], beta[0]
        assert calls, lam
        rb0, rbeta, _, rconv = penalized_wls_reference(X, w, z, 0.0, np.zeros(m),
                                                       lam, max_sweeps=10**5)
        assert rconv and conv[0]
        assert beta[0] == 0.0 and beta[2] != 0.0
        assert np.abs(beta - rbeta).max() <= 1e-8
        assert abs(b0 - rb0) <= 1e-8
        assert kkt_residual(X, w, z, b0, beta, lam) <= 1e-8


def test_warm_path_equals_cold_single_lambda_solves(problems, monkeypatch):
    # each point of a warm-started path (one Gram matrix per path) is the
    # point a cold single-lambda solve reaches, and the active set certifies
    # it without the fallback sweeps
    from qmgm import lasso

    def no_sweeps(*args):
        raise AssertionError("fallback sweeps ran")

    monkeypatch.setattr(lasso, "_sweeps", no_sweeps)
    pr = problems[4]
    tau = 0.25
    lambdas = np.exp(np.linspace(np.log(2.0), np.log(1e-4), 25))
    t, solvable = targets_at(pr, tau)
    w = solvable.astype(float)
    path = lone_path(pr, tau, lambdas)
    active = np.count_nonzero(np.abs(path.betas) > NONZERO_TOL, axis=1)
    assert 0 < active[10] < active[-1]
    for lam, b0, beta, conv in zip(lambdas, path.intercepts, path.betas,
                                   path.converged):
        cold = lone_path(pr, tau, [lam])
        assert conv and cold.converged[0]
        assert np.abs(beta - cold.betas[0]).max() <= 1e-10
        assert abs(b0 - cold.intercepts[0]) <= 1e-10
        assert kkt_residual(pr.X, w, t, b0, beta, lam) <= 1e-8
        one = np.zeros((1, pr.m))
        _, _, one_conv = penalized_wls(pr.X[None], w[None], t[None], one, lam)
        assert one_conv[0] and np.abs(one[0] - beta).max() <= 1e-10


def test_path_record_holds_the_kernel_path_bit_for_bit(problems, dgp_500):
    pr = problems[4]
    tau = 0.25
    lambdas = np.exp(np.linspace(np.log(2.0), np.log(1e-4), 25))
    t, solvable = targets_at(pr, tau)
    gram = wls_gram(pr.X[None], solvable[None].astype(float), t[None])
    b0s, betas, work, converged = (field[0] for field in wls_paths(gram, lambdas))
    path = lone_path(pr, tau, lambdas)
    assert np.array_equal(path.intercepts, b0s)
    assert np.array_equal(path.betas, betas)
    assert np.array_equal(path.iterations, work)
    assert np.array_equal(path.converged, converged)
    # fit_mgm's cube slice of a gaussian node holds the same kernel path,
    # one outer iteration per point
    ds, _ = dgp_500
    j = 0
    assert ds.schema[j].kind == "continuous"
    y, X = ds.values[:, j], np.delete(ds.values, j, axis=1)
    b0s, betas, _, converged = (
        field[0] for field in wls_paths(wls_gram(X[None], np.ones((1, ds.n)), y[None]), lambdas))
    cube = fit_mgm(ds, lambdas)
    assert np.array_equal(cube.intercepts[j, 0], b0s)
    assert np.array_equal(cube.betas[j, 0], betas)
    assert np.array_equal(cube.converged[j, 0], converged)
    assert np.array_equal(cube.iterations[j, 0], np.ones(lambdas.size, dtype=int))
    # fit_qmgm's cube holds the same bits, read-only
    cube = fit_qmgm(ds, QuantileGrid((tau,)), lambdas)
    kept = (cube.intercepts, cube.betas, cube.iterations, cube.converged)
    for name, field in zip(PATH_FIELDS, kept):
        assert np.array_equal(field[4, 0], getattr(path, name)), name
        assert not field.flags.writeable, name


@settings(max_examples=80, deadline=None)
@given(P=st.integers(1, 11), n=st.integers(5, 599), m=st.integers(1, 13),
       seed=st.integers(0, 2**32 - 1), shared_X=st.booleans(), zero_weights=st.booleans(),
       flat=st.booleans(), strided_z=st.booleans())
def test_stacked_wls_gram_gives_each_problem_its_own_bits(P, n, m, seed, shared_X,
                                                          zero_weights, flat, strided_z):
    # one stacked call gives each problem the G, c, ok, xbar and zbar of its
    # own P = 1 call, for X (P, n, m) or one X broadcast as (1, n, m), and
    # for targets laid out as contiguous rows or as strided columns
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(1 if shared_X else P, n, m)) * rng.uniform(0.1, 10.0, m)
    X += rng.normal(size=m)
    if flat:
        X[..., -1] = 0.37
    w = rng.uniform(0.2, 2.0, (P, n))
    if zero_weights:
        w *= rng.random((P, n)) < 0.6
        w[:, 0] = 1.0
    z = rng.normal(size=(n, P + 2)).T[:P] if strided_z else rng.normal(size=(P, n))
    assert z[0].flags.c_contiguous != strided_z
    stacked = wls_gram(X, w, z)
    for p in range(P):
        alone = wls_gram(X[0 if shared_X else p][None], w[p][None], z[p][None])
        for name, got, want in zip(("G", "c", "ok", "xbar", "zbar"), stacked, alone):
            assert np.array_equal(got[p], want[0]), (p, name)
    if flat:
        assert not stacked[2][:, -1].any()


def _batch_problems(seed, P=8, n=40, m=6):
    """Weighted lasso problems (X, w, z) of equal width on correlated
    columns: problem 1 has a column flat on its weighted rows, problem 2
    two identical columns, whose joint active blocks are singular."""
    rng = np.random.default_rng(seed)
    problems = []
    for p in range(P):
        raw = rng.normal(size=(n, 1)) + 0.3 * rng.normal(size=(n, m))
        X = raw * rng.uniform(0.5, 2.0, m) + rng.normal(size=m)
        z = X @ (rng.normal(size=m) * rng.binomial(1, 0.6, m)) + rng.normal(size=n)
        w = rng.uniform(0.2, 2.0, n)
        if p == 1:
            w = (rng.random(n) < 0.7).astype(float)
            X[w > 0, 3] = 0.37
        if p == 2:
            X[:, 4] = X[:, 1]
        problems.append((X, w, z))
    return problems


def test_wls_paths_batch_equals_each_path_alone(monkeypatch):
    # a batch of paths is bit for bit the paths run alone, through sign
    # crossings, a flat column, lambda = 0 and a singular active block,
    # which sends only its own path to the sweeps
    from qmgm import lasso

    problems = _batch_problems(4)
    lambdas = np.concatenate([np.exp(np.linspace(np.log(2.0), np.log(1e-3), 12)), [0.0]])
    gram = wls_gram(*map(np.array, zip(*problems)))
    alone = [[field[0] for field in wls_paths(wls_gram(X[None], w[None], z[None]), lambdas)]
             for X, w, z in problems]
    crossings, swept, mixed_singular = [], [], []
    step, sweeps, stacked = lasso._step_to_crossing, lasso._sweeps, lasso._stacked_solve

    def spy_step(b, active, rows, idx, *args):
        before = b[rows, idx]
        step(b, active, rows, idx, *args)
        crossings.append(int((b[rows, idx] != before).any(axis=1).sum()))

    def spy_sweeps(G, c, *args):
        swept.append([i for i, ci in enumerate(gram[1]) if np.array_equal(ci, c)])
        return sweeps(G, c, *args)

    def spy_stacked(A, rhs):
        x = stacked(A, rhs)
        singular = np.isnan(x).any(axis=1)
        if singular.any() and len(A) > 1:
            mixed_singular.append(int(singular.sum()))
        return x

    monkeypatch.setattr(lasso, "_step_to_crossing", spy_step)
    monkeypatch.setattr(lasso, "_sweeps", spy_sweeps)
    monkeypatch.setattr(lasso, "_stacked_solve", spy_stacked)
    batch = list(zip(*wls_paths(gram, lambdas)))
    # some stacked crossing step moves two paths, each to its own first crossing
    assert max(crossings) >= 2
    assert swept and all(found == [2] for found in swept)
    assert mixed_singular and all(count == 1 for count in mixed_singular)
    assert len(batch) == len(problems)
    for i, (got, want) in enumerate(zip(batch, alone)):
        for name, a, b in zip(PATH_FIELDS, got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, name)
    assert not batch[1][1][:, 3].any()
    assert all(path[3].all() for path in batch)


def test_null_fallback_is_the_closed_form_intercept():
    # tau below every row's first mid-probability leaves no solvable row;
    # each lambda point is then the intercept-only answer in closed form
    rng = np.random.default_rng(11)
    n = 120
    values = np.column_stack([rng.normal(size=(n, 2)),
                              (rng.random(n) < 0.1).astype(float)])
    schema = (VariableSpec("x1", "continuous"), VariableSpec("x2", "continuous"),
              VariableSpec("b1", "binary"))
    ds = validate_and_standardize(Dataset(values, schema))
    cube = fit_qmgm(ds, QuantileGrid((0.125, 0.5)), [0.5, 0.1, 0.01])
    pr = build_problems(ds)[2]
    _, solvable = targets_at(pr, 0.125)
    assert not solvable.any()
    start = penalized._link_transform(marginal_mid_quantile(pr.y, 0.125), pr)
    assert np.all(cube.intercepts[2, 0] == start)
    assert np.all(cube.betas[2, 0] == 0.0)
    assert np.all(cube.converged[2, 0])
    assert np.all(cube.iterations[2, 0] == 0)


def _two_solvable_rows(pr):
    """``pr`` with mid-probabilities under which only rows 0 and 1 are
    solvable at tau = 0.5."""
    k = pr.pi.shape[1]
    pi = np.full(pr.pi.shape, 0.9)
    pi[0], pi[1] = np.linspace(0.05, 0.95, k), np.linspace(0.1, 0.8, k)
    return replace(pr, pi=pi)


def test_two_solvable_rows_give_the_closed_form_intercept(problems):
    # on 2 rows G has rank 1 and tied columns make the slopes arbitrary, so
    # a (problem, tau) cell with 2 solvable rows takes the intercept-only path
    two = _two_solvable_rows(problems[0])
    tau = 0.5
    _, solvable = targets_at(two, tau)
    assert solvable.sum() == 2
    path = lone_path(two, tau, [0.5, 0.01, 0.0001])
    start = penalized._link_transform(marginal_mid_quantile(two.y, tau), two)
    assert np.all(path.intercepts == start)
    assert np.all(path.betas == 0.0)
    assert np.all(path.iterations == 0)
    assert np.all(path.converged)


def test_one_grid_call_equals_each_cell_alone(problems):
    # the closed-form cells and the cells of the one kernel call are both
    # written by grid index: each cell of a mixed grid is its path alone
    two = _two_solvable_rows
    grid = [problems[1], two(problems[0]), problems[2], problems[3], two(problems[5]),
            problems[4], *problems[6:]]
    taus = [0.25, 0.5, 0.75]
    lambdas = [0.5, 0.05, 0.005]
    cube = fit_lambda_paths(grid, taus, lambdas)
    cells = cube.intercepts.reshape(-1, len(lambdas))
    assert len({cell.tobytes() for cell in cells}) == len(grid) * len(taus)
    solved = [True, False, True, True, False] + [True] * 5
    assert np.array_equal(cube.iterations.any(axis=2), np.repeat([solved], 3, axis=0).T)
    for j, problem in enumerate(grid):
        for t, tau in enumerate(taus):
            alone = lone_path(problem, tau, lambdas)
            for name in PATH_FIELDS:
                assert np.array_equal(getattr(cube, name)[j, t], getattr(alone, name)), (j, t, name)


def test_inverse_targets_match_per_row_interp_bit_for_bit(problems):
    # rows with tied mid-probabilities, tau exactly on knots and tau outside
    # every row's range, all in one call, against the per-row np.interp loop
    pr = problems[0]
    rng = np.random.default_rng(8)
    k = 6
    z = np.sort(rng.normal(size=k))
    pi = np.sort(rng.integers(0, 9, size=(40, k)) / 8.0, axis=1)
    pi[:5] = np.sort(rng.random((5, k)), axis=1)
    pi[5] = 0.5
    X = np.zeros((40, pr.m))
    logits = replace(pr.logits, thresholds=z, coefficients=np.zeros((k, pr.m + 1)),
                     converged=np.ones(k, bool), degenerate=np.zeros(k, bool))
    custom = replace(pr, y=np.zeros(40), X=X, link="identity", pi=pi, logits=logits)
    taus = np.concatenate((np.unique(pi), [1e-9, 0.03, 0.41, 0.999]))
    taus = taus[(taus > 0) & (taus < 1)]
    targets, _ = inverse_midquantile_targets(custom, taus)
    assert targets.shape == (taus.size, 40)
    for t, tau in zip(targets, taus):
        ref = np.array([np.interp(tau, pi[i], z) for i in range(40)])
        assert np.array_equal(t.view(np.int64), ref.view(np.int64)), tau
    taus = (0.0625, 0.5, 0.9375)
    targets, _ = inverse_midquantile_targets(replace(pr, link="identity"), taus)
    for t, tau in zip(targets, taus):
        ref = np.array([np.interp(tau, row, pr.logits.thresholds)
                        for row in pr.pi])
        assert np.array_equal(t.view(np.int64), ref.view(np.int64)), tau


def test_closed_form_log_intercepts_share_the_targets_floor():
    # a count node that is 0 on 60% of the rows: at the low levels no row
    # is solvable and the marginal mid-quantile is 0, so the closed-form
    # intercept is the floored log, log(0.5 * smallest positive
    # threshold), the value of every target there too
    rng = np.random.default_rng(5)
    n = 200
    x = rng.normal(size=(n, 3))
    count = np.where(rng.random(n) < 0.6, 0.0, rng.poisson(np.exp(0.5 + 0.5 * x[:, 0])))
    schema = tuple(VariableSpec(f"x{i}", "continuous") for i in (1, 2, 3)) + (
        VariableSpec("c1", "count"),)
    ds = validate_and_standardize(Dataset(np.column_stack([x, count]), schema))
    grid = standard_levels(7)
    cube = fit_qmgm(ds, grid, default_lambda_grid(0.001, 5.0, 30))
    pr = build_problems(ds)[3]
    assert pr.link == "log"
    z = pr.logits.thresholds
    half = 0.5 * z[z > 0][0]
    floor = np.log(half)
    targets, solvable = inverse_midquantile_targets(pr, grid.levels)
    closed = np.flatnonzero(solvable.sum(axis=1) < penalized.MIN_SOLVABLE_ROWS)
    assert closed.tolist() == [0, 1]
    for l in closed:
        assert marginal_mid_quantile(pr.y, grid.levels[l]) < half
        assert np.all(cube.intercepts[3, l] == floor)
        assert np.all(cube.iterations[3, l] == 0)
        assert np.all(targets[l] == floor)


def test_config_validation():
    with pytest.raises(DataError):
        NodeFitConfig(tau=0.0, lam=0.1)
    with pytest.raises(DataError):
        NodeFitConfig(tau=0.5, lam=-1.0)
