import hashlib
import warnings

import numpy as np
import pytest

from qmgm.benchmark import DgpVariant, default_lambda_grid, generate_sample
from qmgm.core import (DataError, Dataset, VariableSpec, standard_levels,
                       validate_and_standardize)
from qmgm.mgm import FAMILY_BY_KIND, deviance_losses, fit_mgm, glm_deviance
from qmgm.selection import SelectionCriterion, estimate_edge_set, fit_qmgm, \
    select_lambda, score_path

PATH_FIELDS = ("intercepts", "betas", "work", "converged")


def node_lambda_max(y, X):
    """Smallest penalty keeping every slope at zero (all three families
    share this value under their canonical links)."""
    r = y - y.mean()
    return float(np.max(np.abs(X.T @ r)) / y.size) if X.shape[1] else 0.0


def test_family_assignment():
    assert FAMILY_BY_KIND["continuous"] == "gaussian"
    assert FAMILY_BY_KIND["count"] == "poisson"
    assert FAMILY_BY_KIND["binary"] == "binomial"
    # a kind with no family never reaches the baseline
    with pytest.raises(DataError):
        VariableSpec("x", "nominal")


def test_deviance_examples():
    y = np.array([1.0, 2.0, 3.0])
    assert glm_deviance("gaussian", y, y) == 0.0
    labels = np.array([0.0, 1.0] * 25)
    assert glm_deviance("binomial", labels, np.full(50, 0.5)) == pytest.approx(
        2 * 50 * np.log(2))
    rng = np.random.default_rng(0)
    counts = rng.poisson(3.0, 100).astype(float)
    assert glm_deviance("poisson", counts, np.full(100, counts.mean())) >= 0.0
    assert glm_deviance("poisson", counts, counts + 1e-12) == pytest.approx(0.0, abs=1e-6)
    with pytest.raises(DataError, match="unknown GLM family 'gamma'"):
        glm_deviance("gamma", y, y)


def test_orthogonal_design_soft_threshold_identity():
    # with centered orthogonal unit-variance columns the LASSO solution is
    # the soft-thresholded least-squares coefficient vector
    rng = np.random.default_rng(1)
    n = 64
    raw = rng.normal(size=(n, 3))
    q, _ = np.linalg.qr(raw - raw.mean(axis=0))
    X = q * np.sqrt(n)            # columns: mean 0, (1/n) X'X = I
    y = X @ np.array([1.0, -0.3, 0.05]) + rng.normal(size=n)
    lam = 0.2
    schema = tuple(VariableSpec(f"v{j}", "continuous") for j in range(4))
    cube = fit_mgm(Dataset(np.column_stack([y, X]), schema), [lam])
    b0, beta, conv = cube.intercepts[0, 0, 0], cube.betas[0, 0, 0], cube.converged[0, 0, 0]
    ls = X.T @ (y - y.mean()) / n
    expected = np.sign(ls) * np.maximum(np.abs(ls) - lam, 0.0)
    assert conv
    assert beta == pytest.approx(expected, abs=1e-8)
    assert b0 == pytest.approx(y.mean(), abs=1e-8)


def test_lambda_max_empties_every_family(tiny_mixed):
    ds = tiny_mixed
    lambdas_checked = 0
    for j in range(ds.p):
        y = ds.values[:, j]
        X = np.delete(ds.values, j, axis=1)
        lmax = node_lambda_max(y, X)
        cube = fit_mgm(ds, [1.5 * lmax])
        assert np.all(cube.betas[j, 0, 0] == 0.0)
        lambdas_checked += 1
    assert lambdas_checked == ds.p


def test_fit_mgm_cube_contract(tiny_mixed):
    lambdas = default_lambda_grid(count=6)
    cube = fit_mgm(tiny_mixed, lambdas)
    assert cube.betas.shape == (4, 1, 6, 3)
    assert cube.tau_levels == pytest.approx([0.5])
    assert np.all(np.isfinite(cube.intercepts)) and np.all(np.isfinite(cube.betas))
    # shared machinery applies unchanged
    g = estimate_edge_set(cube, 5, 1e-6)
    assert g.p == 4
    losses = deviance_losses(cube, tiny_mixed)
    assert losses.shape == (4, 1, 6)
    crit = SelectionCriterion.from_name("bic", 4)
    scores = score_path(cube, losses, [crit], tiny_mixed.n)[0]
    idx, lam = select_lambda(scores, lambdas)
    assert 0 <= idx < 6
    aic = score_path(cube, losses, [SelectionCriterion("aic")], tiny_mixed.n)
    assert np.all(np.isfinite(aic))


def test_path_objectives_nonincreasing_in_lambda(tiny_mixed):
    # smaller penalties can only improve the deviance part
    lambdas = default_lambda_grid(count=10)
    cube = fit_mgm(tiny_mixed, lambdas)
    deviances = deviance_losses(cube, tiny_mixed)
    for j, kind in ((0, "gaussian"), (2, "poisson"), (3, "binomial")):
        assert FAMILY_BY_KIND[tiny_mixed.schema[j].kind] == kind
        dev = deviances[j, 0]
        assert all(d1 <= d0 + 1e-6 for d0, d1 in zip(dev, dev[1:]))


def test_coordinate_descent_monotone_per_sweep(tiny_mixed, monkeypatch):
    # the fallback sweeps, reached through an active set that never
    # certifies, so that WLS_SWEEP_MAX caps every solve
    from qmgm import lasso

    monkeypatch.setattr(lasso, "_active_set",
                        lambda G, c, *args: (np.zeros(len(c), dtype=int),
                                             np.zeros(len(c), dtype=bool)))
    y = tiny_mixed.values[:, 1]
    X = np.delete(tiny_mixed.values, 1, axis=1)
    n = y.size
    w = np.ones(n)
    lam = 0.05

    def objective(b0, beta):
        r = y - b0 - X @ beta
        return float((w * r ** 2).sum() / (2 * n) + lam * np.abs(beta).sum())

    gram = lasso.wls_gram(X[None], w[None], y[None])
    vals = []
    for sweeps in range(1, 8):
        monkeypatch.setattr(lasso, "WLS_SWEEP_MAX", sweeps)
        beta = np.zeros((1, X.shape[1]))
        b0 = lasso.wls_step(*gram, beta, lam)[0][0]
        vals.append(objective(b0, beta[0]))
    assert all(v1 <= v0 + 1e-12 for v0, v1 in zip(vals, vals[1:]))


def test_warm_start_matches_cold_single(tiny_mixed):
    lambdas = default_lambda_grid(count=8)
    path = fit_mgm(tiny_mixed, lambdas)
    lone = fit_mgm(tiny_mixed, [lambdas[4]])
    for j in range(tiny_mixed.p):
        assert path.betas[j, 0, 4] == pytest.approx(lone.betas[j, 0, 0], abs=1e-7), j


def _node_stacks(dataset):
    """fit_mgm's inputs to the path batches: every node's predictors
    (p, n, p-1), its responses as the strided rows of values.T, and the
    family names (p,)."""
    values = dataset.values
    X = np.array([np.delete(values, j, axis=1) for j in range(dataset.p)])
    return X, values.T, np.array([FAMILY_BY_KIND[spec.kind] for spec in dataset.schema])


def _paths_batch_vs_alone(paths, dataset, lambdas, family_names):
    """Run ``paths`` over all nodes of ``dataset``, whose batch holds the
    nodes of ``family_names``, and over each of those nodes alone; assert
    each node's path is the one it gets alone, and return the batch's
    paths."""
    X, y, families = _node_stacks(dataset)
    nodes = np.nonzero(np.isin(families, list(family_names)))[0]
    assert set(families[nodes]) == family_names
    together = paths(X, y, families, lambdas)
    for i, j in enumerate(nodes):
        alone = paths(X[j:j + 1], y[j:j + 1], families[j:j + 1], lambdas)
        for field, got, want in zip(PATH_FIELDS, together, alone):
            assert np.array_equal(got[i], want[0]), (j, field)
    return together


def test_count_paths_in_lockstep_equal_each_node_alone(tiny_mixed, seed0_500):
    # the lockstep loop hands each node's step to one stacked penalized_wls
    # call and drops settled nodes from the batch; no node's path may depend
    # on the others it ran with
    from qmgm import mgm

    for dataset, lambdas, names in (
            (tiny_mixed, default_lambda_grid(count=8), {"binomial", "poisson"}),
            (seed0_500, default_lambda_grid(), {"poisson"})):
        together = _paths_batch_vs_alone(mgm._count_paths, dataset, lambdas, names)
        # the nodes settle after different numbers of outer iterations, so
        # the batch shrinks within a lambda
        assert len({tuple(work) for work in together[2]}) == len(together[2])


def test_gaussian_paths_in_one_batch_equal_each_node_alone(seed0_500):
    # the gaussian Gram forms are made over all nodes and then selected; a
    # node alone reads its response as the same strided row of values.T, so
    # its zbar, and with it the whole path, keeps its bits
    from qmgm import mgm

    together = _paths_batch_vs_alone(mgm._gaussian_paths, seed0_500, default_lambda_grid(),
                                     {"gaussian"})
    assert len(together[0]) == 5


def _assert_cube_rows_are_nodes_alone(dataset, lambdas):
    """fit_mgm's cube row of each node is the path the node gives alone."""
    from qmgm import mgm

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cube = fit_mgm(dataset, lambdas)
    X, y, families = _node_stacks(dataset)
    for j in range(dataset.p):
        paths = mgm._gaussian_paths if families[j] == "gaussian" else mgm._count_paths
        fields = (cube.intercepts, cube.betas, cube.iterations, cube.converged)
        alone = paths(X[j:j + 1], y[j:j + 1], families[j:j + 1], lambdas)
        for name, got, want in zip(PATH_FIELDS, fields, alone):
            assert np.array_equal(got[j, 0], want[0]), (j, name)


def test_interleaved_kinds_fill_each_cube_row_with_its_node_alone(tiny_mixed):
    # count, continuous, binary, continuous: the gaussian and the count
    # batches are written into the cube by node index, so each row is the
    # path its node gives alone
    order = [2, 0, 3, 1]
    ds = Dataset(tiny_mixed.values[:, order], tuple(tiny_mixed.schema[j] for j in order))
    assert [spec.kind for spec in ds.schema] == ["count", "continuous", "binary", "continuous"]
    _assert_cube_rows_are_nodes_alone(ds, default_lambda_grid(count=8))


@pytest.mark.parametrize("order", [[0, 1], [3, 2]], ids=["gaussian_only", "count_only"])
def test_one_kind_runs_the_other_batch_empty(tiny_mixed, order):
    # fit_mgm runs both batches whatever the kinds; an empty one fits
    # nothing and warns of nothing
    ds = Dataset(tiny_mixed.values[:, order], tuple(tiny_mixed.schema[j] for j in order))
    _assert_cube_rows_are_nodes_alone(ds, default_lambda_grid(count=8))


def test_path_unconverged_when_inner_solves_stop_early(tiny_mixed, monkeypatch):
    # a point whose last kernel solve is not certified is not converged,
    # even when the proximal-Newton outer iterates settle
    from qmgm import mgm

    lambdas = default_lambda_grid(count=8)
    solve, paths = mgm.penalized_wls, mgm.wls_paths

    def uncertified_solve(*args, **kwargs):
        intercepts, work, converged = solve(*args, **kwargs)
        return intercepts, work, np.zeros_like(converged)

    def uncertified_paths(*args, **kwargs):
        intercepts, betas, work, converged = paths(*args, **kwargs)
        return intercepts, betas, work, np.zeros_like(converged)

    assert fit_mgm(tiny_mixed, lambdas).converged[:, 0, -1].all()
    with monkeypatch.context() as mp:
        mp.setattr(mgm, "penalized_wls", uncertified_solve)
        mp.setattr(mgm, "wls_paths", uncertified_paths)
        cut = fit_mgm(tiny_mixed, lambdas)
    for j in (0, 2, 3):
        fam = FAMILY_BY_KIND[tiny_mixed.schema[j].kind]
        assert not cut.converged[j, 0, -1], fam
        if fam != "gaussian":
            assert cut.iterations[j, 0, -1] < mgm.OUTER_MAX_ITER, fam


def test_fit_mgm_rejects_a_bad_grid(tiny_mixed):
    # every node's lasso path is fitted through fit_mgm, which runs the
    # shared grid check first: an infinite lambda used to return a NaN
    # objective without an error
    for grid, message in (([np.inf, 0.5], "must be finite"),
                          ([0.5, -0.1], "nonnegative"),
                          ([0.1, 0.5], "strictly decreasing")):
        with pytest.raises(DataError, match=message):
            fit_mgm(tiny_mixed, grid)


def test_fit_mgm_checks_the_grid_before_fitting(tiny_mixed, monkeypatch):
    from qmgm import mgm

    def no_fit(*args):
        raise AssertionError("a node path was fitted")

    monkeypatch.setattr(mgm, "_gaussian_paths", no_fit)
    monkeypatch.setattr(mgm, "_count_paths", no_fit)
    with pytest.raises(DataError, match="strictly decreasing"):
        fit_mgm(tiny_mixed, [0.1, 0.5])


# sha256 over the intercepts, betas, converged flags and iterations of the
# mgm cube and a qmgm3 cube on the validated seed-0 generator sample (n=500),
# recorded before the count nodes were stepped in lockstep.  Like the file
# pins in test_cli.py they hold for the numpy/BLAS build they were recorded
# with (numpy 2.4.6 with its bundled OpenBLAS 0.3.31, Python 3.11, x86-64).
PINNED_CUBE_SHA256 = {
    (4, "mgm"): "99c2f143efde3ed19c304d76e4dcaf2fa03396333e98be7c5ca2beec5b7d7880",
    (4, "qmgm3"): "3e9f48dae95417fd35d749d9930920ea30767a958bb7c1058bd84ee796399868",
    (50, "mgm"): "ecf97905ae3644778ebf99d380c870adad51919eddde68b4da08134e069813ed",
    (50, "qmgm3"): "21f4b28218941788f41f4245a31df3e46dcc6f7bf78a1d1897dcbb6fd15a730f",
}


@pytest.fixture(scope="module")
def seed0_500():
    dataset, _ = generate_sample(DgpVariant("main", 500, 0))
    return validate_and_standardize(dataset)


def test_fit_mgm_does_not_depend_on_the_values_layout(seed0_500):
    # numpy reductions add in an order that follows the memory layout, so
    # a Dataset stores its values C-ordered whatever the caller passes
    fortran = Dataset(np.asfortranarray(seed0_500.values), seed0_500.schema)
    assert fortran.values.flags.c_contiguous
    lambdas = default_lambda_grid()
    want, got = fit_mgm(seed0_500, lambdas), fit_mgm(fortran, lambdas)
    for name in ("intercepts", "betas", "converged", "iterations"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("lo, count", [(0.05, 4), (0.001, 50)])
def test_cubes_pinned_coefficient_for_coefficient(seed0_500, lo, count):
    """Every coefficient, flag and iteration count of both cubes, at the
    perfbench grid and at the full-size grid: the file and edge-set pins see
    the coefficients only through thresholds and scores."""
    lambdas = default_lambda_grid(lo, 5.0, count)
    cubes = {"mgm": fit_mgm(seed0_500, lambdas),
             "qmgm3": fit_qmgm(seed0_500, standard_levels(3), lambdas)}
    for name, cube in cubes.items():
        h = hashlib.sha256()
        for field in ("intercepts", "betas", "converged", "iterations"):
            h.update(np.ascontiguousarray(getattr(cube, field)).tobytes())
        assert h.hexdigest() == PINNED_CUBE_SHA256[count, name], name
