import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit, xlogy

from qmgm.benchmark import (DgpVariant, LearnerConfig, default_lambda_grid, generate_sample,
                            run_replications)
from qmgm.core import (CoefficientCube, DataError, Dataset, NONZERO_TOL,
                       SIGN_LABELS, VariableSpec, quantile_loss, standard_levels,
                       validate_and_standardize)
from qmgm.mgm import deviance_losses, fit_mgm
from qmgm import benchmark, mgm, selection
from qmgm.penalized import fit_lambda_paths
from qmgm.selection import (CRITERION_NAMES, SelectionCriterion, build_problems,
                            edge_adjacencies, estimate_edge_set, fit_qmgm,
                            quantile_losses, score_path, select_lambda)

from bruteforce import deviance_losses_reference, edge_set_reference, score_reference


def cube_from_B(B, lambdas=(1.0,), taus=None):
    """Build a cube with B[j, l, k] = coefficient of node k in node j's
    regression, replicated over the lambda axis."""
    B = np.asarray(B, dtype=float)
    p, L = B.shape[0], B.shape[1]
    M = len(lambdas)
    betas = np.zeros((p, L, M, p - 1))
    for j in range(p):
        others = [k for k in range(p) if k != j]
        for mi in range(M):
            betas[j, :, mi, :] = B[j][:, others]
    taus = np.linspace(0.25, 0.75, L) if taus is None else np.asarray(taus)
    return CoefficientCube(np.zeros((p, L, M)), betas, np.asarray(lambdas),
                           taus, np.ones((p, L, M), bool),
                           np.ones((p, L, M), int))


@pytest.mark.parametrize("field", ["betas", "intercepts"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cube_rejects_non_finite_coefficients(field, bad):
    cube = cube_from_B(np.zeros((3, 2, 3)), lambdas=(1.0, 0.5))
    arrays = {"intercepts": cube.intercepts.copy(), "betas": cube.betas.copy()}
    arrays[field][1, 0, 1, ...] = bad
    with pytest.raises(DataError, match="non-finite"):
        CoefficientCube(arrays["intercepts"], arrays["betas"], cube.lambda_grid,
                        cube.tau_levels, cube.converged, cube.iterations)


def test_edge_set_empty_below_tolerance():
    B = np.full((3, 2, 3), 1e-9)
    for j in range(3):
        B[j, :, j] = 0
    g = estimate_edge_set(cube_from_B(B), 0, 1e-6)
    assert g.n_edges == 0
    assert np.all(g.sign == 0)


def test_edge_set_or_rule_and_strength():
    B = np.zeros((3, 2, 3))
    B[0, 1, 2] = 0.8          # node 0 on node 2, second level only
    g = estimate_edge_set(cube_from_B(B, taus=[0.25, 0.75]), 0, 1e-6)
    assert g.n_edges == 1
    assert g.adjacency[0, 2] and g.adjacency[2, 0]
    assert g.strength[0, 2] == pytest.approx(0.8)
    assert SIGN_LABELS[int(g.sign[0, 2])] == "positive"
    assert g.prov_tau[0, 2] == pytest.approx(0.75)
    assert g.attained_by[0, 2] == 0


def test_edge_sign_rules():
    # both directions exceed with disagreeing signs -> undefined
    B = np.zeros((2, 1, 2))
    B[0, 0, 1] = 0.5
    B[1, 0, 0] = -0.4
    g = estimate_edge_set(cube_from_B(B), 0, 1e-6)
    assert SIGN_LABELS[int(g.sign[0, 1])] == "undefined"
    # agreeing signs -> that sign
    B[1, 0, 0] = 0.4
    g = estimate_edge_set(cube_from_B(B), 0, 1e-6)
    assert SIGN_LABELS[int(g.sign[0, 1])] == "positive"
    # single direction -> its sign
    B[1, 0, 0] = 0.0
    B[0, 0, 1] = -0.5
    g = estimate_edge_set(cube_from_B(B), 0, 1e-6)
    assert SIGN_LABELS[int(g.sign[0, 1])] == "negative"
    assert g.attained_by[0, 1] == 0


def test_edge_set_symmetry_and_tolerance_monotone():
    rng = np.random.default_rng(2)
    B = rng.normal(scale=0.1, size=(5, 3, 5))
    cube = cube_from_B(B)
    prev_edges = None
    for tol in (1e-6, 0.05, 0.1, 0.2):
        g = estimate_edge_set(cube, 0, tol)
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert not g.adjacency.diagonal().any()
        edges = {(a, b) for a, b, *_ in g.edges()}
        if prev_edges is not None:
            assert edges.issubset(prev_edges)
        prev_edges = edges


def assert_stack_equals_graphs(cube, tol):
    stack = edge_adjacencies(cube, tol)
    assert stack.shape == (cube.n_lambdas, cube.p, cube.p) and stack.dtype == bool
    for mi in range(cube.n_lambdas):
        assert np.array_equal(stack[mi], estimate_edge_set(cube, mi, tol).adjacency), mi


@pytest.mark.parametrize("p", [2, 3, 6])
@pytest.mark.parametrize("tol", [0.0, NONZERO_TOL, 0.5])
def test_adjacency_stack_equals_the_graph_at_every_lambda(p, tol):
    # coefficients drawn from a few values, so levels tie, the two
    # directions of a pair often have equal magnitudes of opposite sign,
    # and many |b| equal the tolerance exactly
    rng = np.random.default_rng(p)
    values = np.array([0.0, tol, -tol, 0.5, -0.5, 1e-300])
    for L, M in ((1, 1), (3, 5), (7, 4)):
        betas = values[rng.integers(0, values.size, (p, L, M, p - 1))]
        cube = CoefficientCube(np.zeros((p, L, M)), betas, default_lambda_grid(count=M),
                               np.linspace(0.25, 0.75, L), np.ones((p, L, M), bool),
                               np.ones((p, L, M), int))
        assert_stack_equals_graphs(cube, tol)


def test_edge_set_tie_rules():
    # node 0's two levels tie at |0.5| with opposite signs; node 1's
    # maximum equals node 0's, so the pair's maximum is attained both ways
    B = np.zeros((2, 2, 2))
    B[0, :, 1] = [-0.5, 0.5]
    B[1, :, 0] = [0.25, 0.5]
    g = estimate_edge_set(cube_from_B(B, taus=[0.25, 0.75]), 0, 1e-6)
    assert g.attained_by[0, 1] == g.attained_by[1, 0] == 0     # the smaller index
    assert g.prov_tau[0, 1] == 0.25                            # node 0's first level
    assert SIGN_LABELS[int(g.sign[0, 1])] == "undefined"       # -1 there against node 1's +1


@pytest.mark.parametrize("p", [2, 3, 6])
@pytest.mark.parametrize("tol", [0.0, NONZERO_TOL, 0.5])
def test_edge_set_equals_the_per_pair_reference(p, tol):
    # the tie-heavy cubes of the adjacency-stack test above, every field
    rng = np.random.default_rng(10 + p)
    values = np.array([0.0, tol, -tol, 0.5, -0.5, 1e-300])
    for L, M in ((1, 1), (3, 5), (7, 4)):
        betas = values[rng.integers(0, values.size, (p, L, M, p - 1))]
        cube = CoefficientCube(np.zeros((p, L, M)), betas, default_lambda_grid(count=M),
                               np.linspace(0.25, 0.75, L), np.ones((p, L, M), bool),
                               np.ones((p, L, M), int))
        for mi in range(M):
            g, want = estimate_edge_set(cube, mi, tol), edge_set_reference(cube, mi, tol)
            assert g.sign.dtype == np.int8
            for name, field in want.items():
                assert np.array_equal(getattr(g, name), field, equal_nan=True), (L, mi, name)


def test_adjacency_stack_hand_cases():
    B = np.zeros((3, 2, 3))
    B[0, 1, 1], B[1, 0, 0] = 0.5, -0.5      # opposite signs, equal magnitude
    B[0, :, 2] = 0.25                       # tied across levels, |b| == tol
    cube = cube_from_B(B, lambdas=(1.0, 0.5))
    stack = edge_adjacencies(cube, 0.25)
    assert stack[:, 0, 1].all() and stack[:, 1, 0].all()
    assert not stack[:, 0, 2].any() and not stack[:, 2, 0].any()
    assert edge_adjacencies(cube, 0.0)[:, 0, 2].all()
    for tol in (0.0, 0.25):
        assert_stack_equals_graphs(cube, tol)


def test_adjacency_stack_of_fitted_cubes(dgp_500):
    ds, _ = dgp_500
    lambdas = default_lambda_grid(count=6)
    for cube in (fit_qmgm(ds, standard_levels(7), lambdas), fit_mgm(ds, lambdas)):
        for tol in (0.0, NONZERO_TOL, 0.05):
            assert_stack_equals_graphs(cube, tol)


def linear_dataset():
    rng = np.random.default_rng(0)
    n = 40
    x0 = rng.normal(size=n)
    x1 = 0.5 * x0 + 0.1 * rng.normal(size=n)
    x2 = rng.normal(size=n)
    schema = tuple(VariableSpec(f"v{i}", "continuous") for i in range(3))
    return Dataset(np.column_stack([x0, x1, x2]), schema)


def test_bic_complexity_increment():
    # bumping one coefficient above the tolerance adds exactly
    # ln(n) ln(p-1) cn / (2n) while residuals move negligibly
    ds = linear_dataset()
    n, p = ds.n, ds.p
    B = np.zeros((3, 1, 3))
    cube0 = cube_from_B(B, taus=[0.5])
    B[2, 0, 0] = 2e-6          # counted as active, numerically irrelevant
    cube1 = cube_from_B(B, taus=[0.5])
    crit = SelectionCriterion.from_name("bicp", p)
    s0 = score_path(cube0, quantile_losses(cube0, ds), [crit], n)[0, 0]
    s1 = score_path(cube1, quantile_losses(cube1, ds), [crit], n)[0, 0]
    expected = np.log(n) * np.log(p - 1) * crit.cn / (2 * n)
    assert s1 - s0 == pytest.approx(expected, rel=1e-4)


def test_bic_guard_for_zero_residuals():
    ds = linear_dataset()
    B = np.zeros((3, 1, 3))
    cube = cube_from_B(B, taus=[0.5])
    crit = SelectionCriterion("bic", 1.0)
    score = score_path(cube, np.zeros((3, 1, 1)), [crit], ds.n)[0, 0]
    assert score == pytest.approx(3 * np.log(1e-12))


def test_criterion_presets():
    assert SelectionCriterion.from_name("bicp", 10).cn == pytest.approx(np.log(9))
    assert SelectionCriterion.from_name("bicp", 10).cn == pytest.approx(2.197, abs=0.003)
    assert SelectionCriterion.from_name("bic2p", 10).cn == pytest.approx(np.log(9) / 2)
    assert SelectionCriterion.from_name("bic3p", 10).cn == pytest.approx(np.log(9) / 3)
    assert SelectionCriterion.from_name("bic", 10).cn == 1.0
    assert SelectionCriterion.from_name("aic", 10).kind == "aic"
    with pytest.raises(DataError):
        SelectionCriterion.from_name("bicx", 10)
    with pytest.raises(DataError):
        SelectionCriterion("bic", 0.0)


def test_aic_examples():
    ds = linear_dataset()
    B = np.zeros((3, 1, 3))
    cube = cube_from_B(B, taus=[0.5])
    aic = SelectionCriterion("aic")
    unit_loss = np.ones((3, 1, 1))
    assert score_path(cube, unit_loss, [aic], ds.n)[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert score_path(cube, np.full((3, 1, 1), 7.5), [aic], ds.n)[0, 0] == pytest.approx(
        3 * np.log(7.5), abs=1e-9)
    # one active coefficient costs 2/(2n) per block
    B[0, 0, 1] = 1.0
    cube1 = cube_from_B(B, taus=[0.5])
    delta = (score_path(cube1, unit_loss, [aic], ds.n)[0, 0]
             - score_path(cube, unit_loss, [aic], ds.n)[0, 0])
    assert delta == pytest.approx(1.0 / ds.n, abs=1e-12)


def _last_lambda(cube):
    """The cube restricted to its smallest lambda (a one-point grid)."""
    return CoefficientCube(cube.intercepts[:, :, -1:], cube.betas[:, :, -1:],
                           cube.lambda_grid[-1:], cube.tau_levels,
                           cube.converged[:, :, -1:], cube.iterations[:, :, -1:])


@pytest.mark.parametrize("seed", [0, 1])
def test_score_path_equals_blockwise_reference(seed):
    # one loss pass and one scoring call per cube score every criterion
    # exactly as the block-by-block sum did, for the quantile and deviance
    # losses, on a short grid and on a one-lambda grid, at two edge
    # tolerances
    ds, _ = generate_sample(DgpVariant("main", 200, seed))
    ds = validate_and_standardize(ds)
    lambdas = default_lambda_grid(count=4)
    octiles = fit_lambda_paths(build_problems(ds), standard_levels(7).levels, lambdas)
    fits = [(fit_qmgm(ds, standard_levels(L), lambdas, fitted=octiles),
             quantile_losses, None) for L in (1, 3, 7)]
    fits.append((fit_mgm(ds, lambdas), deviance_losses,
                 deviance_losses_reference(ds)))
    crits = [SelectionCriterion.from_name(name, ds.p) for name in CRITERION_NAMES]
    checked = 0
    for full, losses_of, block_loss in fits:
        for cube in (full, _last_lambda(full)):
            losses = losses_of(cube, ds)
            assert score_path(cube, losses, [], ds.n).shape == (0, cube.n_lambdas)
            for tol in (NONZERO_TOL, 0.05):
                scores = score_path(cube, losses, crits, ds.n, nonzero_tol=tol)
                assert scores.shape == (len(crits), cube.n_lambdas)
                for name, crit, got in zip(CRITERION_NAMES, crits, scores):
                    want = [score_reference(cube, mi, ds, crit.kind, crit.cn,
                                            block_loss, False, tol)
                            for mi in range(cube.n_lambdas)]
                    assert got.tolist() == want, (cube.n_levels, name, tol)
                    checked += cube.n_lambdas
    assert checked == 4 * 5 * 2 * 5


def _block_deviance(kind, y, lp):
    """Family deviance of one block from its linear predictor n-vector."""
    if kind == "continuous":
        return np.sum((y - lp) ** 2)
    lp = np.clip(lp, -mgm.LP_CLIP, mgm.LP_CLIP)
    if kind == "binary":
        mu = np.clip(expit(lp), 1e-10, 1.0 - 1e-10)
        return 2.0 * np.sum(xlogy(y, y / mu) + xlogy(1.0 - y, (1.0 - y) / (1.0 - mu)))
    mu = np.clip(np.exp(lp), 1e-10, None)
    return 2.0 * np.sum(xlogy(y, y / mu) - (y - mu))


def test_loss_entries_equal_the_block_formula_bit_for_bit(tiny_mixed):
    # each entry of the one-pass loss arrays is the loss its block gives
    # alone, for gaussian, poisson and binomial nodes
    ds = validate_and_standardize(tiny_mixed)
    assert {spec.kind for spec in ds.schema} == {"continuous", "count", "binary"}
    lambdas = default_lambda_grid(count=5)
    qcube = fit_qmgm(ds, standard_levels(3), lambdas)
    mcube = fit_mgm(ds, lambdas)
    qloss, mloss = quantile_losses(qcube, ds), deviance_losses(mcube, ds)
    assert qloss.shape == (4, 3, 5) and mloss.shape == (4, 1, 5)
    for j, spec in enumerate(ds.schema):
        y, X = ds.values[:, j], np.delete(ds.values, j, axis=1)
        for l, tau in enumerate(qcube.tau_levels):
            for m in range(lambdas.size):
                lp = qcube.intercepts[j, l, m] + X @ qcube.betas[j, l, m]
                want = quantile_loss(y - lp, float(tau)).sum()
                assert qloss[j, l, m].tobytes() == want.tobytes(), (j, l, m)
        for m in range(lambdas.size):
            lp = mcube.intercepts[j, 0, m] + X @ mcube.betas[j, 0, m]
            want = _block_deviance(spec.kind, y, lp)
            assert mloss[j, 0, m].tobytes() == want.tobytes(), (spec.kind, m)


def test_select_lambda_rules():
    lam = np.array([5.0, 2.0, 1.0, 0.5])
    idx, val = select_lambda([4.0, 1.0, 2.0, 3.0], lam)
    assert (idx, val) == (1, 2.0)
    idx, val = select_lambda([4.0, 3.0, 2.0, 1.0], lam)
    assert (idx, val) == (3, 0.5)
    idx, val = select_lambda([2.0, 1.0, 1.0, 3.0], lam)
    assert (idx, val) == (1, 2.0)   # tie resolves to the larger lambda


@given(st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
def test_select_lambda_affine_invariance(a, b):
    lam = np.array([3.0, 1.0, 0.3])
    scores = np.array([2.0, 0.5, 1.0])
    base = select_lambda(scores, lam)
    assert select_lambda(a * scores + b, lam) == base


def test_fit_qmgm_cube_shape_and_selection(dgp_500):
    ds, _ = dgp_500
    lambdas = default_lambda_grid(count=8)
    cube = fit_qmgm(ds, standard_levels(3), lambdas)
    assert cube.betas.shape == (10, 3, 8, 9)
    assert np.all(np.isfinite(cube.intercepts)) and np.all(np.isfinite(cube.betas))
    crit = SelectionCriterion.from_name("bicp", ds.p)
    scores = score_path(cube, quantile_losses(cube, ds), [crit], ds.n)[0]
    idx, lam = select_lambda(scores, lambdas)
    assert 0 <= idx < 8
    # the largest grid value keeps every model empty on standardized data
    assert estimate_edge_set(cube, 0).n_edges == 0


def test_fit_qmgm_single_level_matches_grid_object(dgp_500):
    ds, _ = dgp_500
    lambdas = default_lambda_grid(count=4)
    c1 = fit_qmgm(ds, standard_levels(1), lambdas)
    assert c1.tau_levels == pytest.approx([0.5])
    assert c1.betas.shape[1] == 1


CUBE_FIELDS = ("intercepts", "betas", "converged", "iterations")


def assert_same_cube(a, b):
    for name in CUBE_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@pytest.mark.parametrize("learners", [("qmgm1", "qmgm3", "qmgm7", "mgm"), ("qmgm7", "qmgm5")],
                         ids=["nested", "not_nested"])
def test_replication_fits_the_union_of_its_levels_once(learners, monkeypatch):
    # one fit_lambda_paths call at the sorted union of the learners' levels,
    # then one fit_qmgm call per qmgm learner, in learner order, each giving
    # the cube a fresh fit on its own grid gives, in all four fields
    variant, lambdas = DgpVariant("main", 200, 3), default_lambda_grid(count=4)
    ds = validate_and_standardize(generate_sample(variant)[0])
    grids = [LearnerConfig.from_name(name).levels for name in learners if name != "mgm"]
    fresh = [fit_qmgm(ds, grid, lambdas) for grid in grids]
    taus, cubes = [], []
    real_paths, real_fit = benchmark.fit_lambda_paths, benchmark.fit_qmgm

    def counted(problems, levels, *args):
        taus.append(list(levels))
        return real_paths(problems, levels, *args)

    def kept(dataset, grid, *args, **kwargs):
        cubes.append(real_fit(dataset, grid, *args, **kwargs))
        return cubes[-1]

    # both bindings: the replication's union fit, and any fit in fit_qmgm
    monkeypatch.setattr(benchmark, "fit_lambda_paths", counted)
    monkeypatch.setattr(selection, "fit_lambda_paths", counted)
    monkeypatch.setattr(benchmark, "fit_qmgm", kept)
    run = run_replications(learners, variant, 1, lambdas=lambdas)
    assert not run.failures
    assert taus == [sorted({tau for grid in grids for tau in grid.levels})]
    assert [cube.tau_levels.tolist() for cube in cubes] == [list(g.levels) for g in grids]
    for cube, want in zip(cubes, fresh):
        assert_same_cube(cube, want)


def test_fitted_cube_without_the_levels_or_lambdas_is_a_data_error(dgp_500):
    ds, _ = dgp_500
    lambdas = default_lambda_grid(count=3)
    fitted = fit_lambda_paths(build_problems(ds), standard_levels(3).levels, lambdas)
    assert_same_cube(fit_qmgm(ds, standard_levels(1), lambdas, fitted=fitted),
                     fit_qmgm(ds, standard_levels(1), lambdas))
    with pytest.raises(DataError, match=r"lacks levels \[0.125, 0.375"):
        fit_qmgm(ds, standard_levels(7), lambdas, fitted=fitted)
    for other in (lambdas[:2], 0.5 * lambdas):
        with pytest.raises(DataError, match="another lambda grid"):
            fit_qmgm(ds, standard_levels(1), other, fitted=fitted)


def test_independent_appendix_columns_stay_disconnected():
    base, _ = generate_sample(DgpVariant("main", 600, 23))
    rng = np.random.default_rng(99)
    extra = np.column_stack([rng.normal(size=600), rng.poisson(2.0, 600)])
    values = np.column_stack([base.values, extra])
    schema = base.schema + (VariableSpec("ind1", "continuous"),
                            VariableSpec("ind2", "count"))
    ds = validate_and_standardize(Dataset(values, schema))
    lambdas = np.asarray([0.3])
    cube = fit_qmgm(ds, standard_levels(1), lambdas)
    g = estimate_edge_set(cube, 0, 0.05)
    touching = g.adjacency[10:, :].sum()
    assert touching == 0


def test_fit_qmgm_rejects_missing(tiny_mixed):
    mask = np.zeros((tiny_mixed.n, tiny_mixed.p), dtype=bool)
    mask[0, 0] = True
    ds = Dataset(tiny_mixed.values, tiny_mixed.schema, mask)
    with pytest.raises(DataError):
        fit_qmgm(ds, standard_levels(1), [0.5])


@pytest.mark.parametrize("grid, message", [
    ([0.1, 0.5], "strictly decreasing"), ([np.inf, 0.5], "must be finite"),
    ([0.5, -0.1], "nonnegative"), ([], "nonempty")])
def test_fit_qmgm_checks_the_grid_before_stage_one(tiny_mixed, monkeypatch,
                                                   grid, message):
    def no_stage_one(dataset):
        raise AssertionError("stage 1 ran")

    monkeypatch.setattr(selection, "build_problems", no_stage_one)
    ds = validate_and_standardize(tiny_mixed)
    with pytest.raises(DataError, match=message):
        fit_qmgm(ds, standard_levels(2), grid)


@pytest.mark.parametrize("tol", [-1.0, np.nan, np.inf])
def test_fit_and_edge_extraction_reject_bad_tolerance(tol):
    # the fit takes no tolerance; ``qmgm fit`` checks --tolerance before it
    # reads the data (tests/test_cli.py)
    cube = cube_from_B(np.zeros((3, 1, 3)))
    with pytest.raises(DataError, match="tolerance must be finite and >= 0"):
        estimate_edge_set(cube, 0, tol)
    with pytest.raises(DataError, match="tolerance must be finite and >= 0"):
        edge_adjacencies(cube, tol)


def test_zero_tolerance_counts_every_nonzero_coefficient():
    B = np.zeros((3, 1, 3))
    B[0, 0, 1] = 1e-300
    assert estimate_edge_set(cube_from_B(B), 0, 0.0).n_edges == 1
