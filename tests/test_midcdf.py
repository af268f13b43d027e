import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats
from scipy.special import expit

from qmgm.benchmark import DgpVariant, generate_sample
from qmgm.core import LP_CLIP, Dataset, VariableSpec, validate_and_standardize
from qmgm.io import load_csv, load_schema
from qmgm.midcdf import (CDF_CLIP, ThresholdLogitSet, _clipped_sigmoid, _design,
                         _raw_cdf_matrix, build_field, fit_threshold_logits,
                         marginal_mid_cdf, marginal_mid_quantile, rearrange_monotone)
from qmgm.selection import build_problems

from bruteforce import (intercept_only_problem, logistic_irls_reference,
                        mid_quantile_oracle)
from descent import interpolate


def test_rearrange_examples():
    assert np.array_equal(rearrange_monotone([0.2, 0.5, 0.4, 0.9]),
                          [0.2, 0.4, 0.5, 0.9])
    assert np.array_equal(rearrange_monotone([0.1, 0.2, 0.3]), [0.1, 0.2, 0.3])
    assert np.array_equal(rearrange_monotone([1.0, 0.0]), [0.0, 1.0])


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_rearrange_is_sorted_and_preserves_multiset(values):
    out = rearrange_monotone(values)
    assert np.all(np.diff(out) >= 0)
    assert sorted(values) == list(out)


# F is recovered from pi_h = (F_h + F_{h-1}) / 2, so the recovered CDF and
# masses carry a few ulps of rounding
RECOVERY_TOL = 1e-12


def midcdf_at(logits, x):
    """build_field on the one-row X = x: the row's mid-probabilities, and
    the rearranged CDF and point masses recovered from them through
    pi_h = (F_h + F_{h-1}) / 2 with F_0 = 0."""
    pi = build_field(logits, np.asarray(x, dtype=float).reshape(1, -1))[0]
    cdf = np.empty_like(pi)
    prev = 0.0
    for h, value in enumerate(pi):
        cdf[h] = prev = 2.0 * value - prev
    return pi, cdf, np.diff(cdf, prepend=0.0)


def binary_intercept_only_problem(sample):
    return intercept_only_problem(sample, "logit")


def test_intercept_only_binary_midcdf():
    # empirical frequencies 1/2 at zero: pi(0) = 0.25, pi(1) = 0.75
    pr = binary_intercept_only_problem([0.0, 0.0, 1.0, 1.0])
    pi, cdf, _ = midcdf_at(pr.logits, np.zeros((0,)))
    assert pi == pytest.approx([0.25, 0.75], abs=1e-8)
    assert cdf == pytest.approx([0.5, 1.0], abs=1e-8)


def test_top_threshold_degenerate(tiny_mixed):
    ds = validate_and_standardize(tiny_mixed)
    logits = fit_threshold_logits(ds)[3]  # binary node
    assert logits.degenerate[-1]
    assert not logits.degenerate[0]
    _, cdf, _ = midcdf_at(logits, np.zeros(3))
    assert cdf[-1] == pytest.approx(1.0, abs=RECOVERY_TOL)


def test_intercept_only_matches_marginal_mid_cdf():
    rng = np.random.default_rng(5)
    sample = rng.poisson(3.0, 200).astype(float)
    pr = intercept_only_problem(sample, "identity")
    z, F, mass, pi = marginal_mid_cdf(sample)
    row, cdf, _ = midcdf_at(pr.logits, np.zeros((0,)))
    assert np.array_equal(pr.logits.thresholds, z)
    assert cdf == pytest.approx(F, abs=1e-8)
    assert row == pytest.approx(pi, abs=1e-8)


def test_conditional_pi_monotone_in_01(dgp_500):
    ds, _ = dgp_500
    logits = fit_threshold_logits(ds)[7]
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=ds.p - 1)
        pi, cdf, mass = midcdf_at(logits, x)
        assert np.all(pi > 0.0) and np.all(pi < 1.0)
        assert np.all(np.diff(pi) >= 0)
        assert np.all(mass >= -RECOVERY_TOL)
        # the CDF behind pi is the rearranged (sorted) threshold fits
        assert np.all(np.diff(cdf) >= -RECOVERY_TOL)


def test_interpolator_examples():
    # pi = (0.25, 0.75) at thresholds (0, 1); one row per evaluation point
    pr = binary_intercept_only_problem([0.0, 0.0, 1.0, 1.0])
    pi = build_field(pr.logits, np.zeros((3, 0)))
    vals, slopes = interpolate(pr.logits.thresholds, pi, np.array([0.0, 1.0, 0.5]))
    assert vals == pytest.approx([0.25, 0.75, 0.5], abs=1e-8)
    assert slopes == pytest.approx([0.5, 0.5, 0.5], abs=1e-8)


def test_interpolator_monotone_and_clamped(dgp_500):
    ds, _ = dgp_500
    logits = fit_threshold_logits(ds)[6]
    z = logits.thresholds
    etas = np.linspace(z[0] - 50, z[-1] + 50, 400)
    # the covariate row x = 0, repeated once per evaluation point
    pi = build_field(logits, np.zeros((etas.size, ds.p - 1)))
    vals, _ = interpolate(z, pi, etas)
    assert np.all(np.diff(vals) >= -1e-12)
    assert min(vals) >= 1e-6 and max(vals) <= 1 - 1e-6


def test_marginal_mid_quantile_examples():
    assert marginal_mid_quantile([0, 0, 1, 1], 0.5) == pytest.approx(0.5)
    assert marginal_mid_quantile([7.0] * 5, 0.3) == 7.0
    assert marginal_mid_quantile([1, 2, 2, 3], 0.5) == pytest.approx(2.0)


@given(st.lists(st.integers(0, 8), min_size=2, max_size=60),
       st.floats(0.05, 0.95))
def test_marginal_mid_quantile_matches_bruteforce(values, tau):
    got = marginal_mid_quantile(values, tau)
    assert got == pytest.approx(mid_quantile_oracle(values, tau), abs=1e-12)


def heavy_tail_raw(n, seed):
    """A t3 response with covariates that carry no information about it."""
    rng = np.random.default_rng(seed)
    values = np.column_stack([stats.t.ppf(rng.random(n), df=3)]
                             + [rng.normal(size=n) for _ in range(3)])
    schema = tuple(VariableSpec(f"v{i}", "continuous") for i in range(4))
    return Dataset(values, schema)


def heavy_tail_with_noise_covariates(n, seed):
    return validate_and_standardize(heavy_tail_raw(n, seed))


def test_continuous_node_masses_vanish():
    # a diffuse conditional distribution over a dense grid leaves no room
    # for large point masses
    ds = heavy_tail_with_noise_covariates(5000, 11)
    logits = fit_threshold_logits(ds)[0]
    X = np.delete(ds.values, 0, axis=1)
    worst = 0.0
    for i in range(50):
        _, _, mass = midcdf_at(logits, X[i])
        worst = max(worst, mass.max())
    assert worst < 0.1


def test_independent_node_slopes_shrink():
    ds = heavy_tail_with_noise_covariates(5000, 21)
    logits = fit_threshold_logits(ds)[0]
    y = ds.values[:, 0]
    share = np.array([(y <= z).mean() for z in logits.thresholds])
    interior = (share > 0.05) & (share < 0.95)
    slopes = np.abs(logits.coefficients[interior, 1:])
    assert np.median(slopes) < 0.05
    assert slopes.max() < 0.3


def test_t3_conditional_cdf_matches_marginal_when_uninformative():
    # with uninformative covariates the fitted conditional CDF tracks the
    # marginal t3 distribution of the response
    raw = heavy_tail_raw(5000, 13)
    ds = validate_and_standardize(raw)
    logits = fit_threshold_logits(ds)[0]
    # the column was standardized with these
    center, scale = np.mean(raw.values[:, 0]), np.std(raw.values[:, 0])
    X = np.delete(ds.values, 0, axis=1)
    rng = np.random.default_rng(0)
    errs = []
    for i in rng.integers(0, 5000, size=25):
        _, cdf, _ = midcdf_at(logits, X[i])
        raw = logits.thresholds * scale + center
        errs.append(np.max(np.abs(cdf - stats.t.cdf(raw, df=3))))
    assert np.median(errs) < 0.05


def test_t3_generator_node_marginal_cdf():
    # the first generator column is marginally t3; its sample mid-CDF at the
    # thresholds must match the analytic CDF
    dataset, _ = generate_sample(DgpVariant("main", 5000, 13))
    z, F, _, _ = marginal_mid_cdf(dataset.values[:, 0])
    sel = np.linspace(0, z.size - 1, 200).astype(int)
    assert np.max(np.abs(F[sel] - stats.t.cdf(z[sel], df=3))) < 0.05


def assert_matches_reference(logits, y, X):
    coefs, converged, degenerate = logistic_irls_reference(y, X, logits.thresholds)
    assert np.array_equal(logits.converged, converged)
    assert np.array_equal(logits.degenerate, degenerate)
    ok = converged & ~degenerate
    np.testing.assert_allclose(logits.coefficients[ok], coefs[ok], rtol=0, atol=1e-9)
    ref = ThresholdLogitSet(logits.node, logits.thresholds, coefs, converged,
                            degenerate)
    np.testing.assert_allclose(build_field(logits, X), build_field(ref, X),
                               rtol=0, atol=1e-9)
    return converged, degenerate


def one_row_below_first_threshold():
    """y falls with x, except the row with the largest x, which alone sits
    at the first threshold: a separable threshold whose fit diverges."""
    rng = np.random.default_rng(4)
    X = rng.normal(size=(80, 2))
    y = np.round(-X[:, 0] + 0.5 * rng.normal(size=80), 1)
    top = np.argmax(X[:, 0])
    y[top] = y.min() - 1.0
    return y, X, top


def logits_of_first_column(y, X, z):
    """Threshold logits of y on X through ``fit_threshold_logits``: the
    dataset [y, X] gives y the grid z and every other column a grid at or
    above its maximum, whose thresholds are all degenerate, so the stacked
    solve holds y's thresholds alone."""
    grids = [z] + [col.max() + np.arange(2.0) for col in X.T]
    schema = tuple(VariableSpec(f"v{j}", "continuous", threshold_grid=grid)
                   for j, grid in enumerate(grids))
    return fit_threshold_logits(Dataset(np.column_stack([y, X]), schema))[0]


def generator_nodes(seed):
    """Every node of a generator sample, from one all-node stacked solve."""
    ds, _ = generate_sample(DgpVariant("main", 500, seed))
    ds = validate_and_standardize(ds)
    return [(pr.logits, pr.y, pr.X) for pr in build_problems(ds)]


def separated_and_degenerate_nodes():
    """Node 0 has a separated first threshold (as in
    ``one_row_below_first_threshold``) and node 1 a degenerate top
    threshold, so one stack mixes both."""
    y, X, top = one_row_below_first_threshold()
    grids = (np.array([y[top], np.median(y)]),
             np.quantile(np.unique(X[:, 0]), [0.2, 0.5, 1.0]),
             np.quantile(X[:, 1], [0.3, 0.7]))
    schema = tuple(VariableSpec(f"v{j}", "continuous", threshold_grid=z)
                   for j, z in enumerate(grids))
    return Dataset(np.column_stack([y, X]), schema)


@pytest.mark.parametrize("case", ["seed0", "seed1", "seed2", "seed3",
                                  "separated", "degenerate_top", "mixed_stack",
                                  "marginal", "singular_solve"])
def test_stacked_threshold_logits_match_reference(case, monkeypatch):
    # the stacked Newton loop over all (node, threshold) pairs reproduces
    # separate per-threshold IRLS fits: same flags, same fixed points
    if case.startswith("seed"):
        flags = [assert_matches_reference(*fit)[0]
                 for fit in generator_nodes(int(case[4:]))]
        assert not np.concatenate(flags).all()  # separated thresholds occur
    elif case == "mixed_stack":
        problems = build_problems(separated_and_degenerate_nodes())
        flags = [assert_matches_reference(pr.logits, pr.y, pr.X) for pr in problems]
        assert list(flags[0][0]) == [False, True] and not flags[0][1].any()
        assert list(flags[1][1]) == [False, False, True]
    elif case == "separated":
        y, X, top = one_row_below_first_threshold()
        z = np.array([y[top], np.median(y)])
        assert (y <= z[0]).sum() == 1
        logits = logits_of_first_column(y, X, z)
        converged, degenerate = assert_matches_reference(logits, y, X)
        assert list(converged) == [False, True] and not degenerate.any()
    elif case == "degenerate_top":
        y, X, _ = one_row_below_first_threshold()
        z = np.quantile(np.unique(y), [0.2, 0.5, 1.0])
        logits = logits_of_first_column(y, X, z)
        _, degenerate = assert_matches_reference(logits, y, X)
        assert list(degenerate) == [False, False, True]
    elif case == "marginal":
        # beside an all-zero column, whose slope the Newton steps never
        # move, the regression is the intercept-only one
        sample = np.random.default_rng(5).poisson(3.0, 200).astype(float)
        zero = np.zeros((sample.size, 1))
        logits = logits_of_first_column(sample, zero, np.unique(sample))
        assert not logits.coefficients[:, 1].any()
        assert_matches_reference(logits, sample, zero)
    else:
        # the stacked solve fails; per slice, every other solve fails too
        # and falls back to least squares (in the reference as well)
        solve, calls, stacked = np.linalg.solve, itertools.count(), []

        def flaky_solve(a, b):
            if np.ndim(a) == 3:
                stacked.append(a.shape[0])
                raise np.linalg.LinAlgError("forced")
            if next(calls) % 2:
                raise np.linalg.LinAlgError("forced")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", flaky_solve)
        y, X, top = one_row_below_first_threshold()
        z = np.array([y[top], np.median(y), y.max()])
        logits = logits_of_first_column(y, X, z)
        assert stacked and max(stacked) == 2
        converged, _ = assert_matches_reference(logits, y, X)
        assert list(converged) == [False, True, True]


# where the logistic function is within MU_CLIP of 0 or 1, the clip binds
CLIP_BINDS = 23.1


def test_shared_lp_clip_sits_where_the_mean_clip_binds():
    # stage 1 clips its linear predictor at the LP_CLIP it shares with the
    # mgm count nodes; any clip at or past CLIP_BINDS gives the same bits
    assert LP_CLIP >= CLIP_BINDS


@given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40))
def test_clipped_sigmoid_matches_clipped_expit(etas):
    eta = np.array(etas)
    ref = np.clip(expit(eta), 1e-10, 1.0 - 1e-10)
    got = _clipped_sigmoid(eta.copy())
    binds = np.abs(eta) >= CLIP_BINDS
    assert np.array_equal(got[binds], ref[binds])
    assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))


def test_clipped_sigmoid_does_not_overflow():
    eta = np.array([-1e9, -700.0, -CLIP_BINDS, 0.0, CLIP_BINDS, 700.0, 1e9])
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        got = _clipped_sigmoid(eta.copy())
    assert np.array_equal(got, np.clip(expit(eta), 1e-10, 1.0 - 1e-10))


def test_field_sigmoid_within_2_ulp_of_clipped_expit(small_csv):
    # build_field evaluates the threshold logits with stage 1's sigmoid; the
    # CDF values and the mid-probabilities made from them stay within the
    # 2 ulp that _clipped_sigmoid keeps to np.clip(expit(eta), ...)
    seed0, _ = generate_sample(DgpVariant("main", 500, 0))
    csv_path, schema_path = small_csv
    table = load_csv(csv_path, load_schema(schema_path))
    for dataset in (seed0, table):
        for problem in build_problems(validate_and_standardize(dataset)):
            logits = problem.logits
            F = np.clip(expit(_design(problem.X) @ logits.coefficients.T),
                        CDF_CLIP, 1.0 - CDF_CLIP)
            F[:, logits.degenerate] = 1.0
            np.testing.assert_array_max_ulp(_raw_cdf_matrix(logits, problem.X), F, maxulp=2)
            F = rearrange_monotone(F)
            np.testing.assert_array_max_ulp(
                problem.pi, F - 0.5 * np.diff(F, prepend=0.0, axis=1), maxulp=2)


def test_fit_requires_validated_data(tiny_mixed):
    with pytest.raises(Exception):
        fit_threshold_logits(tiny_mixed)  # no threshold grids yet
