import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qmgm.core import (CoefficientCube, DataError, Dataset, QuantileGrid, VariableSpec,
                       _one_blas_thread, derive_threshold_grid, quantile_loss,
                       standard_levels, validate_and_standardize)


def make_dataset(cols, kinds, mask=None):
    schema = tuple(VariableSpec(f"v{i}", k) for i, k in enumerate(kinds))
    return Dataset(np.column_stack(cols), schema, mask)


def test_quantile_loss_examples():
    assert quantile_loss(0.0, 0.5) == 0.0
    assert quantile_loss(-2.0, 0.25) == pytest.approx(1.5)
    assert quantile_loss(4.0, 0.75) == pytest.approx(3.0)
    # a column of levels broadcasts: each row gets the bits of its level alone
    u = np.random.default_rng(4).normal(size=(3, 5, 7))
    taus = np.array([0.125, 0.5, 0.875])
    stacked = quantile_loss(u, taus[:, None, None])
    for l, tau in enumerate(taus):
        assert np.array_equal(stacked[l], quantile_loss(u[l], float(tau)))


def test_quantile_loss_rejects_bad_tau():
    with pytest.raises(DataError):
        quantile_loss(1.0, 0.0)
    with pytest.raises(DataError):
        quantile_loss(1.0, 1.0)
    # every level of a broadcast array is checked
    with pytest.raises(DataError):
        quantile_loss(np.ones((2, 3)), np.array([[0.5], [1.0]]))


@given(u=st.floats(-1e6, 1e6), tau=st.floats(0.01, 0.99))
@example(u=5e-324, tau=0.5)
def test_quantile_loss_nonnegative(u, tau):
    val = quantile_loss(u, tau)
    assert val >= 0.0
    # below the smallest normal float the product may round to zero
    if abs(u) * min(tau, 1.0 - tau) >= np.finfo(float).tiny:
        assert val > 0.0


@given(st.floats(-1e6, 1e6))
def test_quantile_loss_median_is_half_abs(u):
    assert quantile_loss(u, 0.5) == pytest.approx(0.5 * abs(u))


def test_standardize_continuous_column():
    ds = make_dataset([np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 1.0])],
                      ["continuous", "binary"])
    out = validate_and_standardize(ds)
    col = out.values[:, 0]
    assert abs(col.mean()) < 1e-8
    assert abs(col.std() - 1.0) < 1e-8


def test_binary_column_untouched_with_grid():
    ds = make_dataset([np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 2.0, 3.0, 4.0])],
                      ["binary", "continuous"])
    out = validate_and_standardize(ds)
    assert np.array_equal(out.values[:, 0], [0, 1, 1, 0])
    assert np.array_equal(out.schema[0].threshold_grid, [0.0, 1.0])


def test_constant_column_rejected():
    ds = make_dataset([np.array([5.0, 5.0, 5.0, 5.0]), np.array([1.0, 2.0, 3.0, 4.0])],
                      ["continuous", "continuous"])
    with pytest.raises(DataError, match="constant column"):
        validate_and_standardize(ds)


def test_nonfinite_rejected():
    ds = make_dataset([np.array([1.0, np.inf, 3.0]), np.array([1.0, 2.0, 3.0])],
                      ["continuous", "continuous"])
    with pytest.raises(DataError, match="non-finite"):
        validate_and_standardize(ds)


def test_binary_outside_01_rejected():
    ds = make_dataset([np.array([0.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0])],
                      ["binary", "continuous"])
    with pytest.raises(DataError):
        validate_and_standardize(ds)


def test_negative_count_rejected():
    ds = make_dataset([np.array([1.0, -2.0, 3.0]), np.array([1.0, 2.0, 3.0])],
                      ["count", "continuous"])
    with pytest.raises(DataError):
        validate_and_standardize(ds)


def test_standardize_idempotent():
    rng = np.random.default_rng(0)
    ds = make_dataset([rng.normal(3, 2, 50), rng.poisson(4, 50).astype(float)],
                      ["continuous", "count"])
    once = validate_and_standardize(ds)
    twice = validate_and_standardize(once)
    assert np.allclose(once.values, twice.values, atol=1e-12)


def test_standardize_skips_missing_entries():
    mask = np.zeros((4, 2), dtype=bool)
    mask[0, 0] = True
    ds = make_dataset([np.array([np.nan, 1.0, 2.0, 3.0]),
                       np.array([0.0, 1.0, 0.0, 1.0])],
                      ["continuous", "binary"], mask)
    out = validate_and_standardize(ds)
    obs = out.values[1:, 0]
    assert abs(obs.mean()) < 1e-8
    assert out.missing_mask[0, 0]


def test_threshold_grid_cap_and_range():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=5000)
    grid = derive_threshold_grid(vals)
    assert grid.size <= 100
    assert np.all(np.diff(grid) > 0)
    assert grid[0] == vals.min() and grid[-1] == vals.max()
    small = derive_threshold_grid(np.array([3.0, 1.0, 1.0, 2.0]))
    assert np.array_equal(small, [1.0, 2.0, 3.0])


def test_variable_spec_defaults_and_checks():
    assert VariableSpec("a", "continuous").link == "identity"
    assert VariableSpec("a", "count").link == "log"
    assert VariableSpec("a", "binary").link == "logit"
    with pytest.raises(DataError):
        VariableSpec("a", "binary", "identity")
    with pytest.raises(DataError):
        VariableSpec("a", "nominal")
    with pytest.raises(DataError):
        VariableSpec("a", "continuous", threshold_grid=[1.0, 1.0])


def test_dataset_invariants():
    with pytest.raises(DataError):
        Dataset(np.zeros((1, 2)), (VariableSpec("a", "continuous"),
                                   VariableSpec("b", "continuous")))
    with pytest.raises(DataError):
        Dataset(np.zeros((5, 2)), (VariableSpec("a", "continuous"),))


def test_quantile_grid_validation():
    with pytest.raises(DataError):
        QuantileGrid((0.5, 0.25))
    with pytest.raises(DataError):
        QuantileGrid((0.0, 0.5))
    assert len(QuantileGrid((0.25, 0.5))) == 2


def test_standard_levels():
    assert standard_levels(1).levels == (0.5,)
    assert standard_levels(3).levels == (0.25, 0.5, 0.75)
    assert standard_levels(7).levels == pytest.approx(
        tuple(0.125 * i for i in range(1, 8)))
    lv17 = standard_levels(17).levels
    assert len(lv17) == 17
    assert lv17[0] == pytest.approx(0.1)
    assert lv17[-1] == pytest.approx(0.9)


@settings(max_examples=60, deadline=None)
@given(p=st.integers(2, 8), L=st.integers(1, 7), M=st.integers(1, 12),
       n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1), one_thread=st.booleans(),
       fortran=st.booleans())
def test_linear_predictors_equal_the_block_products_bit_for_bit(p, L, M, n, seed,
                                                                one_thread, fortran):
    # the one stacked matrix-vector product per node gives every (level,
    # lambda) block the bits of its own X_j @ beta, at one BLAS thread and
    # at the default, for sparse slopes in either memory layout
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, p) + rng.normal(size=p)
    ds = Dataset(values, tuple(VariableSpec(f"v{i}", "continuous") for i in range(p)))
    shape = (p, L, M, p - 1)
    betas = rng.normal(size=shape) * (rng.random(shape) < 0.6)
    cube = CoefficientCube(rng.normal(size=(p, L, M)),
                           np.array(betas, order="F" if fortran else "C"),
                           np.linspace(5.0, 0.01, M), np.linspace(0.1, 0.9, L),
                           np.ones((p, L, M), dtype=bool), np.ones((p, L, M), dtype=int))
    with _one_blas_thread() if one_thread else contextlib.nullcontext():
        for j in range(p):
            y, lp = cube.linear_predictors(ds, j)
            X = np.delete(ds.values, j, axis=1)
            assert np.array_equal(y, ds.values[:, j])
            for l in range(L):
                for m in range(M):
                    want = cube.intercepts[j, l, m] + X @ cube.betas[j, l, m]
                    assert np.array_equal(lp[l, m], want), (j, l, m)
