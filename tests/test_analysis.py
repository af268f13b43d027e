import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmgm.analysis import centrality, gower_distances, hamming_distance, \
    knn_impute, weighted_centrality
from qmgm.core import DataError, Dataset, VariableSpec

from bruteforce import hamming_oracle


def adj_from_edges(p, edges):
    adj = np.zeros((p, p), dtype=bool)
    for a, b in edges:
        adj[a, b] = adj[b, a] = True
    return adj


def missing_dataset():
    rng = np.random.default_rng(6)
    n = 40
    values = np.column_stack([
        rng.normal(size=n),
        rng.poisson(3.0, n).astype(float),
        (rng.random(n) < 0.5).astype(float),
    ])
    mask = np.zeros((n, 3), dtype=bool)
    mask[0, 0] = mask[3, 2] = True
    values[mask] = np.nan
    schema = (VariableSpec("a", "continuous"), VariableSpec("b", "count"),
              VariableSpec("c", "binary"))
    return Dataset(values, schema, mask)


def test_impute_noop_without_missing(tiny_mixed):
    assert knn_impute(tiny_mixed, 5) is tiny_mixed


def test_impute_fills_and_clears_mask():
    ds = missing_dataset()
    out = knn_impute(ds, 7)
    assert not out.missing_mask.any()
    assert np.all(np.isfinite(out.values))
    untouched = ~ds.missing_mask
    assert np.array_equal(out.values[untouched], ds.values[untouched])
    assert out.values[3, 2] in (0.0, 1.0)


def test_impute_constant_neighbors():
    values = np.column_stack([
        np.concatenate([[np.nan], np.full(19, 4.2)]),
        np.arange(20, dtype=float),
    ])
    mask = np.zeros((20, 2), dtype=bool)
    mask[0, 0] = True
    ds = Dataset(values, (VariableSpec("a", "continuous"),
                          VariableSpec("b", "continuous")), mask)
    out = knn_impute(ds, 5)
    assert out.values[0, 0] == 4.2


def test_impute_requires_enough_complete_rows():
    ds = missing_dataset()
    with pytest.raises(DataError, match="complete rows"):
        knn_impute(ds, 39)


def _impute_by_np_median(ds, k):
    """knn_impute as written with np.median: same neighbours, same binary tie rule."""
    mask, values = ds.missing_mask, np.array(ds.values, copy=True)
    complete = np.flatnonzero(~mask.any(axis=1))
    kinds = [s.kind for s in ds.schema]
    ranges = np.array([np.ptp(ds.column(c)) for c in range(ds.p)])
    incomplete = np.flatnonzero(mask.any(axis=1))
    dists = gower_distances(values[incomplete], ~mask[incomplete], values[complete],
                            kinds, ranges)
    for i, row in zip(incomplete, dists):
        nearest = complete[np.argsort(row, kind="stable")[:k]]
        for c in np.flatnonzero(mask[i]):
            med = float(np.median(values[nearest, c]))
            if kinds[c] == "binary" and med not in (0.0, 1.0):
                med = 1.0 if np.sum(values[complete, c]) > complete.size / 2 else 0.0
            values[i, c] = med
    return values


@pytest.mark.parametrize("k", [1, 2, 4, 13, 14])
def test_impute_median_equals_np_median_bit_for_bit(k):
    rng = np.random.default_rng(11)
    n = 60
    values = np.column_stack([rng.normal(size=n) * 3.7, rng.poisson(3.0, n).astype(float),
                              (rng.random(n) < 0.5).astype(float), rng.uniform(-1, 1, n)])
    mask = rng.random((n, 4)) < 0.08
    values[mask] = np.nan
    schema = (VariableSpec("a", "continuous"), VariableSpec("b", "count"),
              VariableSpec("c", "binary"), VariableSpec("d", "continuous"))
    ds = Dataset(values, schema, mask)
    got, want = knn_impute(ds, k).values, _impute_by_np_median(ds, k)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_impute_deterministic():
    ds = missing_dataset()
    a = knn_impute(ds, 13)
    b = knn_impute(ds, 13)
    assert np.array_equal(a.values, b.values)


def test_gower_matrix_equals_row_by_row_distances_bit_for_bit():
    # each row adds its observed columns in column order; a row with no
    # observed column is at distance 0, and a flat column adds nothing
    rng = np.random.default_rng(3)
    kinds = ["continuous", "binary", "count", "continuous"]
    candidates = np.column_stack([rng.normal(size=30),
                                  (rng.random(30) < 0.5).astype(float),
                                  rng.poisson(2.0, 30).astype(float),
                                  np.full(30, 1.5)])
    targets = candidates[:6] + rng.normal(scale=0.3, size=(6, 4))
    observed = rng.random((6, 4)) < 0.6
    observed[0] = False
    targets[~observed] = np.nan
    ranges = np.ptp(candidates, axis=0)
    got = gower_distances(targets, observed, candidates, kinds, ranges)
    assert got.shape == (6, 30)
    assert np.all(got[0] == 0.0)
    for i in range(1, 6):
        total = np.zeros(30)
        usable = np.flatnonzero(observed[i])
        for c in usable:
            diff = np.abs(candidates[:, c] - targets[i, c])
            if kinds[c] == "binary":
                total += (diff > 0).astype(float)
            elif ranges[c] > 0:
                total += diff / ranges[c]
        want = total / usable.size if usable.size else total
        assert np.array_equal(got[i], want), i


def test_centrality_complete_graph():
    p = 5
    adj = ~np.eye(p, dtype=bool)
    rep = centrality(adj)
    assert np.array_equal(rep.degree, [p - 1] * p)
    assert rep.betweenness == pytest.approx([0.0] * p)
    assert rep.closeness == pytest.approx([1.0] * p)


def test_centrality_path_graph():
    adj = adj_from_edges(3, [(0, 1), (1, 2)])
    rep = centrality(adj, names=("a", "b", "c"))
    assert rep.betweenness[1] == pytest.approx(1.0)
    assert rep.betweenness[0] == rep.betweenness[2] == 0.0
    assert rep.names == ("a", "b", "c")


def test_centrality_star():
    adj = adj_from_edges(4, [(0, 1), (0, 2), (0, 3)])
    rep = centrality(adj)
    assert rep.degree[0] == 3
    assert np.array_equal(rep.degree[1:], [1, 1, 1])


def test_centrality_disconnected_is_finite():
    adj = adj_from_edges(6, [(0, 1), (2, 3)])
    rep = centrality(adj)
    assert np.all(np.isfinite(rep.betweenness))
    assert np.all(np.isfinite(rep.closeness))
    assert rep.closeness[5] == 0.0


def test_weighted_centrality_runs():
    from qmgm.core import EstimatedGraph, SIGN_POSITIVE
    adj = adj_from_edges(3, [(0, 1), (1, 2)])
    strength = np.where(adj, 2.0, 0.0)
    sign = np.where(adj, SIGN_POSITIVE, 0).astype(np.int8)
    g = EstimatedGraph(adj, strength, sign, np.full((3, 3), np.nan),
                       np.full((3, 3), -1))
    rep = weighted_centrality(g)
    assert rep.betweenness[1] == pytest.approx(1.0)


def test_weighted_centrality_with_unit_strengths_is_unweighted():
    from qmgm.core import EstimatedGraph, SIGN_POSITIVE
    adj = adj_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4)])
    sign = np.where(adj, SIGN_POSITIVE, 0).astype(np.int8)
    g = EstimatedGraph(adj, adj.astype(float), sign, np.full((6, 6), np.nan),
                       np.full((6, 6), -1))
    weighted, plain = weighted_centrality(g, names="abcdef"), centrality(g, names="abcdef")
    assert weighted.names == plain.names == tuple("abcdef")
    for field in ("degree", "betweenness", "closeness"):
        assert np.array_equal(getattr(weighted, field), getattr(plain, field)), field


def test_hamming_examples():
    g = adj_from_edges(5, [(0, 1), (2, 4)])
    assert hamming_distance(g, g) == 0.0
    comp = ~g & ~np.eye(5, dtype=bool)
    assert hamming_distance(g, comp) == 1.0
    with pytest.raises(DataError):
        hamming_distance(g, adj_from_edges(4, []))


def test_hamming_fraction_consistency():
    # 33 disagreeing pairs out of 91 on p=14 graphs gives 0.363
    rng = np.random.default_rng(2)
    a = adj_from_edges(14, [])
    flip = []
    for j in range(14):
        for k in range(j + 1, 14):
            flip.append((j, k))
    chosen = [flip[i] for i in rng.choice(len(flip), 33, replace=False)]
    b = adj_from_edges(14, chosen)
    assert hamming_distance(a, b) == pytest.approx(33 / 91)
    assert round(hamming_distance(a, b), 3) == 0.363


@st.composite
def adjacency(draw, p):
    bits = draw(st.lists(st.booleans(), min_size=p * (p - 1) // 2,
                         max_size=p * (p - 1) // 2))
    adj = np.zeros((p, p), dtype=bool)
    it = iter(bits)
    for j in range(p):
        for k in range(j + 1, p):
            adj[j, k] = adj[k, j] = next(it)
    return adj


@given(adjacency(6), adjacency(6), adjacency(6))
@settings(max_examples=60)
def test_hamming_is_a_metric(a, b, c):
    dab = hamming_distance(a, b)
    assert dab == pytest.approx(hamming_oracle(a.tolist(), b.tolist()))
    assert dab == hamming_distance(b, a)
    assert (dab == 0.0) == np.array_equal(a, b)
    assert dab <= hamming_distance(a, c) + hamming_distance(c, b) + 1e-12
