"""Dataset imputation and graph analytics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, Dataset, _readonly


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Per-node degree, betweenness and closeness."""

    names: tuple
    degree: np.ndarray
    betweenness: np.ndarray
    closeness: np.ndarray

    def __post_init__(self):
        for name in ("degree", "betweenness", "closeness"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def _adjacency_of(graph) -> np.ndarray:
    if isinstance(graph, np.ndarray):
        adj = np.asarray(graph, dtype=bool)
    else:
        adj = np.asarray(graph.adjacency, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise DataError("adjacency must be square")
    return adj


def gower_distances(targets: np.ndarray, observed: np.ndarray,
                    candidates: np.ndarray, kinds, ranges) -> np.ndarray:
    """Gower distances from (partially observed) target rows to candidate
    rows, as a (targets x candidates) matrix: range-normalized absolute
    difference for numeric columns, plain mismatch for binary ones,
    averaged over each target's observed columns (0 when it has none).
    Each row adds its observed columns in column order."""
    total = np.zeros((targets.shape[0], candidates.shape[0]))
    for c in range(targets.shape[1]):
        diff = np.abs(candidates[:, c] - targets[:, c, None])
        if kinds[c] == "binary":
            term = (diff > 0).astype(float)
        elif ranges[c] > 0:
            term = diff / ranges[c]
        else:
            continue
        total += np.where(observed[:, c, None], term, 0.0)
    return total / np.maximum(observed.sum(axis=1), 1)[:, None]


def _check_knn_k(k: int) -> None:
    """DataError unless the neighbor count ``k`` is at least 1."""
    if k < 1:
        raise DataError("k must be >= 1")


def knn_impute(dataset: Dataset, k: int = 13) -> Dataset:
    """Replace each missing value by the column median of the k closest
    complete rows under Gower distance; distance ties break by row index.

    Binary medians that land between the classes (possible for even k)
    resolve to the column's majority value over all complete rows.
    """
    _check_knn_k(k)
    mask = dataset.missing_mask
    if not mask.any():
        return dataset
    values = np.array(dataset.values, copy=True)
    complete = np.flatnonzero(~mask.any(axis=1))
    if complete.size < k:
        raise DataError(f"imputation needs at least k={k} complete rows, "
                        f"found {complete.size}")
    kinds = [s.kind for s in dataset.schema]
    ranges = np.zeros(dataset.p)
    for c in range(dataset.p):
        col = dataset.column(c)
        ranges[c] = float(col.max() - col.min())
    incomplete = np.flatnonzero(mask.any(axis=1))
    dists = gower_distances(values[incomplete], ~mask[incomplete],
                            values[complete], kinds, ranges)
    for i, row in zip(incomplete, dists):
        nearest = complete[np.argsort(row, kind="stable")[:k]]
        for c in np.flatnonzero(mask[i]):
            # np.median's value, sorted by hand: np.median imports numpy.ma (1.3 MB)
            v, h = np.sort(values[nearest, c]), k // 2
            med = float(v[h] if k % 2 else (v[h - 1] + v[h]) / 2)
            if kinds[c] == "binary" and med not in (0.0, 1.0):
                ones = float(np.sum(values[complete, c]))
                med = 1.0 if ones > complete.size / 2 else 0.0
            values[i, c] = med
    return Dataset(values, dataset.schema)


def centrality(graph, names=None) -> CentralityReport:
    """Degree, betweenness and closeness on the unweighted graph.

    Betweenness counts shortest-path intermediation per unordered pair
    (unnormalized); closeness is scaled by reachable-set size so isolated
    nodes score zero.
    """
    return _centrality(graph, names, None)


def weighted_centrality(graph, names=None) -> CentralityReport:
    """Centrality with edge distance 1/strength instead of unit lengths."""
    return _centrality(graph, names, np.asarray(graph.strength, dtype=float))


def _centrality(graph, names, strength) -> CentralityReport:
    """``centrality`` with unit edge lengths when ``strength`` is None, else
    with edge (j, k) of length 1 / strength[j, k]."""
    import networkx as nx  # imported here: no other qmgm function needs it

    adj = _adjacency_of(graph)
    p = adj.shape[0]
    names = tuple(names) if names else tuple(f"V{i + 1}" for i in range(p))
    g = nx.Graph()
    g.add_nodes_from(range(p))
    for j, k in zip(*np.nonzero(np.triu(adj, 1))):
        g.add_edge(int(j), int(k), distance=1.0 if strength is None else 1.0 / strength[j, k])
    weight = None if strength is None else "distance"
    btw = nx.betweenness_centrality(g, normalized=False, weight=weight)
    cls = nx.closeness_centrality(g, distance=weight, wf_improved=True)
    return CentralityReport(names, adj.sum(axis=0).astype(int),
                            np.asarray([btw[i] for i in range(p)]),
                            np.asarray([cls[i] for i in range(p)]))


def pair_counts(truth, estimate):
    """(tp, fp, tn, fn) over the p(p-1)/2 unordered node pairs."""
    return tuple(int(counts[0]) for counts in stacked_pair_counts(truth, [estimate]))


def stacked_pair_counts(truth, estimates):
    """``pair_counts`` of every graph or adjacency in a sequence or (M, p, p)
    stack, as four (M,) arrays, from one pass over the stacked upper
    triangles."""
    t = _adjacency_of(truth)
    if not isinstance(estimates, np.ndarray):
        estimates = [_adjacency_of(e) for e in estimates] or np.zeros((0,) + t.shape)
    e = np.asarray(estimates, dtype=bool)
    if e.shape[1:] != t.shape:
        raise DataError("graphs must have the same number of nodes")
    iu = np.triu_indices(t.shape[0], 1)
    t, e = t[iu], e[:, iu[0], iu[1]]
    tp, fp = (e & t).sum(axis=1), (e & ~t).sum(axis=1)
    return tp, fp, (~t).sum() - fp, t.sum() - tp


def hamming_distance(g1, g2) -> float:
    """Fraction of unordered node pairs whose edge indicators disagree."""
    tp, fp, tn, fn = pair_counts(g1, g2)
    pairs = tp + fp + tn + fn
    if pairs == 0:
        raise DataError("hamming distance needs at least two nodes")
    return (fp + fn) / pairs
