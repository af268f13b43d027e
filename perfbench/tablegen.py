"""Seeded synthetic stand-in for the 14-column mass-shootings table.

The real analysis dataset is not distributed with qmgm, so the fit-table
workload draws a table with the same columns and kinds as
``schemas/mass_shootings.schema`` from a known sparse dependency graph.
Nodes are drawn in topological order from their parents:

* counts are Poisson with a log-linear rate,
* binaries are Bernoulli with a logistic probability,
* ``age`` and ``victims_age`` are Gaussian,
* the six background scores are means of five dichotomized items, as in
  the real table (so they take only six distinct values).

The truth is the undirected skeleton of the parent structure, the same
convention as ``qmgm.benchmark.true_graph``.  About 3% of the cells are
then masked completely at random.
"""

from __future__ import annotations

import numpy as np

N_ROWS = 188
MISSING_SHARE = 0.03
ITEMS_PER_SCORE = 5

# (name, kind, domain) in file order; must match schemas/mass_shootings.schema.
COLUMNS = (
    ("killed", "count", "shooting"),
    ("injured", "count", "shooting"),
    ("firearms", "count", "shooting"),
    ("age", "continuous", "characteristics"),
    ("victims_age", "continuous", "characteristics"),
    ("insider", "binary", "characteristics"),
    ("immigrant", "binary", "characteristics"),
    ("relationship_status", "binary", "characteristics"),
    ("social", "continuous", "background"),
    ("crime", "continuous", "background"),
    ("traumas", "continuous", "background"),
    ("crisis", "continuous", "background"),
    ("mental", "continuous", "background"),
    ("motivation", "continuous", "background"),
)
SCORES = ("social", "crime", "traumas", "crisis", "mental", "motivation")

# node: (intercept, ((parent, weight), ...)), in topological order.  Parents
# enter through their standardized values, so weights are comparable.
PARENTS = {
    "age": (0.0, ()),
    "immigrant": (-1.4, ()),
    "traumas": (-0.3, ()),
    "social": (0.0, (("traumas", -1.2),)),
    "crime": (-0.4, (("traumas", 1.0), ("age", -0.9))),
    "relationship_status": (0.0, (("age", 1.3),)),
    "insider": (-0.8, (("age", -1.1),)),
    "mental": (0.0, (("traumas", 1.0), ("social", -0.9))),
    "crisis": (0.2, (("mental", 1.1), ("relationship_status", -0.9))),
    "motivation": (-0.2, (("crisis", 1.0), ("crime", 0.9))),
    "victims_age": (0.0, (("insider", 0.9), ("age", 0.8))),
    "firearms": (0.6, (("motivation", 0.45), ("crime", 0.35))),
    "killed": (1.3, (("firearms", 0.45),)),
    "injured": (1.1, (("killed", 0.55), ("firearms", 0.35))),
}

_NAMES = tuple(c[0] for c in COLUMNS)
_KIND = {c[0]: c[1] for c in COLUMNS}


def schema_text() -> str:
    """Schema file body for the generated table."""
    return "".join(f"{name} {kind} {domain}\n" for name, kind, domain in COLUMNS)


def true_adjacency() -> np.ndarray:
    """Symmetric boolean adjacency of the generating structure, file order."""
    index = {name: j for j, name in enumerate(_NAMES)}
    adj = np.zeros((len(_NAMES),) * 2, dtype=bool)
    for node, (_, parents) in PARENTS.items():
        for parent, _ in parents:
            adj[index[node], index[parent]] = adj[index[parent], index[node]] = True
    return adj


def _standardized(col: np.ndarray) -> np.ndarray:
    sd = col.std()
    return (col - col.mean()) / sd if sd > 0 else col - col.mean()


def _draw(rng: np.random.Generator, n: int) -> np.ndarray:
    drawn = {}
    for node, (b0, parents) in PARENTS.items():
        lp = b0 + sum(w * _standardized(drawn[p]) for p, w in parents)
        lp = np.broadcast_to(lp, (n,)).astype(float)
        kind = _KIND[node]
        if node in SCORES:
            prob = 1.0 / (1.0 + np.exp(-lp))
            col = rng.binomial(ITEMS_PER_SCORE, prob) / ITEMS_PER_SCORE
        elif kind == "count":
            col = rng.poisson(np.exp(lp)).astype(float)
        elif kind == "binary":
            col = (rng.random(n) < 1.0 / (1.0 + np.exp(-lp))).astype(float)
        else:
            col = lp + rng.normal(size=n)
        drawn[node] = col
    values = np.column_stack([drawn[name] for name in _NAMES])
    values[:, _NAMES.index("age")] = np.round(35.0 + 12.0 * values[:, _NAMES.index("age")], 1)
    values[:, _NAMES.index("victims_age")] = np.round(
        38.0 + 14.0 * values[:, _NAMES.index("victims_age")], 1)
    return values


def _usable(values: np.ndarray, missing: np.ndarray) -> bool:
    """Every column keeps two observed values; binaries keep five rows of each."""
    for j, (_, kind, _) in enumerate(COLUMNS):
        _, counts = np.unique(values[~missing[:, j], j], return_counts=True)
        if counts.size < 2 or (kind == "binary" and counts.min() < 5):
            return False
    return True


def generate_table(seed: int, n: int = N_ROWS):
    """(values, missing mask) for one seed; redraws until every column is
    usable, so the same seed always yields the same table."""
    rng = np.random.default_rng(seed)
    while True:
        values = _draw(rng, n)
        missing = rng.random(values.shape) < MISSING_SHARE
        if _usable(values, missing):
            return values, missing


def write_csv(path, values: np.ndarray, missing: np.ndarray) -> None:
    """CSV with a header row; missing cells are empty."""
    lines = [",".join(_NAMES)]
    for row, miss in zip(values, missing):
        lines.append(",".join("" if m else repr(float(v)) for v, m in zip(row, miss)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
