"""File formats: schema files, CSV datasets, graph documents and dot rendering.

Schema files are plain text, one variable per non-comment line:

    <name> <kind> [<link>] [<domain>]

with kind in {continuous, count, binary}; the link defaults per kind
(identity, log, logit) and the optional domain is a free-form tag used only
for reporting and dot colors.
"""

from __future__ import annotations

import csv
import io
import json
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .core import (DataError, Dataset, EstimatedGraph, KINDS, LINKS,
                   SIGN_ABSENT, SIGN_CODES, SIGN_UNDEFINED, VariableSpec)

GRAPH_FORMAT = "qmgm-graph"
GRAPH_FORMAT_VERSION = 1
DEFAULT_MISSING_TOKEN = ""


def parse_schema(text: str) -> tuple:
    """Parse schema text into VariableSpecs (threshold grids unset)."""
    specs = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 2 or len(tokens) > 4:
            raise DataError(f"schema line {lineno}: expected "
                            "'<name> <kind> [<link>] [<domain>]'")
        name, kind = tokens[0], tokens[1]
        if kind not in KINDS:
            raise DataError(f"schema line {lineno}: unknown kind {kind!r}")
        link = ""
        domain = ""
        rest = tokens[2:]
        if rest and rest[0] in LINKS:
            link = rest[0]
            rest = rest[1:]
        if rest:
            domain = rest[0]
        if name in seen:
            raise DataError(f"schema line {lineno}: duplicate column {name!r}")
        seen.add(name)
        specs.append(VariableSpec(name, kind, link, domain=domain))
    if len(specs) < 2:
        raise DataError("schema must declare at least two columns")
    return tuple(specs)


def load_schema(path) -> tuple:
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_schema(fh.read())


def load_csv(path, schema, missing_token: str = DEFAULT_MISSING_TOKEN) -> Dataset:
    """Read a CSV with header into a Dataset; no silent coercion.

    The header must carry exactly the schema's column names (any order;
    columns follow the file order).  Cells equal to the missing token are
    masked; anything else must parse as a finite number.  A UTF-8
    byte-order mark at the start of the file is skipped.
    """
    by_name = {s.name: s for s in schema}
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for col in header:
            if col not in by_name:
                raise DataError(f"{path}: undeclared column {col!r}")
        missing_cols = set(by_name) - set(header)
        if missing_cols:
            raise DataError(f"{path}: schema columns absent from header: "
                            f"{sorted(missing_cols)}")
        if len(set(header)) != len(header):
            raise DataError(f"{path}: duplicate header columns")
        rows = []
        mask_rows = []
        for rowno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}: row {rowno} has {len(row)} cells, "
                                f"expected {len(header)}")
            vals = np.zeros(len(header))
            miss = np.zeros(len(header), dtype=bool)
            for c, cell in enumerate(row):
                cell = cell.strip()
                if cell == missing_token:
                    vals[c] = np.nan
                    miss[c] = True
                    continue
                try:
                    vals[c] = float(cell)
                except ValueError:
                    raise DataError(f"{path}: non-numeric cell at row {rowno}, "
                                    f"column {header[c]!r}: {cell!r}") from None
            rows.append(vals)
            mask_rows.append(miss)
    if not rows:
        raise DataError(f"{path}: no data rows")
    values, mask = np.asarray(rows), np.asarray(mask_rows)
    bad = np.argwhere(~(np.isfinite(values) | mask))
    if bad.size:
        r, c = bad[0]
        raise DataError(f"{path}: non-finite cell at row {r + 2}, column {header[c]!r}: "
                        f"{values[r, c]}")
    ordered = tuple(by_name[name] for name in header)
    return Dataset(values, ordered, mask)


def write_text(path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, the one writer of every file the
    package writes.

    An existing file is overwritten in place: the bytes go in from offset 0
    and a regular file is then cut to their length.  Like ``open(path,
    "w")`` this keeps the inode, its permissions and hard links, writes
    through a symlink, creates a new file with mode ``0o666 & ~umask``, and
    is not atomic.  Unlike it, the file is never truncated to zero first,
    which on ext4 (``auto_da_alloc``) flushes the old blocks and stalls the
    write for tens of milliseconds.  Devices and pipes (``/dev/null``,
    ``/dev/stdout``) are written and not cut.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, written)
    finally:
        os.close(fd)


def save_csv(dataset: Dataset, path, missing_token: str = DEFAULT_MISSING_TOKEN):
    """Write a Dataset back to CSV; masked cells emit the missing token.

    Values round-trip exactly (shortest-repr floats), so load_csv of the
    written file reproduces the dataset.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(dataset.names)
    for i in range(dataset.n):
        row = []
        for j in range(dataset.p):
            if dataset.missing_mask[i, j]:
                row.append(missing_token)
            else:
                row.append(repr(float(dataset.values[i, j])))
        writer.writerow(row)
    write_text(path, out.getvalue())


@dataclass
class GraphDocument:
    """Serializable estimated graph: nodes, edges and fit metadata."""

    nodes: list
    edges: list
    meta: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "format": GRAPH_FORMAT,
            "version": GRAPH_FORMAT_VERSION,
            "nodes": self.nodes,
            "edges": self.edges,
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GraphDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"invalid graph document: {exc}") from None
        if not isinstance(payload, dict) or payload.get("format") != GRAPH_FORMAT:
            raise DataError("not a graph document")
        if payload.get("version") != GRAPH_FORMAT_VERSION:
            raise DataError(f"unsupported graph document version "
                            f"{payload.get('version')!r}")
        nodes, edges = payload.get("nodes"), payload.get("edges")
        if not (isinstance(nodes, list) and all(
                isinstance(v, dict) and isinstance(v.get("name"), str) for v in nodes)):
            raise DataError("graph document nodes must be a list of objects with string names")
        names = {v["name"] for v in nodes}
        if len(names) != len(nodes):
            raise DataError("graph document names a node twice")
        if not (isinstance(edges, list) and all(
                isinstance(e, dict) and all(isinstance(e.get(end), str) and e[end] in names
                                            for end in ("source", "target"))
                for e in edges)):
            raise DataError("graph document edges must be objects whose source "
                            "and target name nodes")
        return cls(nodes, edges, payload.get("meta", {}))

    @classmethod
    def load(cls, path) -> "GraphDocument":
        with open(path, "r", encoding="utf-8-sig") as fh:
            return cls.from_json(fh.read())

    def node_names(self) -> list:
        return [node["name"] for node in self.nodes]

    def adjacency(self) -> np.ndarray:
        """The adjacency of ``to_graph``, so every edge is checked."""
        return self.to_graph().adjacency

    def to_graph(self) -> EstimatedGraph:
        names = self.node_names()
        index = {nm: i for i, nm in enumerate(names)}
        p = len(names)
        adj = np.zeros((p, p), dtype=bool)
        strength = np.zeros((p, p))
        sign = np.zeros((p, p), dtype=np.int8)
        prov_tau = np.full((p, p), np.nan)
        attained = np.full((p, p), -1, dtype=int)
        for e in self.edges:
            a, b = index[e["source"]], index[e["target"]]
            if adj[a, b]:
                raise DataError(f"edge {e['source']} -- {e['target']} is listed twice")
            adj[a, b] = adj[b, a] = True
            try:
                # a JSON number: not text numpy would parse, nor a bool
                value = e["strength"]
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise TypeError
                strength[a, b] = strength[b, a] = value
                sign[a, b] = sign[b, a] = SIGN_CODES[e["sign"]]
                tau, owner = e.get("tau"), e.get("attained_by")
                if tau is not None and not 0.0 < tau < 1.0:
                    raise ValueError
                prov_tau[a, b] = prov_tau[b, a] = np.nan if tau is None else tau
                attained[a, b] = attained[b, a] = -1 if owner is None else index[owner]
            except (KeyError, TypeError, ValueError, OverflowError):
                raise DataError(f"edge {e['source']} -- {e['target']} needs a numeric strength, "
                                "a positive, negative or undefined sign, a null tau or one "
                                "inside (0, 1), and a null attained_by or a node") from None
        if not np.isfinite(strength).all():
            raise DataError("edge strengths must be finite")
        return EstimatedGraph(adj, strength, sign, prov_tau, attained)


def document_from_graph(graph: EstimatedGraph, schema, meta=None) -> GraphDocument:
    """Build a document from an estimated graph and its variable schema."""
    if len(schema) != graph.p:
        raise DataError("schema length does not match graph size")
    nodes = [{"name": s.name, "kind": s.kind, "domain": s.domain}
             for s in schema]
    names = [s.name for s in schema]
    edges = []
    for j, k, strength, sign, tau, att in graph.edges():
        edges.append({
            "source": names[j],
            "target": names[k],
            "strength": strength,
            "sign": sign,
            "tau": None if np.isnan(tau) else tau,
            "attained_by": names[att] if att >= 0 else None,
        })
    return GraphDocument(nodes, edges, dict(meta or {}))


def document_from_adjacency(schema, adjacency) -> GraphDocument:
    """Plain boolean graph over a variable schema as a document (unit
    strengths, undefined signs, no provenance)."""
    adj = np.asarray(adjacency, dtype=bool)
    graph = EstimatedGraph(adj, adj.astype(float), np.where(adj, SIGN_UNDEFINED, SIGN_ABSENT),
                           np.full(adj.shape, np.nan), np.full(adj.shape, -1))
    return document_from_graph(graph, schema)


_SIGN_COLORS = {"positive": "green", "negative": "red", "undefined": "grey"}
_DOMAIN_PALETTE = ("lightblue", "lightsalmon", "palegreen", "khaki",
                   "plum", "lightgrey", "lightcyan", "wheat")


def _dot_id(name: str) -> str:
    """A node name as a quoted DOT identifier."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_dot(doc: GraphDocument) -> str:
    """Graphviz rendering: node fill by domain, edge color by sign,
    pen width proportional to strength."""
    domains = []
    for node in doc.nodes:
        d = node.get("domain") or ""
        if d and d not in domains:
            domains.append(d)
    color_of = {d: _DOMAIN_PALETTE[i % len(_DOMAIN_PALETTE)]
                for i, d in enumerate(domains)}
    lines = ["graph estimated {", "  node [style=filled];"]
    for node in doc.nodes:
        fill = color_of.get(node.get("domain") or "", "white")
        lines.append(f'  {_dot_id(node["name"])} [fillcolor={fill}];')
    max_strength = max((e["strength"] for e in doc.edges), default=1.0)
    for e in doc.edges:
        width = 0.5 + 3.5 * e["strength"] / max_strength
        color = _SIGN_COLORS.get(e["sign"], "grey")
        lines.append(f'  {_dot_id(e["source"])} -- {_dot_id(e["target"])} '
                     f'[color={color}, penwidth={width:.3f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_graph(doc: GraphDocument, path):
    """Write a graph document as JSON (``render_dot`` gives the dot text)."""
    write_text(path, doc.to_json())


def rows_csv_text(rows, fieldnames) -> str:
    """A report table as CSV text: a header of ``fieldnames``, then one line
    per row mapping, floats written ``.12g``, ``\\n`` line ends and fields
    quoted where the csv module needs it (a name with a comma, say)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([f"{row[key]:.12g}" if isinstance(row[key], float) else row[key]
                      for key in fieldnames] for row in rows)
    return out.getvalue()


def write_rows_csv(rows, fieldnames, path):
    """Write ``rows_csv_text(rows, fieldnames)`` to ``path``."""
    write_text(path, rows_csv_text(rows, fieldnames))
