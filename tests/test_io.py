import numpy as np
import pytest

from qmgm.core import DataError, EstimatedGraph, SIGN_POSITIVE, \
    SIGN_UNDEFINED, VariableSpec
from qmgm.io import (GraphDocument, document_from_adjacency,
                     document_from_graph, export_graph, load_csv, load_schema,
                     parse_schema, render_dot, save_csv)

SCHEMA_TEXT = """
# demo schema
age      continuous          characteristics
killed   count               shooting
insider  binary
crisis   continuous identity background
"""


def test_parse_schema():
    specs = parse_schema(SCHEMA_TEXT)
    assert [s.name for s in specs] == ["age", "killed", "insider", "crisis"]
    assert specs[0].kind == "continuous" and specs[0].domain == "characteristics"
    assert specs[1].link == "log"
    assert specs[2].link == "logit" and specs[2].domain == ""
    assert specs[3].link == "identity" and specs[3].domain == "background"


def test_parse_schema_errors():
    with pytest.raises(DataError):
        parse_schema("x continuous\n")                # fewer than two columns
    with pytest.raises(DataError):
        parse_schema("x continuous\nx count\n")       # duplicate
    with pytest.raises(DataError):
        parse_schema("x wat\ny count\n")              # bad kind
    with pytest.raises(DataError):
        parse_schema("x binary identity\ny count\n")  # binary needs logit


@pytest.mark.parametrize("link", ["log", "logit"])
def test_continuous_column_takes_only_the_identity_link(link):
    # a continuous column is standardized before its fit, so a log or logit
    # link would floor or clip the standardized values
    with pytest.raises(DataError, match=f"continuous variable 'x' cannot use the {link} link"):
        parse_schema(f"x continuous {link}\ny count\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_roundtrip(tmp_path):
    schema = parse_schema("a continuous\nb count\nc binary\n")
    csv_path = write(tmp_path, "d.csv",
                     "a,b,c\n1.5,2,0\n,3,1\n-0.25,0,\n")
    ds = load_csv(csv_path, schema)
    assert ds.n == 3 and ds.p == 3
    assert ds.missing_mask[1, 0] and ds.missing_mask[2, 2]
    assert ds.values[0, 0] == 1.5
    out = tmp_path / "round.csv"
    save_csv(ds, out)
    again = load_csv(out, schema)
    obs = ~ds.missing_mask
    assert np.array_equal(ds.missing_mask, again.missing_mask)
    assert np.array_equal(ds.values[obs], again.values[obs])


def test_load_full_application_shape(tmp_path):
    # a well-formed 188-row, 14-column file against the shipped schema
    import pathlib
    schema = load_schema(pathlib.Path(__file__).resolve().parents[1]
                         / "schemas" / "mass_shootings.schema")
    assert len(schema) == 14
    rng = np.random.default_rng(0)
    names = [s.name for s in schema]
    rows = [",".join(names)]
    for _ in range(188):
        cells = []
        for s in schema:
            if s.kind == "binary":
                cells.append(str(int(rng.random() < 0.5)))
            elif s.kind == "count":
                cells.append(str(int(rng.poisson(4))))
            else:
                cells.append(f"{rng.normal():.6f}")
        rows.append(",".join(cells))
    path = write(tmp_path, "app.csv", "\n".join(rows) + "\n")
    ds = load_csv(path, schema)
    assert (ds.n, ds.p) == (188, 14)
    assert not ds.has_missing()


def test_load_csv_errors(tmp_path):
    schema = parse_schema("a continuous\nb count\n")
    with pytest.raises(DataError, match="undeclared column"):
        load_csv(write(tmp_path, "x.csv", "a,b,zzz\n1,2,3\n"), schema)
    with pytest.raises(DataError, match="absent from header"):
        load_csv(write(tmp_path, "y.csv", "a\n1\n"), schema)
    with pytest.raises(DataError, match="row 3, column 'b'"):
        load_csv(write(tmp_path, "z.csv", "a,b\n1,2\n3,abc\n"), schema)
    with pytest.raises(DataError, match="no data rows"):
        load_csv(write(tmp_path, "w.csv", "a,b\n"), schema)


@pytest.mark.parametrize("cell, shown", [("nan", "nan"), ("inf", "inf"), ("-Inf", "-inf"),
                                         ("1e400", "inf")])
def test_load_csv_rejects_non_finite_cells(tmp_path, cell, shown):
    # float() parses these; loaded as values, they would reach the
    # imputation distances and the standardization
    schema = parse_schema("a continuous\nb count\n")
    path = write(tmp_path, "d.csv", f"a,b\n1,2\n3,4\n5,{cell}\n")
    with pytest.raises(DataError, match=f"non-finite cell at row 4, column 'b': {shown}$"):
        load_csv(path, schema)


def test_load_csv_nan_missing_token_masks_only_nan_cells(tmp_path):
    schema = parse_schema("a continuous\nb count\n")
    ds = load_csv(write(tmp_path, "d.csv", "a,b\n1,nan\nnan,4\n"), schema, "nan")
    assert np.array_equal(ds.missing_mask, [[False, True], [True, False]])
    assert ds.values[0, 0] == 1.0 and ds.values[1, 1] == 4.0
    with pytest.raises(DataError, match="non-finite cell at row 3, column 'a': -inf$"):
        load_csv(write(tmp_path, "e.csv", "a,b\n1,nan\n-inf,4\n"), schema, "nan")


def demo_graph():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    adj[1, 2] = adj[2, 1] = True
    strength = np.zeros((3, 3))
    strength[0, 1] = strength[1, 0] = 0.8
    strength[1, 2] = strength[2, 1] = 0.3
    sign = np.zeros((3, 3), dtype=np.int8)
    sign[0, 1] = sign[1, 0] = SIGN_POSITIVE
    sign[1, 2] = sign[2, 1] = SIGN_UNDEFINED
    tau = np.full((3, 3), np.nan)
    tau[0, 1] = tau[1, 0] = 0.25
    tau[1, 2] = tau[2, 1] = 0.5
    att = np.full((3, 3), -1)
    att[0, 1] = att[1, 0] = 0
    att[1, 2] = att[2, 1] = 2
    return EstimatedGraph(adj, strength, sign, tau, att)


def demo_schema():
    return (VariableSpec("a", "continuous", domain="d1"),
            VariableSpec("b", "count", domain="d2"),
            VariableSpec("c", "binary", domain="d1"))


def test_graph_document_roundtrip():
    doc = document_from_graph(demo_graph(), demo_schema(),
                              {"lambda": 0.1, "tau_levels": [0.25, 0.5]})
    text = doc.to_json()
    back = GraphDocument.from_json(text)
    assert back == doc
    assert back.to_json() == text
    g2 = back.to_graph()
    assert np.array_equal(g2.adjacency, demo_graph().adjacency)
    assert np.array_equal(g2.strength, demo_graph().strength)
    assert np.array_equal(g2.sign, demo_graph().sign)


def test_graph_document_rejects_garbage():
    with pytest.raises(DataError):
        GraphDocument.from_json("not json")
    with pytest.raises(DataError):
        GraphDocument.from_json('{"format": "other", "version": 1}')


def test_empty_graph_document(tmp_path):
    doc = document_from_adjacency([VariableSpec("x", "continuous"), VariableSpec("y", "count")],
                                  np.zeros((2, 2), dtype=bool))
    path = tmp_path / "empty.json"
    export_graph(doc, path)
    assert GraphDocument.load(path).edges == []


def test_dot_rendering():
    doc = document_from_graph(demo_graph(), demo_schema(), {})
    dot = render_dot(doc)
    assert dot.startswith("graph estimated {")
    assert '"a" -- "b" [color=green' in dot
    assert '"b" -- "c" [color=grey' in dot
    # widest pen on the strongest edge
    assert "penwidth=4.000" in dot


def test_dot_rendering_escapes_node_names():
    # a quote and a backslash in a name must not end the DOT identifier
    adj = np.array([[False, True], [True, False]])
    doc = document_from_adjacency([VariableSpec('a"b', "continuous"),
                                   VariableSpec("c\\d", "continuous")], adj)
    dot = render_dot(doc)
    assert '  "a\\"b" [fillcolor=white];' in dot
    assert '  "c\\\\d" [fillcolor=white];' in dot
    assert '  "a\\"b" -- "c\\\\d" [' in dot


def test_export_formats(tmp_path):
    doc = document_from_graph(demo_graph(), demo_schema(), {})
    export_graph(doc, tmp_path / "g.json")
    assert (tmp_path / "g.json").read_text() == doc.to_json()
    assert GraphDocument.load(tmp_path / "g.json").to_graph().n_edges == 2
