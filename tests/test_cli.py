import argparse
import csv
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import qmgm
from qmgm import benchmark, cli, selection
from qmgm.benchmark import GENERATOR_SCHEMA, true_graph
from qmgm.cli import main
from qmgm.core import CoefficientCube, VariableSpec
from qmgm.selection import CRITERION_NAMES, estimate_edge_set
from qmgm.io import GraphDocument, document_from_adjacency, export_graph

from conftest import DGP_SCHEMA


def test_fit_defaults_match_application_config():
    from qmgm.cli import build_parser
    args = build_parser().parse_args(["fit", "x.csv", "--schema", "s.txt"])
    assert args.tau_levels == "7"
    assert args.lambda_count == 100
    assert (args.lambda_min, args.lambda_max) == (0.001, 5.0)
    assert args.criterion == "bic"
    assert args.knn_k == 13
    assert not hasattr(args, "seed")  # a fit draws no random numbers
    sim = build_parser().parse_args(["simulate"])
    assert sim.lambda_count == 50
    assert sim.seed == 0
    # the benchmark scores every criterion on the learners' own level grids
    for name in ("tau_levels", "criterion", "cn"):
        assert not hasattr(sim, name), name


@pytest.mark.parametrize("flag", [["--tau-levels", "3"], ["--criterion", "aic"],
                                  ["--cn", "2"]])
def test_simulate_rejects_fit_only_flags(tmp_path, capsys, flag):
    rc = main(["simulate", "--n", "60", "--R", "1", "--learners", "mgm",
               "--lambda-count", "2", *flag, "--output", str(tmp_path / "sim")])
    assert rc == 1
    assert "usage" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def readme_synopsis(text: str) -> dict:
    """{subcommand: its --options} from the first code block under the
    "Command line" heading; a line starting ``qmgm <command>`` opens a
    command and the indented lines after it continue it."""
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    options, command = {}, None
    for line in block.splitlines():
        if line.startswith("qmgm "):
            command = line.split()[1]
            options[command] = set()
        if command is not None:
            options[command] |= set(re.findall(r"--[A-Za-z][A-Za-z-]*", line))
    return options


def test_readme_synopsis_matches_the_parser():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    parsed = {name: {opt for action in parser._actions for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"}
              for name, parser in sub.choices.items()}
    assert readme_synopsis(README.read_text(encoding="utf-8")) == parsed


def test_unknown_flag_exits_1(capsys):
    assert main(["simulate", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_1():
    assert main(["transmogrify"]) == 1


def test_missing_file_exits_2(tmp_path, capsys):
    schema = tmp_path / "s.txt"
    schema.write_text("a continuous\nb count\n", encoding="utf-8")
    rc = main(["metrics", "--truth", str(tmp_path / "no.json"),
               "--estimate", str(tmp_path / "no.json")])
    assert rc == 2


@pytest.mark.parametrize("case", ["fit_data", "fit_schema", "impute_data",
                                  "fit_output_dir", "fit_dot_dir", "fit_output_is_dir",
                                  "fit_output_empty", "fit_dot_empty",
                                  "simulate_output_file", "simulate_output_under_file"])
def test_file_errors_exit_2(small_csv, tmp_path, capsys, no_fitting, case):
    # each is found before stage 1 or the first replication starts
    csv_path, schema_path = small_csv
    missing = str(tmp_path / "missing" / "x")
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    fit = ["fit", "--tau-levels", "1", "--lambda-count", "2"]
    argv = {
        "fit_data": fit + [missing, "--schema", str(schema_path)],
        "fit_schema": fit + [str(csv_path), "--schema", missing],
        "impute_data": ["impute", missing, "--schema", str(schema_path),
                        "--output", str(tmp_path / "out.csv")],
        "fit_output_dir": fit + [str(csv_path), "--schema", str(schema_path),
                                 "--output", missing],
        "fit_dot_dir": fit + [str(csv_path), "--schema", str(schema_path),
                              "--output", str(tmp_path / "g.json"), "--dot", missing],
        "fit_output_is_dir": fit + [str(csv_path), "--schema", str(schema_path),
                                    "--output", str(tmp_path)],
        # an empty path used to fail only when the fitted graph was written,
        # and an empty --dot wrote nothing and exited 0
        "fit_output_empty": fit + [str(csv_path), "--schema", str(schema_path),
                                   "--output", ""],
        "fit_dot_empty": fit + [str(csv_path), "--schema", str(schema_path),
                                "--output", str(tmp_path / "g.json"), "--dot", ""],
        "simulate_output_file": ["simulate", "--n", "60", "--R", "1",
                                 "--learners", "mgm", "--lambda-count", "2",
                                 "--output", str(taken)],
        # os.makedirs in write_outputs would fail only after the replications
        "simulate_output_under_file": ["simulate", "--n", "60", "--R", "1",
                                       "--learners", "mgm", "--lambda-count", "2",
                                       "--output", str(taken / "sub")],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("qmgm: data error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "impute", "simulate", "metrics", "centrality",
                                     "hamming"])
def test_empty_output_exits_2_and_writes_nothing(small_csv, tmp_path, monkeypatch, capsys,
                                                 no_fitting, command):
    # simulate used to take "" for its default directory and write there
    csv_path, schema_path = small_csv
    graph = tmp_path / "g.json"
    graph.write_text(_document_text([EDGE]), encoding="utf-8")
    argv = {
        "fit": ["fit", str(csv_path), "--schema", str(schema_path), "--tau-levels", "1",
                "--lambda-count", "2"],
        "impute": ["impute", str(csv_path), "--schema", str(schema_path)],
        "simulate": ["simulate", "--n", "60", "--R", "1", "--learners", "mgm",
                     "--lambda-count", "2"],
        "metrics": ["metrics", "--truth", str(graph), "--estimate", str(graph)],
        "centrality": ["centrality", str(graph)],
        "hamming": ["hamming", str(graph), str(graph)],
    }[command]
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    assert main(argv + ["--output", ""]) == 2
    assert capsys.readouterr().err.startswith("qmgm: data error: ")
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("cn", ["inf", "1e308"])
def test_fit_cn_with_infinite_complexity_exits_2(small_csv, tmp_path, capsys,
                                                 no_fitting, cn):
    # ln(n) ln(p - 1) cn / (2n) overflows; an infinite complexity gave NaN
    # scores (0 * inf) and no selectable lambda.  It is found once n and p
    # are known, before stage 1.
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "2", "--cn", cn,
               "--output", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "complexity per coefficient is not finite" in err
    assert "Warning" not in err
    assert not (tmp_path / "g.json").exists()


def test_fit_aic_with_cn_exits_2(small_csv, tmp_path, capsys, no_fitting):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--criterion", "aic", "--cn", "3",
               "--output", str(tmp_path / "g.json")])
    assert rc == 2
    assert "criterion 'aic' takes no cn" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_hamming_of_single_node_graphs_exits_2(tmp_path, capsys):
    path = tmp_path / "one.json"
    export_graph(document_from_adjacency([VariableSpec("a", "continuous")],
                                         np.zeros((1, 1), bool)), path)
    assert main(["hamming", str(path), str(path)]) == 2
    assert "needs at least two nodes" in capsys.readouterr().err


def test_fit_threads_zero_exits_2(small_csv, tmp_path, capsys, no_fitting):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "2", "--threads", "0",
               "--output", str(tmp_path / "g.json")])
    assert rc == 2
    assert "threads must be at least 1" in capsys.readouterr().err


def test_simulate_negative_threads_exits_2(tmp_path, capsys):
    rc = main(["simulate", "--n", "60", "--R", "2", "--learners", "mgm",
               "--lambda-count", "2", "--threads", "-1",
               "--output", str(tmp_path / "sim")])
    assert rc == 2
    assert "threads must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_simulate_negative_seed_exits_2_before_fitting(tmp_path, capsys, no_fitting):
    # replication r runs on seed + r, so a negative seed would fail the
    # first replications and summarize the rest
    rc = main(["simulate", "--n", "60", "--R", "2", "--learners", "mgm",
               "--lambda-count", "2", "--seed", "-1",
               "--output", str(tmp_path / "sim")])
    assert rc == 2
    assert "seed >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("learners", ["mgm,mgm", "qmgm1,QMGM1", "qmgm3,qmgm03"])
def test_simulate_duplicate_learner_exits_2_before_fitting(tmp_path, capsys, no_fitting,
                                                           learners):
    # a learner named twice after normalization would be fitted twice per
    # replication yet keep one set of summary rows
    rc = main(["simulate", "--n", "60", "--R", "2", "--learners", learners,
               "--lambda-count", "2", "--output", str(tmp_path / "sim")])
    assert rc == 2
    assert "is given more than once" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def _fail_if_called(*args, **kwargs):
    raise AssertionError("fitting started")


@pytest.fixture()
def no_fitting(monkeypatch):
    """Make any start of stage 1 or of a replication fail the test."""
    monkeypatch.setattr(selection, "build_problems", _fail_if_called)
    monkeypatch.setattr(benchmark, "_replication_worker", _fail_if_called)


def _fail_if_loaded(*args, **kwargs):
    raise AssertionError("data loading started")


@pytest.fixture()
def no_loading(monkeypatch):
    """Make any read of a data table, or its imputation, fail the test."""
    monkeypatch.setattr(cli, "load_csv", _fail_if_loaded)
    monkeypatch.setattr(cli, "knn_impute", _fail_if_loaded)


@pytest.mark.parametrize("case", ["fit_knn_k", "fit_lambda_count", "impute_output_dir",
                                  "impute_output_empty", "impute_knn_k"])
def test_bad_options_exit_2_before_loading_data(small_csv, tmp_path, capsys,
                                                no_loading, no_fitting, case):
    csv_path, schema_path = small_csv
    fit = ["fit", str(csv_path), "--schema", str(schema_path), "--tau-levels", "1",
           "--lambda-count", "2", "--output", str(tmp_path / "g.json")]
    impute = ["impute", str(csv_path), "--schema", str(schema_path),
              "--output", str(tmp_path / "out.csv")]
    argv, message = {
        # the table has no missing cells, so the fit would never impute
        "fit_knn_k": (fit + ["--knn-k", "0"], "k must be >= 1"),
        "fit_lambda_count": (fit + ["--lambda-count", "0"],
                             "lambda grid needs at least one value"),
        "impute_output_dir": (impute[:-1] + [str(tmp_path / "missing" / "x.csv")],
                              "cannot write a file"),
        "impute_output_empty": (impute[:-1] + [""], "cannot write a file"),
        "impute_knn_k": (impute + ["--knn-k", "0"], "k must be >= 1"),
    }[case]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_fit_bad_tolerance_exits_2_before_fitting(small_csv, tmp_path, capsys,
                                                  no_fitting, tol):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "2", "--tolerance", tol,
               "--output", str(tmp_path / "g.json")])
    assert rc == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_simulate_bad_tolerance_exits_2_before_fitting(tmp_path, capsys,
                                                       no_fitting, tol):
    rc = main(["simulate", "--n", "60", "--R", "2", "--learners", "mgm",
               "--lambda-count", "2", "--tolerance", tol,
               "--output", str(tmp_path / "sim")])
    assert rc == 2
    assert "tolerance must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_zero_tolerance_is_valid(small_csv, tmp_path, capsys):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "2", "--tolerance", "0",
               "--output", str(tmp_path / "g.json")])
    assert rc == 0
    doc = json.loads((tmp_path / "g.json").read_text())
    assert doc["meta"]["nonzero_tolerance"] == 0.0
    rc = main(["simulate", "--n", "60", "--R", "1", "--learners", "mgm",
               "--lambda-count", "2", "--tolerance", "0",
               "--output", str(tmp_path / "sim")])
    assert rc == 0
    assert "1 of 1 replications succeeded" in capsys.readouterr().out


def test_fit_infinite_lambda_max_exits_2_before_fitting(small_csv, tmp_path,
                                                        capsys, no_fitting):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-max", "inf",
               "--output", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "lambda grid needs finite 0 < lo < hi" in err
    assert "Warning" not in err
    assert not (tmp_path / "g.json").exists()


def test_simulate_infinite_lambda_max_exits_2_before_fitting(tmp_path, capsys,
                                                             no_fitting):
    rc = main(["simulate", "--n", "60", "--R", "1", "--learners", "mgm",
               "--lambda-max", "inf", "--output", str(tmp_path / "sim")])
    assert rc == 2
    assert "lambda grid needs finite 0 < lo < hi" in capsys.readouterr().err
    assert not (tmp_path / "sim").exists()


def test_import_loads_neither_scipy_stats_nor_networkx():
    # a fresh interpreter, so modules this test session loaded do not count
    src = os.path.dirname(os.path.dirname(qmgm.__file__))
    code = ("import sys\n"
            "import qmgm.cli\n"
            "import qmgm\n"
            "print(sorted(m for m in ('scipy.stats', 'networkx') if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_import_and_fit_load_no_scipy(small_csv, tmp_path):
    # scipy.special alone costs a fresh process about 200 ms and 26 MB;
    # only the generator and the mgm baseline, both under simulate, call it
    csv_path, schema_path = small_csv
    src = os.path.dirname(os.path.dirname(qmgm.__file__))
    argv = ["fit", str(csv_path), "--schema", str(schema_path), "--tau-levels", "3",
            "--lambda-count", "4", "--output", str(tmp_path / "g.json")]
    code = ("import sys\n"
            "import qmgm\n"
            "import qmgm.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"assert qmgm.cli.main({argv!r}) == 0\n"
            "print(loaded())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["[]", "[]"]
    assert GraphDocument.load(tmp_path / "g.json").meta["tau_levels"] == [0.25, 0.5, 0.75]


@pytest.mark.parametrize("levels", ["abc", "0.5,x", ""])
def test_malformed_tau_levels_exits_2(small_csv, tmp_path, capsys, levels):
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", levels, "--output", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "qmgm: data error: --tau-levels takes a level count" in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("levels, reason", [
    ("0.3,0.2", "strictly increasing"), ("0.5,0.5", "strictly increasing"),
    ("0.5,1.5", "strictly inside (0, 1)"), ("nan", "strictly inside (0, 1)"),
    ("0", "level count must be >= 1")])
def test_tau_levels_that_make_no_grid_exit_2_with_the_reason(small_csv, tmp_path, capsys,
                                                             levels, reason):
    # DataError is a ValueError: the grid's own error must not be taken
    # for a parse failure and replaced by the generic message
    csv_path, schema_path = small_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", levels, "--output", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert reason in err
    assert "takes a level count" not in err
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize("levels, want", [("3", [0.25, 0.5, 0.75]), ("0.1", [0.1]),
                                          ("1e-1", [0.1]), ("5e-1,7.5e-1", [0.5, 0.75])])
def test_tau_levels_count_or_levels_in_any_float_form(small_csv, tmp_path, levels, want):
    # only an integer literal is a level count; a single level may be
    # written in exponent form
    csv_path, schema_path = small_csv
    out = tmp_path / "g.json"
    rc = main(["fit", str(csv_path), "--schema", str(schema_path), "--tau-levels", levels,
               "--lambda-count", "2", "--output", str(out)])
    assert rc == 0
    assert GraphDocument.load(out).meta["tau_levels"] == want


def test_bad_csv_exits_2(tmp_path):
    schema = tmp_path / "s.txt"
    schema.write_text("a continuous\nb count\n", encoding="utf-8")
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,oops\n", encoding="utf-8")
    assert main(["impute", str(data), "--schema", str(schema),
                 "--output", str(tmp_path / "out.csv")]) == 2


@pytest.mark.parametrize("command", ["impute", "fit"])
def test_non_finite_cells_exit_2(tmp_path, capsys, command):
    # a 30-row table with one nan and one inf cell: loaded as values, both
    # would distort the imputation distances and be written back
    schema = tmp_path / "s.txt"
    schema.write_text("a continuous\nb count\nc continuous\n", encoding="utf-8")
    rows = ["a,b,c"] + [f"{i * 0.5},{i % 4},{(i * 7) % 11}" for i in range(30)]
    rows[5], rows[9] = "2.0,nan,3", "1.0,2,inf"
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    rc = main([command, str(data), "--schema", str(schema), "--output", str(out)])
    assert rc == 2
    assert "non-finite cell at row 6, column 'b': nan" in capsys.readouterr().err
    assert not out.exists()
    # with nan as the missing token that cell is missing, and the inf cell fails
    rc = main([command, str(data), "--schema", str(schema), "--missing-token", "nan",
               "--output", str(out)])
    assert rc == 2
    assert "non-finite cell at row 10, column 'c': inf" in capsys.readouterr().err
    assert not out.exists()


def test_fit_writes_document(small_csv, tmp_path, capsys):
    csv_path, schema_path = small_csv
    out = tmp_path / "graph.json"
    dot = tmp_path / "graph.dot"
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "3", "--lambda-count", "8",
               "--criterion", "bicp", "--output", str(out), "--dot", str(dot)])
    assert rc == 0
    doc = GraphDocument.load(out)
    assert len(doc.nodes) == 10
    assert doc.meta["criterion"] == "bicp"
    assert doc.meta["tau_levels"] == [0.25, 0.5, 0.75]
    assert dot.read_text().startswith("graph")


def _with_bom(path, out):
    """Copy of a UTF-8 text file at ``out`` that starts with a byte-order mark."""
    out.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return out


def test_fit_and_metrics_read_files_with_a_byte_order_mark(small_csv, tmp_path, capsys):
    # a data, schema or graph file saved with a UTF-8 byte-order mark reads
    # as the same file without one; the mark used to become part of the
    # first column, node or JSON token and exit 2
    csv_path, schema_path = small_csv
    fit = ["fit", "--tau-levels", "1", "--lambda-count", "4", "--output"]
    plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
    assert main(fit + [str(plain), str(csv_path), "--schema", str(schema_path)]) == 0
    assert main(fit + [str(marked), str(_with_bom(csv_path, tmp_path / "bom.csv")),
                       "--schema", str(_with_bom(schema_path, tmp_path / "bom.schema"))]) == 0
    assert marked.read_bytes() == plain.read_bytes()
    capsys.readouterr()
    assert main(["metrics", "--truth", str(_with_bom(plain, tmp_path / "bom.json")),
                 "--estimate", str(plain)]) == 0
    table = dict(line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:])
    assert float(table["accuracy"]) == 1.0


@pytest.fixture()
def two_column_csv(tmp_path):
    rng = np.random.default_rng(8)
    x = rng.normal(size=80)
    rows = [f"{a:.6f},{b:.6f}" for a, b in zip(x, x + rng.normal(size=80))]
    csv_path = tmp_path / "pair.csv"
    csv_path.write_text("a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
    schema_path = tmp_path / "pair.schema"
    schema_path.write_text("a continuous\nb continuous\n", encoding="utf-8")
    return csv_path, schema_path


@pytest.mark.parametrize("criterion", ["bicp", "bic2p", "bic3p"])
def test_fit_p2_log_p_criteria_exit_2(two_column_csv, tmp_path, capsys, criterion):
    # cn = log(p - 1) vanishes at p = 2
    csv_path, schema_path = two_column_csv
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "4",
               "--criterion", criterion, "--output", str(tmp_path / "g.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"criterion '{criterion}' needs at least 3 nodes" in err
    assert "log(p - 1)" in err
    assert not (tmp_path / "g.json").exists()


def test_fit_p2_bic_fits(two_column_csv, tmp_path):
    csv_path, schema_path = two_column_csv
    out = tmp_path / "g.json"
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "1", "--lambda-count", "4",
               "--criterion", "bic", "--output", str(out)])
    assert rc == 0
    assert GraphDocument.load(out).node_names() == ["a", "b"]


def test_fit_says_when_the_criterion_has_no_complexity_term(two_column_csv, small_csv,
                                                           tmp_path, capsys):
    # every BIC has ln(p - 1) = 0 at p = 2, so it selects on loss alone
    note = "has no complexity term"
    csv_path, schema_path = two_column_csv
    args = ["--tau-levels", "1", "--lambda-count", "4", "--output", str(tmp_path / "g.json")]
    assert main(["fit", str(csv_path), "--schema", str(schema_path), *args]) == 0
    err = capsys.readouterr().err
    assert "criterion 'bic' has no complexity term at n = 80, p = 2: lambda is chosen on " \
        "loss alone" in err
    assert main(["fit", str(csv_path), "--schema", str(schema_path), *args,
                 "--criterion", "aic"]) == 0
    assert note not in capsys.readouterr().err
    csv_path, schema_path = small_csv
    assert main(["fit", str(csv_path), "--schema", str(schema_path), *args]) == 0
    assert note not in capsys.readouterr().err


def _flag_the_smallest_lambda(monkeypatch, count):
    """Make the kernel flag every point at the smallest lambda of the
    default grid of ``count`` lambdas, and certify the others as it does."""
    from qmgm import lasso

    active_set, smallest = lasso._active_set, benchmark.default_lambda_grid(count=count)[-1]

    def flagged(G, c, ok, b, lam, kkt_tol):
        solves, certified = active_set(G, c, ok, b, lam, kkt_tol)
        return solves, certified & (lam != smallest)

    monkeypatch.setattr(lasso, "_active_set", flagged)


def test_fit_reports_uncertified_points(small_csv, tmp_path, capsys, monkeypatch):
    # a kernel that flags the points of one lambda leaves them uncertified
    csv_path, schema_path = small_csv
    args = ["fit", str(csv_path), "--schema", str(schema_path), "--tau-levels", "3",
            "--lambda-count", "4", "--output", str(tmp_path / "g.json")]
    assert main(args) == 0
    assert "not certified" not in capsys.readouterr().err
    cubes = []

    def kept(*fit_args, **kwargs):
        cubes.append(cli_fit(*fit_args, **kwargs))
        return cubes[-1]

    cli_fit = cli.fit_qmgm
    monkeypatch.setattr(cli, "fit_qmgm", kept)
    _flag_the_smallest_lambda(monkeypatch, 4)
    assert main(args) == 0
    uncertified = int(np.count_nonzero(~cubes[0].converged))
    assert 0 < uncertified < 120 and cubes[0].converged[..., :-1].all()
    assert (f"{uncertified} of 120 (node, level, lambda) points are not certified converged"
            in capsys.readouterr().err)


def test_fit_is_byte_deterministic(small_csv, tmp_path):
    csv_path, schema_path = small_csv
    outs = []
    for name in ("g1.json", "g2.json"):
        out = tmp_path / name
        rc = main(["fit", str(csv_path), "--schema", str(schema_path),
                   "--tau-levels", "1", "--lambda-count", "6",
                   "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _no_process_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_fit_document_independent_of_threads(small_csv, tmp_path, monkeypatch):
    # a fit runs all its paths in one batch in this process, at any
    # --threads: it starts no pool, and the graph document is the same
    monkeypatch.setattr(benchmark, "ProcessPoolExecutor", _no_process_pool)
    csv_path, schema_path = small_csv
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"g{threads}.json"
        rc = main(["fit", str(csv_path), "--schema", str(schema_path),
                   "--tau-levels", "3", "--lambda-count", "6",
                   "--threads", threads, "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_writes_tables(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--n", "100", "--R", "2",
               "--learners", "qmgm1,mgm", "--lambda-count", "6",
               "--seed", "5", "--output", str(out)])
    assert rc == 0
    for name in ("summary.csv", "timing.csv", "details.csv", "truth.json",
                 "manifest.txt"):
        assert (out / name).exists()
    header = (out / "summary.csv").read_text().splitlines()[0]
    assert header == "learner,criterion,metric,median,p10,p90"
    manifest = (out / "manifest.txt").read_text()
    assert "config_digest:" in manifest
    assert "failures: 0" in manifest


def _manifest_line(out, key):
    return next(line for line in (out / "manifest.txt").read_text().splitlines()
                if line.startswith(f"{key}: "))


def test_simulate_manifest_counts_no_uncertified_points_on_a_clean_run(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "100", "--R", "2", "--learners", "qmgm3,mgm",
                 "--lambda-count", "4", "--output", str(out)]) == 0
    # 10 nodes x 3 levels x 4 lambdas x 2 replications, and 10 x 1 x 4 x 2
    assert _manifest_line(out, "uncertified_points") == \
        "uncertified_points: qmgm3=0/240,mgm=0/80"


def test_simulate_manifest_counts_uncertified_points(tmp_path, monkeypatch):
    # as in test_fit_reports_uncertified_points: a kernel that flags the
    # points of one lambda
    cubes = {"qmgm": [], "mgm": []}

    def kept(kind, fit):
        def run(*fit_args, **kwargs):
            cubes[kind].append(fit(*fit_args, **kwargs))
            return cubes[kind][-1]
        return run

    monkeypatch.setattr(benchmark, "fit_qmgm", kept("qmgm", benchmark.fit_qmgm))
    monkeypatch.setattr(benchmark, "fit_mgm", kept("mgm", benchmark.fit_mgm))
    _flag_the_smallest_lambda(monkeypatch, 4)
    out = tmp_path / "sim"
    assert main(["simulate", "--n", "100", "--R", "2", "--learners", "qmgm3,mgm",
                 "--lambda-count", "4", "--output", str(out)]) == 0
    counts = {kind: sum(int(np.count_nonzero(~cube.converged)) for cube in kept_cubes)
              for kind, kept_cubes in cubes.items()}
    assert len(cubes["qmgm"]) == len(cubes["mgm"]) == 2
    assert 0 < counts["qmgm"] < 240 and 0 < counts["mgm"] <= 80
    assert _manifest_line(out, "uncertified_points") == \
        f"uncertified_points: qmgm3={counts['qmgm']}/240,mgm={counts['mgm']}/80"


def test_simulate_certifies_every_point_at_small_n(tmp_path):
    # at n = 10 the solvable rows span fewer dimensions than the 9
    # predictors, so active blocks turn singular; the kernel pivots out of
    # them and certifies every point, at either thread count
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main(["simulate", "--n", "10", "--R", "2", "--lambda-count", "12",
                     "--learners", "qmgm7,mgm", "--seed", "0", "--threads", threads,
                     "--output", str(out)]) == 0
        assert _manifest_line(out, "uncertified_points") == \
            "uncertified_points: qmgm7=0/1680,mgm=0/240"
        tables.append([(out / name).read_bytes() for name in ("summary.csv", "details.csv")])
    assert tables[0] == tables[1]


def test_simulate_truth_document_has_the_generator_kinds(tmp_path):
    out = tmp_path / "sim"
    rc = main(["simulate", "--n", "60", "--R", "1", "--learners", "mgm",
               "--lambda-count", "2", "--output", str(out)])
    assert rc == 0
    nodes = GraphDocument.load(out / "truth.json").nodes
    assert [[node["name"], node["kind"]] for node in nodes] == [
        line.split() for line in DGP_SCHEMA.splitlines()]


def test_simulate_manifest_records_the_tolerance(tmp_path):
    # the tolerance changes every edge set, so it is part of the config
    manifests = {}
    for tol in ("1e-6", "0.05"):
        out = tmp_path / tol
        assert main(["simulate", "--n", "60", "--R", "1", "--learners", "qmgm1",
                     "--lambda-count", "2", "--tolerance", tol,
                     "--output", str(out)]) == 0
        manifests[tol] = (out / "manifest.txt").read_text().splitlines()
    assert "tolerance: 1e-06" in manifests["1e-6"]
    assert "tolerance: 0.05" in manifests["0.05"]
    digests = {tol: lines[0] for tol, lines in manifests.items()}
    assert all(d.startswith("config_digest: ") for d in digests.values())
    assert digests["1e-6"] != digests["0.05"]


def test_metrics_and_hamming_commands(tmp_path, capsys):
    tg = true_graph()
    truth_doc = document_from_adjacency(GENERATOR_SCHEMA, tg)
    export_graph(truth_doc, tmp_path / "truth.json")
    export_graph(document_from_adjacency(GENERATOR_SCHEMA, np.zeros((10, 10), bool)),
                 tmp_path / "empty.json")
    rc = main(["metrics", "--truth", str(tmp_path / "truth.json"),
               "--estimate", str(tmp_path / "empty.json")])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    table = dict(line.split(",") for line in lines[1:])
    assert float(table["tpr"]) == 0.0
    assert float(table["accuracy"]) == pytest.approx(33 / 45)

    rc = main(["hamming", str(tmp_path / "truth.json"),
               str(tmp_path / "empty.json")])
    assert rc == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(12 / 45)


def test_centrality_command(tmp_path, capsys):
    schema = [VariableSpec(name, "continuous") for name in "abc"]
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    export_graph(document_from_adjacency(schema, adj), tmp_path / "g.json")
    rc = main(["centrality", str(tmp_path / "g.json")])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "node,degree,betweenness,closeness"
    row_b = out[2].split(",")
    assert row_b[0] == "b" and row_b[1] == "2"


def test_centrality_command_quotes_a_node_name_with_a_comma(tmp_path, capsys):
    schema = [VariableSpec(name, "continuous") for name in ("a,b", "c", "d")]
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    export_graph(document_from_adjacency(schema, adj), tmp_path / "g.json")
    rc = main(["centrality", str(tmp_path / "g.json")])
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(len(row) == 4 for row in rows)
    assert [row[0] for row in rows] == ["node", "a,b", "c", "d"]
    assert rows[1][1:] == ["1", "0", f"{2 / 3:.12g}"]


def test_weighted_centrality_command(tmp_path, capsys):
    # edge distance is 1/strength: a-b 0.5, b-c 1, so a-c runs 1.5 through b
    schema = [VariableSpec(name, "continuous") for name in "abc"]
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 1] = True
    doc = document_from_adjacency(schema, adj)
    doc.edges[0]["strength"] = 2.0
    export_graph(doc, tmp_path / "g.json")
    rc = main(["centrality", str(tmp_path / "g.json"), "--weighted"])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[1:] == ["a,1,0,1", f"b,2,1,{2 / 1.5:.12g}", f"c,1,0,{2 / 2.5:.12g}"]


def _document_text(edges, names=("a", "b")):
    doc = document_from_adjacency([VariableSpec(name, "continuous") for name in names],
                                  np.zeros((len(names),) * 2, bool))
    doc.edges = edges
    return doc.to_json()


EDGE = {"source": "a", "target": "b", "strength": 1.0, "sign": "positive",
        "tau": None, "attained_by": None}


@pytest.mark.parametrize("command, text", [
    ("centrality", '{"format": "qmgm-graph", "version": 1}'),
    ("metrics", "[1, 2]"),
    ("metrics", _document_text([dict(EDGE, target="zz")])),
    ("hamming", _document_text([dict(EDGE, source="zz")])),
    ("hamming", _document_text([], names=("a", "b", "a"))),
    ("centrality", _document_text([dict(EDGE, sign="sideways")])),
    ("centrality", _document_text([dict(EDGE, strength="x")])),
    ("centrality", _document_text([{k: v for k, v in EDGE.items() if k != "strength"}])),
    ("metrics", _document_text([dict(EDGE, sign="sideways")])),
    ("hamming", _document_text([dict(EDGE, sign="sideways")])),
    ("metrics", _document_text([dict(EDGE, strength="x")])),
    ("hamming", _document_text([dict(EDGE, strength="x")])),
    ("metrics", _document_text([{k: v for k, v in EDGE.items() if k != "strength"}])),
    ("hamming", _document_text([{k: v for k, v in EDGE.items() if k != "strength"}])),
    ("metrics", _document_text([dict(EDGE, target="a")])),
    ("hamming", _document_text([dict(EDGE, target="a")])),
    ("centrality", _document_text([EDGE, dict(EDGE, source="b", target="a", strength=2.0,
                                              sign="negative")])),
    ("centrality", _document_text([dict(EDGE, strength=float("inf"))])),
    ("centrality", _document_text([dict(EDGE, strength="0.7")])),
    ("centrality", _document_text([dict(EDGE, strength=True)])),
    ("centrality", _document_text([dict(EDGE, strength=10 ** 400)])),
    ("centrality", _document_text([dict(EDGE, tau=7.5)])),
    ("centrality", _document_text([dict(EDGE, tau=0.0)])),
    ("centrality", _document_text([dict(EDGE, tau=1.0)])),
    ("centrality", _document_text([dict(EDGE, tau=float("nan"))])),
    ("centrality", _document_text([dict(EDGE, tau="0.5")])),
    ("centrality", _document_text([dict(EDGE, attained_by="zz")])),
    ("centrality", _document_text([dict(EDGE, attained_by=0)])),
], ids=["no_nodes", "not_an_object", "metrics_unknown_node", "hamming_unknown_node",
        "duplicate_node", "unknown_sign", "text_strength", "no_strength",
        "metrics_unknown_sign", "hamming_unknown_sign", "metrics_text_strength",
        "hamming_text_strength", "metrics_no_strength", "hamming_no_strength",
        "metrics_self_loop", "hamming_self_loop", "pair_listed_twice",
        "infinite_strength", "numeric_text_strength", "boolean_strength",
        "huge_integer_strength", "tau_above_one", "tau_zero", "tau_one", "nan_tau", "text_tau",
        "unknown_attained_by", "numeric_attained_by"])
def test_malformed_graph_document_is_a_data_error(tmp_path, capsys, command, text):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(_document_text([EDGE]), encoding="utf-8")
    bad.write_text(text, encoding="utf-8")
    argv = {"centrality": ["centrality", str(bad)],
            "metrics": ["metrics", "--truth", str(good), "--estimate", str(bad)],
            "hamming": ["hamming", str(good), str(bad)]}[command]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("qmgm: data error: ")


def test_impute_command(tmp_path):
    schema = tmp_path / "s.txt"
    schema.write_text("a continuous\nb count\n", encoding="utf-8")
    data = tmp_path / "d.csv"
    rows = ["a,b"] + [f"{i * 0.5},{i % 4}" for i in range(20)] + [",2"]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "imputed.csv"
    rc = main(["impute", str(data), "--schema", str(schema),
               "--knn-k", "5", "--output", str(out)])
    assert rc == 0
    text = out.read_text().splitlines()
    assert len(text) == 22
    assert "," == text[-1][0] or "" != text[-1].split(",")[0]  # cell filled
    assert text[-1].split(",")[0] != ""


def test_simulate_determinism_across_runs(tmp_path):
    args = ["simulate", "--n", "90", "--R", "2",
            "--learners", "qmgm1", "--lambda-count", "5", "--seed", "11",
            "--threads", "2"]
    rc = main(args + ["--output", str(tmp_path / "one")])
    assert rc == 0
    rc = main(args + ["--output", str(tmp_path / "two")])
    assert rc == 0
    for name in ("summary.csv", "details.csv", "truth.json"):
        assert (tmp_path / "one" / name).read_bytes() == \
            (tmp_path / "two" / name).read_bytes()


# sha256 of the files written by the pinned simulate configuration below.
PINNED_SIMULATE_SHA256 = {
    "summary.csv": "f2a7922fb3d76842127686eceff59549ec456e3090d637c18054e375823fdbd0",
    "details.csv": "b27f63124be5864c03ddb3e1b766acd2d2befe28fff955fe8fd688b4f9365388",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_output_pinned(tmp_path, threads):
    """A fixed simulate configuration writes byte-for-byte the same
    summary.csv and details.csv as before any refactoring, serially and
    from the replication pool, which turns the "identical output" contract
    into a check.

    The hashes hold for the numpy/BLAS build they were recorded with
    (numpy 2.4.6 with its bundled OpenBLAS 0.3.31, Python 3.11, x86-64);
    another build may round differently, and its hashes must then be
    re-recorded from a checkout whose output is known to be right.
    """
    _assert_simulate_pinned(tmp_path, "qmgm3,mgm", threads, PINNED_SIMULATE_SHA256)


# The manifest's config digest of each pinned simulate configuration: a
# sha256 over the settings of the run, so it holds on any numpy/BLAS build.
PINNED_CONFIG_DIGESTS = {
    "qmgm3,mgm": "c3a8d75e139689f464b95459ccf24ff0f77cd006b2e18f63cb4ed64737a89da8",
    "qmgm1,qmgm3,qmgm7": "e3693fd4e03010488fe85ec81cdd2afd7e088b505d5cba903fc9d43c0f6c0230",
}


def _assert_simulate_pinned(tmp_path, learners, threads, pinned):
    out = tmp_path / "sim"
    rc = main(["simulate", "--n", "150", "--R", "3", "--learners", learners,
               "--lambda-count", "12", "--seed", "7", "--threads", threads,
               "--output", str(out)])
    assert rc == 0
    for name, digest in pinned.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert f"config_digest: {PINNED_CONFIG_DIGESTS[learners]}" in manifest


# The same configuration with the nested level grids {1/2} within the
# quartiles within the octiles, whose learners share lambda paths.
PINNED_NESTED_SIMULATE_SHA256 = {
    "summary.csv": "445701d48d06db6068a4cde684d9a4e0b20416062c3bfb7219b01f63e898b313",
    "details.csv": "3c0a76085cf4ea45e11326d5e418bcfcd37533fbff5966030c0bdbc3613d5dfc",
}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_nested_grids_output_pinned(tmp_path, threads):
    """Learners whose level grids nest write the same files as when each
    fitted all of its own paths (recorded before paths were shared), on the
    same numpy/BLAS build as the pin above."""
    _assert_simulate_pinned(tmp_path, "qmgm1,qmgm3,qmgm7", threads,
                            PINNED_NESTED_SIMULATE_SHA256)


# sha256 over the adjacency at every lambda of every cube, and the selected
# lambda index of every criterion, in call order, for the pinned simulate
# configuration with all four learners.
PINNED_EDGE_SETS_SHA256 = "d0eb94c1826d23afa318dd92f788160956e5d82b1652bfb78005ce1f164ed582"


def test_simulate_edge_sets_pinned(tmp_path, monkeypatch):
    """Every learner's edge set at every lambda, and every criterion's
    selected lambda index, match the recorded digest (on the numpy/BLAS
    build of the pins above).  The file pins see the edge sets only through
    the recovery metrics; this checks the same graphs directly."""
    calls = []

    def recorded(fn):
        def call(*args, **kwargs):
            calls.append(fn(*args, **kwargs))
            return calls[-1]
        return call

    for name in ("fit_qmgm", "fit_mgm", "select_lambda"):
        monkeypatch.setattr(benchmark, name, recorded(getattr(benchmark, name)))
    rc = main(["simulate", "--n", "150", "--R", "3", "--learners", "qmgm1,qmgm3,qmgm7,mgm",
               "--lambda-count", "12", "--seed", "7", "--threads", "1",
               "--output", str(tmp_path / "sim")])
    assert rc == 0
    parts = []
    for item in calls:
        if isinstance(item, CoefficientCube):
            upper = np.triu_indices(item.p, 1)
            edges = [estimate_edge_set(item, mi).adjacency[upper]
                     for mi in range(item.n_lambdas)]
            parts.append([np.packbits(e).tobytes().hex() for e in edges])
        else:
            parts.append(item[0])
    assert len(parts) == 3 * 4 * (1 + len(CRITERION_NAMES))
    digest = hashlib.sha256(json.dumps(parts).encode()).hexdigest()
    assert digest == PINNED_EDGE_SETS_SHA256


PINNED_FIT_SHA256 = "8f010a98acc497c1e39e645b22be873153d9066a6ccace5c034e07dd4f0942fd"


@pytest.mark.parametrize("threads", ["1", "2"])
def test_fit_output_pinned(small_csv, tmp_path, threads):
    """A fixed fit configuration writes byte-for-byte the same graph
    document at either --threads value (the fit runs in one process at
    both), which turns the "identical output" contract into a check for
    the applied fit too.

    Like the simulate pin, the hash holds for the numpy/BLAS build it was
    recorded with (numpy 2.4.6 with its bundled OpenBLAS 0.3.31, Python
    3.11, x86-64); another build must re-record it from a checkout whose
    output is known to be right.
    """
    csv_path, schema_path = small_csv
    out = tmp_path / "graph.json"
    rc = main(["fit", str(csv_path), "--schema", str(schema_path),
               "--tau-levels", "3", "--lambda-count", "8", "--criterion", "bicp",
               "--threads", threads, "--output", str(out)])
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_FIT_SHA256
