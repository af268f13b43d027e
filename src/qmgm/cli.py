"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .analysis import (_check_knn_k, centrality, hamming_distance, knn_impute,
                       weighted_centrality)
from .benchmark import (DgpVariant, confusion_metrics, default_lambda_grid,
                        run_replications, write_outputs)
from .core import DataError, NONZERO_TOL, QuantileGrid, _check_threads, \
    _check_tolerance, standard_levels, validate_and_standardize
from .io import (GraphDocument, document_from_graph, load_csv, load_schema,
                 render_dot, save_csv)
from .selection import (CRITERION_NAMES, SelectionCriterion, estimate_edge_set,
                        fit_qmgm, quantile_losses, score_path, select_lambda)


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_tau_levels(text: str) -> QuantileGrid:
    text = text.strip()
    try:
        if text.isdecimal():
            return standard_levels(int(text))
        return QuantileGrid(tuple(float(t) for t in text.split(",")))
    except ValueError:
        raise DataError("--tau-levels takes a level count or comma-separated "
                        f"levels, got {text!r}") from None


def _add_shared(parser, lambda_count: int):
    parser.add_argument("--lambda-min", type=float, default=0.001)
    parser.add_argument("--lambda-max", type=float, default=5.0)
    parser.add_argument("--lambda-count", type=int, default=lambda_count)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--tolerance", type=float, default=NONZERO_TOL,
                        help="absolute coefficient size that counts as an edge")
    parser.add_argument("--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="qmgm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_fit = sub.add_parser("fit", help="fit a graph to a CSV dataset")
    p_fit.add_argument("data", help="CSV file with header row")
    p_fit.add_argument("--schema", required=True, help="schema file")
    p_fit.add_argument("--missing-token", default="")
    p_fit.add_argument("--knn-k", type=int, default=13,
                       help="neighbors for imputation when values are missing")
    p_fit.add_argument("--dot", default=None, help="also write a dot rendering here")
    p_fit.add_argument("--tau-levels", default="7",
                       help="level count (1/3/7/17/...) or comma-separated levels")
    p_fit.add_argument("--criterion", default="bic", choices=CRITERION_NAMES)
    p_fit.add_argument("--cn", type=float, default=None,
                       help="override the BIC complexity constant")
    _add_shared(p_fit, lambda_count=100)
    p_fit.set_defaults(func=_cmd_fit)

    p_sim = sub.add_parser("simulate", help="run the synthetic benchmark")
    p_sim.add_argument("--n", type=int, default=500)
    p_sim.add_argument("--R", type=int, default=20)
    p_sim.add_argument("--learners", default="qmgm7,mgm",
                       help="comma-separated: mgm and/or qmgm<L>")
    p_sim.add_argument("--seed", type=int, default=0)
    _add_shared(p_sim, lambda_count=50)
    p_sim.set_defaults(func=_cmd_simulate)

    p_met = sub.add_parser("metrics", help="recovery metrics of an estimate vs a truth")
    p_met.add_argument("--truth", required=True, help="graph document (json)")
    p_met.add_argument("--estimate", required=True, help="graph document (json)")
    p_met.add_argument("--output", default=None)
    p_met.set_defaults(func=_cmd_metrics)

    p_cen = sub.add_parser("centrality", help="degree/betweenness/closeness report")
    p_cen.add_argument("graph", help="graph document (json)")
    p_cen.add_argument("--weighted", action="store_true",
                       help="use edge distance 1/strength")
    p_cen.add_argument("--output", default=None)
    p_cen.set_defaults(func=_cmd_centrality)

    p_ham = sub.add_parser("hamming", help="normalized Hamming distance of two graphs")
    p_ham.add_argument("first", help="graph document (json)")
    p_ham.add_argument("second", help="graph document (json)")
    p_ham.add_argument("--output", default=None)
    p_ham.set_defaults(func=_cmd_hamming)

    p_imp = sub.add_parser("impute", help="k-nearest-neighbor imputation of a CSV")
    p_imp.add_argument("data", help="CSV file with header row")
    p_imp.add_argument("--schema", required=True)
    p_imp.add_argument("--missing-token", default="")
    p_imp.add_argument("--knn-k", type=int, default=13)
    p_imp.add_argument("--output", required=True)
    p_imp.set_defaults(func=_cmd_impute)

    return parser


def _write_text(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_output_file(path) -> None:
    """DataError when ``path`` is given and is empty, names a directory, or
    its directory does not exist."""
    if path is not None:
        folder = os.path.dirname(path) or "."
        if not path or os.path.isdir(path) or not os.path.isdir(folder):
            raise DataError(f"cannot write a file at {path!r}")


def _cmd_fit(args) -> int:
    _check_tolerance(args.tolerance)
    # checked, but a fit runs all its paths in one batch in this process
    _check_threads(args.threads)
    _check_knn_k(args.knn_k)
    _check_output_file(args.output)
    _check_output_file(args.dot)
    grid = _parse_tau_levels(args.tau_levels)
    lambdas = default_lambda_grid(args.lambda_min, args.lambda_max, args.lambda_count)
    schema = load_schema(args.schema)
    dataset = load_csv(args.data, schema, args.missing_token)
    if dataset.has_missing():
        dataset = knn_impute(dataset, args.knn_k)
    dataset = validate_and_standardize(dataset)
    criterion = SelectionCriterion.from_name(args.criterion, dataset.p, args.cn)
    per_coef = criterion.complexity(dataset.n, dataset.p)  # not finite: exit 2 before fitting
    cube = fit_qmgm(dataset, grid, lambdas)
    scores = score_path(cube, quantile_losses(cube, dataset), [criterion],
                        dataset.n, nonzero_tol=args.tolerance)
    index, lam = select_lambda(scores[0], lambdas)
    graph = estimate_edge_set(cube, index, args.tolerance)
    meta = {
        "n": dataset.n,
        "p": dataset.p,
        "tau_levels": list(grid.levels),
        "lambda": lam,
        "criterion": args.criterion,
        "cn": criterion.cn if criterion.kind == "bic" else None,
        "nonzero_tolerance": args.tolerance,
        "lambda_grid": {"min": args.lambda_min, "max": args.lambda_max,
                        "count": args.lambda_count},
    }
    doc = document_from_graph(graph, dataset.schema, meta)
    _write_text(args.output, doc.to_json())
    if args.dot:
        _write_text(args.dot, render_dot(doc))
    if per_coef == 0:
        print(f"qmgm: criterion {args.criterion!r} has no complexity term at n = {dataset.n}, "
              f"p = {dataset.p}: lambda is chosen on loss alone", file=sys.stderr)
    uncertified = np.count_nonzero(~cube.converged)
    if uncertified:
        print(f"qmgm: {uncertified} of {cube.converged.size} (node, level, lambda) points "
              f"are not certified converged", file=sys.stderr)
    print(f"selected lambda {lam:.6g} ({graph.n_edges} edges)", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    learners = [nm.strip() for nm in args.learners.split(",") if nm.strip()]
    if not learners:
        raise DataError("no learners given")
    variant = DgpVariant(n=args.n, seed=args.seed)
    lambdas = default_lambda_grid(args.lambda_min, args.lambda_max,
                                  args.lambda_count)
    outdir = "qmgm-simulate" if args.output is None else args.output
    if not outdir:
        raise DataError("cannot make a directory at ''")
    head = os.path.abspath(outdir)      # write_outputs makes the missing parents too
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise DataError(f"cannot make a directory at {outdir!r}: {head!r} is not one")
    run = run_replications(learners, variant, args.R, lambdas=lambdas,
                           nonzero_tol=args.tolerance, threads=args.threads)
    write_outputs(run, outdir, threads=args.threads)
    print(f"wrote {outdir}/summary.csv ({len(run.records)} of {run.R} "
          f"replications succeeded)")
    return 0


def _aligned_adjacencies(first_path, second_path):
    """Adjacencies of two graph documents over the same node set, both in
    the first document's node order."""
    first, second = GraphDocument.load(first_path), GraphDocument.load(second_path)
    order, names = first.node_names(), second.node_names()
    if set(order) != set(names):
        raise DataError("graphs name different node sets")
    perm = [names.index(nm) for nm in order]
    return first.adjacency(), second.adjacency()[np.ix_(perm, perm)]


def _cmd_metrics(args) -> int:
    m = confusion_metrics(*_aligned_adjacencies(args.truth, args.estimate))
    lines = ["metric,value"]
    for name in ("precision", "tpr", "fpr", "f1", "mcc", "accuracy"):
        lines.append(f"{name},{getattr(m, name):.12g}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_centrality(args) -> int:
    doc = GraphDocument.load(args.graph)
    graph = doc.to_graph()
    report = (weighted_centrality if args.weighted else centrality)(
        graph, names=doc.node_names())
    lines = ["node,degree,betweenness,closeness"]
    for i, name in enumerate(report.names):
        lines.append(f"{name},{report.degree[i]},"
                     f"{report.betweenness[i]:.12g},{report.closeness[i]:.12g}")
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def _cmd_hamming(args) -> int:
    value = hamming_distance(*_aligned_adjacencies(args.first, args.second))
    _write_text(args.output, f"{value:.12g}\n")
    return 0


def _cmd_impute(args) -> int:
    _check_knn_k(args.knn_k)
    _check_output_file(args.output)
    schema = load_schema(args.schema)
    dataset = load_csv(args.data, schema, args.missing_token)
    imputed = knn_impute(dataset, args.knn_k)
    save_csv(imputed, args.output, args.missing_token)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"qmgm: data error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"qmgm: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
