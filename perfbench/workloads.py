"""Benchmark workloads: their inputs, one operation each, and its checks.

Every workload cycles through a pool of ``POOL`` inputs drawn from the run's
seed (input i of seed s is replication seed ``s * POOL + i``).  A check
returns an ``OpOutcome``; a failed check raises ``CheckFailed``.

The op's edge-set digest covers the adjacency at every lambda of every
coefficient cube the op fitted and every selected lambda index, in call
order.  At the reference seed it must equal the digest recorded in
``reference.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from qmgm import benchmark, cli, core, mgm, selection
from qmgm.io import GraphDocument

import spans
import tablegen

POOL = 16
REFERENCE_SEED = 0
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")

# The originals, bound before any wrapper is installed, for the checks.
_estimate_edge_set = selection.estimate_edge_set
_roc_curve = benchmark.roc_curve
_confusion_metrics = benchmark.confusion_metrics


class CheckFailed(Exception):
    """An op ran but its output failed a correctness check."""


@dataclass
class OpOutcome:
    digest: str
    quality: dict     # recovery figure name -> value, e.g. "auc.qmgm7"


class Recorder:
    """Keeps the cubes and lambda picks an op produces, in call order."""

    def __init__(self):
        self.items = []

    def install(self):
        def keep(fn):
            def recorded(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.items.append(result)
                return result
            # Keep the identity the tracer uses to name and find layer functions.
            recorded.__name__ = fn.__name__
            recorded.__module__ = fn.__module__
            return recorded
        originals = (selection.fit_qmgm, mgm.fit_mgm, selection.select_lambda)
        return spans.patch_everywhere({id(fn): keep(fn) for fn in originals})

    def digest(self) -> str:
        """sha256 over every cube's adjacency at each lambda (upper triangle)
        and every selected lambda index."""
        parts = []
        for item in self.items:
            if isinstance(item, core.CoefficientCube):
                iu = np.triu_indices(item.p, 1)
                parts.append([np.packbits(_estimate_edge_set(item, mi).adjacency[iu]).tobytes().hex()
                              for mi in range(item.n_lambdas)])
            else:
                parts.append(item[0])
        return hashlib.sha256(json.dumps(parts).encode()).hexdigest()

    def cubes(self):
        return [item for item in self.items if isinstance(item, core.CoefficientCube)]


def check_unit_interval(name, value):
    if not 0.0 <= value <= 1.0:
        raise CheckFailed(f"{name} = {value!r} lies outside [0, 1]")


@dataclass(frozen=True)
class SimWorkload:
    """One op is one replication of the ten-node generator through
    ``benchmark.run_replications`` (R=1, one process)."""

    name: str
    n: int
    learners: tuple
    lambda_min: float
    lambda_count: int
    workers: int = 1
    op_label: str = "replication"

    def make_inputs(self, seed: int, workdir: str) -> list:
        """(replication seed, lambda grid) per input."""
        lambdas = benchmark.default_lambda_grid(self.lambda_min, 5.0, self.lambda_count)
        return [(seed * POOL + i, lambdas) for i in range(POOL)]

    def warm_up(self, inputs) -> None:
        benchmark.run_replications(self.learners, benchmark.DgpVariant("main", 120, 0),
                                   1, lambdas=[5.0, 0.5])

    def run_op(self, inp) -> object:
        replication_seed, lambdas = inp
        return benchmark.run_replications(
            self.learners, benchmark.DgpVariant("main", self.n, replication_seed),
            1, lambdas=lambdas)

    def check(self, inp, run, recorder) -> OpOutcome:
        if run.failures:
            raise CheckFailed(f"replication failed: {run.failures[0][2]}")
        record = run.records[0][2]
        quality = {}
        for learner in self.learners:
            check_unit_interval(f"auc.{learner}", record[learner]["auc"])
            quality[f"auc.{learner}"] = record[learner]["auc"]
        for learner in self.learners:
            quality[f"mcc.{learner}"] = record[learner]["criteria"]["bic"]["mcc"]
        return OpOutcome(recorder.digest(), quality)


@dataclass(frozen=True)
class FitWorkload:
    """One op is one ``qmgm fit`` through ``qmgm.cli.main`` on a synthetic
    table shaped like the 14-column mass-shootings analysis."""

    name: str
    tau_levels: int
    lambda_min: float
    lambda_count: int
    workers: int
    op_label: str = "fit"

    def make_inputs(self, seed: int, workdir: str) -> list:
        os.makedirs(workdir, exist_ok=True)
        schema = os.path.join(workdir, "table.schema")
        with open(schema, "w", encoding="utf-8") as fh:
            fh.write(tablegen.schema_text())
        inputs = []
        for i in range(POOL):
            path = os.path.join(workdir, f"table-{i}.csv")
            tablegen.write_csv(path, *tablegen.generate_table(seed * POOL + i))
            inputs.append((path, schema, os.path.join(workdir, f"graph-{i}.json")))
        return inputs

    def argv(self, inp, threads):
        data, schema, output = inp
        return ["fit", data, "--schema", schema,
                "--tau-levels", str(self.tau_levels),
                "--lambda-min", repr(self.lambda_min), "--lambda-max", "5",
                "--lambda-count", str(self.lambda_count),
                "--criterion", "bic", "--threads", str(threads),
                "--output", output]

    def warm_up(self, inputs) -> None:
        data, schema, output = inputs[0]
        with contextlib.redirect_stderr(io.StringIO()):
            cli.main(["fit", data, "--schema", schema, "--tau-levels", "1",
                      "--lambda-count", "2", "--threads", str(self.workers),
                      "--output", output])

    def run_op(self, inp, threads=None) -> object:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.argv(inp, self.workers if threads is None else threads))
        return code, err.getvalue()

    def check(self, inp, result, recorder) -> OpOutcome:
        code, err = result
        if code != 0:
            raise CheckFailed(f"qmgm fit exited {code}: {err.strip()}")
        try:
            doc = GraphDocument.load(inp[2])
            adjacency = doc.adjacency()
        except (OSError, KeyError, ValueError) as exc:
            raise CheckFailed(f"graph document does not parse back: {exc}") from None
        names = [c[0] for c in tablegen.COLUMNS]
        if doc.node_names() != names or not np.array_equal(adjacency, adjacency.T):
            raise CheckFailed("graph document has wrong nodes or an asymmetric adjacency")
        cubes = recorder.cubes()
        if len(cubes) != 1:
            raise CheckFailed(f"expected one coefficient cube, saw {len(cubes)}")
        truth = tablegen.true_adjacency()
        learner = f"qmgm{self.tau_levels}"
        _, auc = _roc_curve(truth, [_estimate_edge_set(cubes[0], mi)
                                    for mi in range(cubes[0].n_lambdas)])
        check_unit_interval(f"auc.{learner}", auc)
        return OpOutcome(recorder.digest(), {
            f"auc.{learner}": auc,
            "fit_mcc": _confusion_metrics(truth, adjacency).mcc})


WORKLOADS = {
    "sim-ref": SimWorkload("sim-ref", n=500, learners=("qmgm1", "qmgm3", "qmgm7", "mgm"),
                           lambda_min=0.05, lambda_count=4),
    "fit-table": FitWorkload("fit-table", tau_levels=7, lambda_min=0.01,
                             lambda_count=5, workers=2),
}


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)
