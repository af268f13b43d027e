"""Self-test of the benchmark harness on tiny configurations.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import dataclasses
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import tablegen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY_SIM = dataclasses.replace(workloads.WORKLOADS["sim-ref"], n=120,
                               learners=("qmgm1", "mgm"), lambda_min=0.5,
                               lambda_count=2)
TINY_FIT = dataclasses.replace(workloads.WORKLOADS["fit-table"], tau_levels=1,
                               lambda_count=2, workers=1)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tiny_run(workload, traced, reference=None):
    lines = []
    result = run.run_workload(workload, 1, 0.5, traced, setup_repeats=1,
                              reference=reference, out=lines.append)
    return result, lines


@pytest.mark.parametrize("traced, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_is_reported_with_its_unit(traced, section):
    result, lines = tiny_run(TINY_SIM, traced)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec()[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    json.dumps(result)
    if traced:
        text = "\n".join(lines)
        assert all(name in text for name in declared)


def test_span_self_times_add_up_to_their_parents():
    inputs = TINY_SIM.make_inputs(1, "unused")
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        tracer.start_op()
        TINY_SIM.run_op(inputs[0])
        tracer.end_op()
    finally:
        uninstall()
    recorded = tracer.history
    assert recorded and recorded[0][0] == "benchmark.run_replications"
    for name, start, end, parent, _ in recorded:
        if parent >= 0:
            assert recorded[parent][1] <= start <= end <= recorded[parent][2], name
    tree, totals = spans.aggregate(recorded)

    def check(node):
        children = node.get("children", [])
        assert node["self_s"] >= -1e-9
        assert math.isclose(node["self_s"] + sum(c["wall_s"] for c in children),
                            node["wall_s"], rel_tol=1e-9, abs_tol=1e-9)
        for child in children:
            check(child)

    for root in tree:
        check(root)
    assert math.isclose(sum(t["self_s"] for t in totals.values()),
                        sum(root["wall_s"] for root in tree), rel_tol=1e-9)
    assert totals["selection.fit_qmgm"]["paths"] == 10
    assert totals["penalized.penalized_wls"]["calls"] > 0


class CorruptingFit(workloads.FitWorkload):
    """Writes a graph document that no longer parses."""

    def run_op(self, inp, threads=None):
        result = super().run_op(inp, threads)
        with open(inp[2], "w", encoding="utf-8") as fh:
            fh.write('{"format": "qmgm-graph", "nodes": [')
        return result


def test_corrupted_output_is_counted_as_failed():
    corrupt = CorruptingFit(**dataclasses.asdict(TINY_FIT))
    result, lines = tiny_run(corrupt, False)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert any("does not parse back" in line for line in lines)


def test_digest_mismatch_is_counted_as_failed():
    result, lines = tiny_run(TINY_FIT, False, reference=["0" * 64])
    assert result["failed"] == result["attempted"] >= 1
    assert any("differs from the reference" in line for line in lines)


def test_table_matches_the_mass_shootings_schema():
    from qmgm.io import load_schema

    schema = load_schema(os.path.join(ROOT, "schemas", "mass_shootings.schema"))
    assert [(s.name, s.kind, s.domain) for s in schema] == list(tablegen.COLUMNS)
    values, missing = tablegen.generate_table(5)
    assert values.shape == (tablegen.N_ROWS, len(tablegen.COLUMNS))
    again = tablegen.generate_table(5)
    assert (values == again[0]).all() and (missing == again[1]).all()
