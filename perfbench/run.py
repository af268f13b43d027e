#!/usr/bin/env python3
"""qmgm benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload sim-ref --seed 0 --seconds 50 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src``.  Prints a readable report, then as its last line
one JSON object {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first half of the time runs untraced (for the overhead baseline and the
process CPU figures) and the second half traced, and the metrics are the
per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3

# The machine the benchmark was tuned on changes speed by up to 1.5x, in
# spells from seconds to minutes.  Each timed interval is therefore scaled
# by PROBE_REF_S over the time a fixed pure-Python loop took right before
# and right after it: the results read as seconds on a machine where the
# probe takes PROBE_REF_S.
PROBE_LOOPS = 1_000_000
PROBE_REF_S = 0.1

SETUP_SNIPPET = """\
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import qmgm.cli
import workloads
workloads.WORKLOADS[sys.argv[3]].make_inputs(int(sys.argv[4]), sys.argv[5])
"""


def probe():
    """Seconds the fixed speed-probe loop takes right now; it uses nothing
    from qmgm, so no change to the program moves it."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled(seconds, probe_before, probe_after):
    """An interval in seconds at the probe's reference speed."""
    return seconds * 2.0 * PROBE_REF_S / (probe_before + probe_after)


def measure_setup(workload, seed, workdir, repeats=SETUP_REPEATS):
    """Median over repeats of a fresh interpreter importing qmgm.cli and
    generating the workload's inputs: (as measured, at reference speed)."""
    times, scaled_times = [], []
    before = probe()
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, HERE,
                        workload.name, str(seed), workdir],
                       check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        after = probe()
        scaled_times.append(scaled(times[-1], before, after))
        before = after
    return statistics.median(times), statistics.median(scaled_times)


def peak_rss_mb():
    """Larger of this process's and its reaped children's high-water marks."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class DigestMismatch(Exception):
    """An op's edge-set digest differs from the recorded reference."""


class Phase:
    """Timed ops over the input pool with correctness checks outside the
    timed region."""

    def __init__(self, workload, inputs, reference, recorder, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.inputs = inputs
        self.reference = reference
        self.recorder = recorder
        self.walls = []       # every op, failed ones included
        self.times = []       # ops that passed their checks
        self.scaled = []      # the same at the probe's reference speed
        self.probes = []      # one before the first op and one after each
        self.outcomes = []
        self.failures = []
        self.cpu_s = 0.0
        self.digests_checked = 0

    def run(self, seconds):
        """Start ops until the next one would end past the deadline (by the
        median so far); at least one op always runs."""
        deadline = time.perf_counter() + seconds
        index = 0
        self.probes.append(probe())
        while True:
            now = time.perf_counter()
            if self.times or self.failures:
                expected = statistics.median(self.times) if self.times else 0.0
                if now + expected > deadline:
                    break
            self.one(index)
            index += 1

    def one(self, index):
        inp = self.inputs[index % len(self.inputs)]
        self.recorder.items.clear()
        cpu0 = cpu_seconds()
        if self.tracer is not None:
            self.tracer.start_op()
        start = time.perf_counter()
        try:
            result = self.workload.run_op(inp)
        except Exception as exc:  # noqa: BLE001 - an op failure is counted, not fatal
            elapsed = time.perf_counter() - start
            result, error = None, f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            error = None
        if self.tracer is not None:
            self.tracer.end_op()
        self.cpu_s += cpu_seconds() - cpu0
        self.walls.append(elapsed)
        self.probes.append(probe())
        if error is None:
            try:
                outcome = self.workload.check(inp, result, self.recorder)
                if self.reference is not None:
                    expected = self.reference[index % len(self.reference)]
                    self.digests_checked += 1
                    if outcome.digest != expected:
                        raise DigestMismatch(f"input {index}: edge-set digest "
                                             f"{outcome.digest[:16]} differs from "
                                             f"the reference {expected[:16]}")
            except Exception as exc:  # noqa: BLE001 - a failed check fails the op
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            self.times.append(elapsed)
            self.scaled.append(scaled(elapsed, *self.probes[-2:]))
            self.outcomes.append(outcome)
        else:
            self.failures.append((index, error))


def timing_report(label, times):
    """Median and the sample count; a tail percentile only when at least ten
    samples lie beyond it."""
    n = len(times)
    if not n:
        return f"{label}: no successful ops"
    line = f"{label}: median {statistics.median(times):.4f} s, n={n}"
    if n > 20:
        q = int(100 * (1 - 10 / n))
        line += f", p{q} {statistics.quantiles(times, n=100)[q - 1]:.4f} s"
    else:
        line += f", max {max(times):.4f} s (no percentile has ten samples beyond it)"
    return line


def quality_report(outcomes):
    """Median of each recovery figure over the ops that passed their checks."""
    names = outcomes[0].quality if outcomes else {}
    return [f"{name}: median {statistics.median(o.quality[name] for o in outcomes):.4f} "
            f"(ratio, over {len(outcomes)} ops)" for name in names]


def layer_metrics(totals, traced, untraced, workers):
    """Per-layer metrics per traced op; see README.md for the mapping."""
    traced_wall = traced.walls
    ops = max(len(traced_wall), 1)

    def tot(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    def per_op(value):
        return value / ops

    wls = totals.get("penalized.penalized_wls", {})
    fitq = totals.get("selection.fit_qmgm", {})
    solves = wls.get("calls", 0) + fitq.get("pooled_solves", 0)
    sweeps = wls.get("sweeps", 0) + fitq.get("pooled_sweeps", 0)
    rows = tot("penalized.inverse_midquantile_targets", "rows")
    self_sum = sum(t["self_s"] for t in totals.values())
    untraced_median = statistics.median(untraced.scaled) if untraced.scaled else 0.0
    traced_median = statistics.median(traced.scaled) if traced.scaled else 0.0
    wall = statistics.fmean(untraced.walls)
    cpu = untraced.cpu_s / len(untraced.walls)
    m = {
        "midcdf.fit_threshold_logits.self_s": per_op(tot("midcdf.fit_threshold_logits")),
        "midcdf.build_field.self_s": per_op(tot("midcdf.build_field")),
        "midcdf.thresholds_fitted": per_op(tot("midcdf.fit_threshold_logits", "thresholds_fitted")),
        "midcdf.logits_unconverged": per_op(tot("midcdf.fit_threshold_logits", "logits_unconverged")),
        "penalized.penalized_wls.self_s": per_op(tot("penalized.penalized_wls")),
        "penalized.penalized_wls.qmgm.self_s": per_op(
            wls.get("self_s", 0.0) - wls.get("self_s.mgm", 0.0)),
        "penalized.penalized_wls.mgm.self_s": per_op(wls.get("self_s.mgm", 0.0)),
        "penalized.wls_solves": per_op(solves),
        "penalized.wls_sweeps": per_op(sweeps),
        "penalized.sweeps_per_solve": sweeps / solves if solves else 0.0,
        "penalized.wls_unconverged": per_op(wls.get("unconverged", 0)
                                            + fitq.get("pooled_unconverged", 0)),
        "penalized.inverse_midquantile_targets.self_s": per_op(
            tot("penalized.inverse_midquantile_targets")),
        "penalized.solvable_row_ratio": (
            tot("penalized.inverse_midquantile_targets", "solvable_rows") / rows if rows else 0.0),
        "penalized.smooth_objective.self_s": per_op(tot("penalized.smooth_objective")),
        "penalized.fit_lambda_path.self_s": per_op(tot("penalized.fit_lambda_path")),
        "selection.build_problems.wall_s": per_op(tot("selection.build_problems", "wall_s")),
        "selection.fit_qmgm.wall_s": per_op(fitq.get("wall_s", 0.0)),
        "selection.paths_fitted": per_op(fitq.get("paths", 0)),
        "selection.distinct_path_ratio": (
            len(fitq["path_keys"]) / fitq["paths"] if fitq.get("paths") else 0.0),
        "selection.score_path.wall_s": per_op(tot("selection.score_path", "wall_s")),
        "selection.score_path.calls": per_op(tot("selection.score_path", "calls")),
        "selection.estimate_edge_set.self_s": per_op(tot("selection.estimate_edge_set")),
        "mgm.fit_mgm.wall_s": per_op(tot("mgm.fit_mgm", "wall_s")),
        "mgm.outer_iterations": per_op(tot("mgm.fit_mgm", "outer_iterations")),
        "mgm.unconverged": per_op(tot("mgm.fit_mgm", "unconverged")),
        "mgm.block_loss.self_s": per_op(tot("mgm.block_loss")),
        "benchmark.generate_sample.self_s": per_op(tot("benchmark.generate_sample")),
        "benchmark.roc_curve.self_s": per_op(tot("benchmark.roc_curve")),
    }
    for learner in ("qmgm1", "qmgm3", "qmgm7", "mgm"):
        m[f"benchmark.run_learner.{learner}.wall_s"] = per_op(
            tot(f"benchmark.run_learner.{learner}", "wall_s"))
    m.update({
        "core.validate_and_standardize.self_s": per_op(tot("core.validate_and_standardize")),
        "io.load_csv.self_s": per_op(tot("io.load_csv")),
        "io.graph_write.self_s": per_op(tot("io.graph_write")),
        "analysis.knn_impute.self_s": per_op(tot("analysis.knn_impute")),
        "analysis.imputed_cells": per_op(tot("analysis.knn_impute", "imputed_cells")),
        "process.cpu_s": cpu,
        "process.pool_efficiency": cpu / (workers * wall) if wall else 0.0,
        "trace.wall_s": statistics.fmean(traced_wall) if traced_wall else 0.0,
        "trace.unattributed_s": per_op(sum(traced_wall) - self_sum),
        "trace.overhead_ratio": traced_median / untraced_median if untraced_median else 0.0,
    })
    return m


def load_benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, traced, *, setup_repeats=SETUP_REPEATS,
                 reference=None, out=print):
    """Run one workload and return the result object (also printed by main)."""
    import spans
    from workloads import Recorder

    spec = load_benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workdir = os.path.join(WORK, f"{workload.name}-seed{seed}-{os.getpid()}")
    try:
        setup_raw, setup_s = measure_setup(workload, seed, workdir, setup_repeats)
        inputs = workload.make_inputs(seed, workdir)
        recorder = Recorder()
        unrecord = recorder.install()
        try:
            workload.warm_up(inputs)
            untraced = Phase(workload, inputs, reference, recorder)
            if not traced:
                untraced.run(seconds)
                phases, spans_report = [untraced], None
            else:
                untraced.run(seconds / 2.0)
                tracer = spans.Tracer()
                traced_phase = Phase(workload, inputs, reference, recorder, tracer)
                uninstall = tracer.install()
                try:
                    traced_phase.run(seconds / 2.0)
                finally:
                    uninstall()
                phases = [untraced, traced_phase]
                tree, totals = spans.aggregate(tracer.history)
                metrics = layer_metrics(totals, traced_phase, untraced, workload.workers)
                spans_report = {"workload": workload.name, "seed": seed,
                                "traced_ops": len(traced_phase.walls),
                                "traced_wall_s": sum(traced_phase.walls), "tree": tree,
                                "layers": metrics}
        finally:
            unrecord()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) + len(p.failures) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    out(f"workload {workload.name}  seed {seed}  trace {int(traced)}  "
        f"({workload.op_label} per op, input pool of {len(inputs)})")
    out(f"failed_ops: {failed}/{attempted} (ratio {failed / attempted:.4f})")
    for p in phases:
        for index, error in p.failures[:5]:
            out(f"  failed op on input {index}: {error}")
    if reference is not None:
        checked = sum(p.digests_checked for p in phases)
        out(f"edge-set digest: {checked} ops compared with the reference")
    out(timing_report(f"{workload.op_label}_s as measured", untraced.times))
    out(timing_report(f"{workload.op_label}_s at reference speed", untraced.scaled))
    out(f"speed probe: median {statistics.median(untraced.probes):.4f} s, range "
        f"{min(untraced.probes):.4f}-{max(untraced.probes):.4f} s "
        f"(reference {PROBE_REF_S} s)")
    for line in quality_report(untraced.outcomes):
        out(line)

    if not traced:
        metrics = {"op_s": statistics.median(untraced.scaled) if untraced.scaled else 0.0,
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb()}
        out(f"setup_s: {setup_s:.4f} s at reference speed, {setup_raw:.4f} s as "
            f"measured (median of {setup_repeats} fresh interpreters)")
        out(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    else:
        os.makedirs(WORK, exist_ok=True)
        trace_path = os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(spans_report, fh, indent=1)
        out(f"span tree: {trace_path}")
        for name, value in metrics.items():
            out(f"  {name:48s} {value:14.6f} {units.get(name, '')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qmgm", "__init__.py")):
        print(f"perfbench: no qmgm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    reference = None
    if args.seed == workloads.REFERENCE_SEED:
        recorded = workloads.load_reference()[args.workload]
        if recorded["config"] != repr(workload):
            print(f"perfbench: reference.json was recorded for {recorded['config']}",
                  file=sys.stderr)
            return 2
        reference = recorded["digests"]
    result = run_workload(workload, args.seed,
                          args.seconds, bool(args.trace), reference=reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
