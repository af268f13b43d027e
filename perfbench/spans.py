"""Spans around the public functions of every qmgm module.

``Tracer.install`` replaces each public module-level function of the layers
below with a wrapper at every namespace where it is bound (``penalized_wls``
lives in ``qmgm.penalized`` and is also bound in ``qmgm.mgm``).  A wrapper
records one span (name, start, end, parent) per call and, for the functions
listed in ``COUNTERS``, work counts read from the return value.  Spans stay
in memory; ``aggregate`` folds them into a call tree and per-name totals.

Calls made inside pool worker processes are not traced: the parent records
only the span of the function that owns the pool.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = ("midcdf", "penalized", "selection", "mgm", "benchmark", "core",
          "io", "analysis", "cli")


def bindings(func_ids):
    """(module, attribute, function) for every binding of the given function
    ids in the qmgm package and its layer modules."""
    modules = [importlib.import_module("qmgm")]
    modules += [importlib.import_module(f"qmgm.{layer}") for layer in LAYERS]
    found = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in func_ids:
                found.append((module, attr, obj))
    return found


def patch_everywhere(replacements):
    """Bind ``replacements[id(original)]`` wherever an original is bound;
    returns a function that puts the originals back."""
    patched = bindings(replacements)
    for module, attr, obj in patched:
        setattr(module, attr, replacements[id(obj)])

    def restore():
        for module, attr, obj in reversed(patched):
            setattr(module, attr, obj)
    return restore


def public_functions():
    """{id: (span name, function)} for the public functions each layer defines."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"qmgm.{layer}")
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                out[id(obj)] = (f"{layer}.{attr}", obj)
    return out


# Counts read from return values, keyed by span name: fn(result, args, kwargs).
def _logit_counts(res, args, kwargs):
    fitted = ~res.degenerate
    return {"thresholds_fitted": int(fitted.sum()),
            "logits_unconverged": int((fitted & ~res.converged).sum())}


def _wls_counts(res, args, kwargs):
    return {"sweeps": int(res[2]), "unconverged": int(not res[3])}


def _target_counts(res, args, kwargs):
    solvable = res[1]
    return {"rows": int(solvable.size), "solvable_rows": int(solvable.sum())}


def _qmgm_counts(cube, args, kwargs):
    dataset = args[0]
    problems = kwargs.get("problems")
    owner = id(problems) if problems is not None else id(dataset)
    counts = {"paths": cube.p * cube.n_levels,
              "path_keys": {(owner, j, float(t)) for j in range(cube.p)
                            for t in cube.tau_levels}}
    if kwargs.get("threads", 1) > 1:
        # The solves ran in pool workers, which record no spans.
        counts.update(pooled_solves=int(cube.converged.size),
                      pooled_sweeps=int(cube.iterations.sum()),
                      pooled_unconverged=int((~cube.converged).sum()))
    return counts


def _mgm_counts(cube, args, kwargs):
    return {"outer_iterations": int(cube.iterations.sum()),
            "unconverged": int((~cube.converged).sum())}


def _impute_counts(res, args, kwargs):
    return {"imputed_cells": int(args[0].missing_mask.sum())}


COUNTERS = {
    "midcdf.fit_threshold_logits": _logit_counts,
    "penalized.penalized_wls": _wls_counts,
    "penalized.inverse_midquantile_targets": _target_counts,
    "selection.fit_qmgm": _qmgm_counts,
    "mgm.fit_mgm": _mgm_counts,
    "analysis.knn_impute": _impute_counts,
}


def _span_name(name, args):
    """One span name per learner for run_learner, else the function's."""
    if (name == "benchmark.run_learner" and len(args) > 2
            and isinstance(getattr(args[2], "name", None), str)):
        return f"{name}.{args[2].name}"
    return name


class Tracer:
    """In-memory span recorder.  ``spans`` holds the current op's spans as
    [name, start, end, parent index or -1, counts or None] in start order;
    ``history`` the spans of every finished op in the same form."""

    def __init__(self):
        self.spans = []
        self.history = []
        self.ops = 0
        self.enabled = False
        self._stack = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [_span_name(name, args), 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(result, args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass    # a changed return value loses its counts, not the op
            if name == "mgm.deviance_block_loss":
                result = self.wrap("mgm.block_loss", result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every public layer function plus graph-document writing;
        returns the function that removes the wrappers."""
        from qmgm import cli, io

        wrappers = {key: self.wrap(name, fn, COUNTERS.get(name))
                    for key, (name, fn) in public_functions().items()}
        wrappers[id(cli._write_text)] = self.wrap("io.graph_write", cli._write_text)
        restore = patch_everywhere(wrappers)
        to_json = io.GraphDocument.to_json
        io.GraphDocument.to_json = self.wrap("io.graph_write", to_json)

        def uninstall():
            io.GraphDocument.to_json = to_json
            restore()
        return uninstall

    def start_op(self):
        self.enabled = True

    def end_op(self):
        """Close one op and stop recording until the next ``start_op``: move
        its spans to ``history`` (parent indices shifted, path keys tagged
        with the op number)."""
        self.enabled = False
        offset, op = len(self.history), self.ops
        for name, start, end, parent, counts in self.spans:
            if counts and "path_keys" in counts:
                counts = dict(counts, path_keys={(op,) + key for key in counts["path_keys"]})
            self.history.append([name, start, end,
                                 parent + offset if parent >= 0 else -1, counts])
        self.spans.clear()
        self.ops += 1


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def aggregate(spans):
    """Call tree and per-name totals of one or more ops' spans.

    Returns (tree, totals).  ``tree`` is a list of root nodes
    {name, calls, wall_s, self_s, children}; ``totals[name]`` holds calls,
    wall_s, self_s and the summed counts of every span with that name, plus
    ``self_s.<parent layer>`` for the self time split by the caller's layer.
    """
    selfs = self_times(spans)
    nodes = []            # tree node of each span
    roots = {}
    totals = {}
    for i, (name, start, end, parent, counts) in enumerate(spans):
        siblings = roots if parent < 0 else nodes[parent]["_children"]
        node = siblings.get(name)
        if node is None:
            node = siblings[name] = {"name": name, "calls": 0, "wall_s": 0.0,
                                     "self_s": 0.0, "_children": {}}
        node["calls"] += 1
        node["wall_s"] += end - start
        node["self_s"] += selfs[i]
        nodes.append(node)

        tot = totals.setdefault(name, {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
        tot["calls"] += 1
        tot["wall_s"] += end - start
        tot["self_s"] += selfs[i]
        if parent >= 0:
            key = "self_s." + spans[parent][0].split(".", 1)[0]
            tot[key] = tot.get(key, 0.0) + selfs[i]
        for key, value in (counts or {}).items():
            if isinstance(value, set):
                tot.setdefault(key, set()).update(value)
            else:
                tot[key] = tot.get(key, 0) + value
    return [_finish(node) for node in roots.values()], totals


def _finish(node):
    children = [_finish(child) for child in node.pop("_children").values()]
    if children:
        node["children"] = children
    return node
