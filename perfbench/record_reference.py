#!/usr/bin/env python3
"""Record the reference edge-set digests that runs at the reference seed
are checked against.

    python3 perfbench/record_reference.py [workload ...]

For every input of the pool at ``workloads.REFERENCE_SEED`` this runs one op
and stores its digest in ``reference.json``.  Fits run with one thread, so
every timed multi-thread run also checks that results do not depend on the
thread count.  Rerun only when a workload's definition changes, never to
make a failing check pass.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def record(workload, workdir):
    inputs = workload.make_inputs(workloads.REFERENCE_SEED, workdir)
    recorder = workloads.Recorder()
    restore = recorder.install()
    digests = []
    try:
        for i, inp in enumerate(inputs):
            recorder.items.clear()
            if isinstance(workload, workloads.FitWorkload):
                result = workload.run_op(inp, threads=1)
            else:
                result = workload.run_op(inp)
            digests.append(workload.check(inp, result, recorder).digest)
            print(f"{workload.name} input {i}: {digests[-1][:16]}", flush=True)
    finally:
        restore()
    return {"config": repr(workload), "digests": digests}


def main(names):
    try:
        reference = workloads.load_reference()
    except FileNotFoundError:
        reference = {}
    workdir = os.path.join(os.path.dirname(HERE), ".perfbench", "reference-inputs")
    try:
        for name in names or list(workloads.WORKLOADS):
            reference[name] = record(workloads.WORKLOADS[name], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
