"""Paired comparison of two ``qmgm simulate`` runs of the same configuration.

    python scripts/paired_check.py BEFORE_DIR AFTER_DIR

Each directory holds the ``manifest.txt`` and ``details.csv`` that
``qmgm simulate`` writes, and their ``config_digest:`` lines must match.
Rows are paired by replication seed.  For each learner the script prints
the mean paired difference (after - before) of the path AUC with a 95%
t-interval, and the same for the MCC of each (learner, criterion).

Exit codes: 0 when every AUC interval's lower end is at least
``AUC_LOWER_BOUND``, 1 when one is below it, 2 when the runs cannot be
paired.  A change that moves no output reads exactly 0 everywhere.
"""

from __future__ import annotations

import csv
import os
import sys

import numpy as np
from scipy import stats

# The largest mean loss of path AUC a change may show at the lower end of
# its 95% interval.  At R = 200 one replication's AUC has an SD of about
# 0.05, so a paired interval is far narrower than the spread of the medians.
AUC_LOWER_BOUND = -0.005


class PairingError(Exception):
    """The two runs do not share a configuration or a set of seeds."""


def config_digest(folder: str) -> str:
    with open(os.path.join(folder, "manifest.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("config_digest:"):
                return line.split(":", 1)[1].strip()
    raise PairingError(f"{folder}: manifest.txt has no config_digest line")


def read_values(folder: str) -> dict:
    """{(learner, criterion, metric): {seed: value}} from details.csv."""
    values = {}
    with open(os.path.join(folder, "details.csv"), encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["learner"], row["criterion"], row["metric"])
            values.setdefault(key, {})[int(row["seed"])] = float(row["value"])
    return values


def t_interval(diffs: np.ndarray) -> tuple:
    """Mean and two-sided 95% t-interval of the mean of paired differences."""
    mean = float(diffs.mean())
    half = float(stats.t.ppf(0.975, diffs.size - 1) * diffs.std(ddof=1) / np.sqrt(diffs.size))
    return mean, mean - half, mean + half


def paired_rows(before: str, after: str) -> list:
    """(metric, learner, criterion, pairs, mean, low, high) for the path AUC
    of each learner and the MCC of each (learner, criterion), in the order
    of the before run's details.csv."""
    if config_digest(before) != config_digest(after):
        raise PairingError("the config_digest lines differ")
    old, new = read_values(before), read_values(after)
    if old.keys() != new.keys():
        raise PairingError("the runs hold different learners, criteria or metrics")
    rows = []
    for (learner, criterion, metric), by_seed in old.items():
        if (criterion, metric) != ("path", "auc") and metric != "mcc":
            continue
        if by_seed.keys() != new[learner, criterion, metric].keys():
            raise PairingError(f"{learner} {criterion} {metric}: the seeds differ")
        seeds = sorted(by_seed)
        if len(seeds) < 2:
            raise PairingError("a t-interval needs at least two paired seeds")
        diffs = np.array([new[learner, criterion, metric][s] - by_seed[s] for s in seeds])
        rows.append((metric, learner, criterion, len(seeds), *t_interval(diffs)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python scripts/paired_check.py BEFORE_DIR AFTER_DIR", file=sys.stderr)
        return 2
    try:
        rows = paired_rows(*argv)
    except (PairingError, OSError, KeyError, ValueError) as exc:
        print(f"paired_check: {exc}", file=sys.stderr)
        return 2
    print("metric,learner,criterion,pairs,mean_diff,ci_low,ci_high")
    for metric, learner, criterion, pairs, mean, low, high in rows:
        print(f"{metric},{learner},{criterion},{pairs},{mean:.6f},{low:.6f},{high:.6f}")
    failing = [learner for metric, learner, _, _, _, low, _ in rows
               if metric == "auc" and low < AUC_LOWER_BOUND]
    if failing:
        print(f"paired_check: the AUC interval of {', '.join(failing)} reaches below "
              f"{AUC_LOWER_BOUND}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
