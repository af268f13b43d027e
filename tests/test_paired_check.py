"""The paired comparison script on hand-written simulate outputs."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "paired_check.py"
spec = importlib.util.spec_from_file_location("paired_check", SCRIPT)
paired_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired_check)

HEADER = "replication,seed,learner,criterion,metric,value"


def write_run(folder, digest, rows):
    """A simulate output directory: the manifest's digest line and the
    details rows (seed, learner, criterion, metric, value)."""
    folder.mkdir()
    (folder / "manifest.txt").write_text(f"config_digest: {digest}\nvariant: main\n",
                                         encoding="utf-8")
    lines = [HEADER] + [f"{seed - 4},{seed},{learner},{crit},{metric},{value}"
                        for seed, learner, crit, metric, value in rows]
    (folder / "details.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(folder)


def run_rows(auc_a, auc_b, mcc_a, mcc_b, seeds=(4, 5, 6)):
    """Rows of learner qmgm1: path AUC and bicp MCC per seed, with a bicp
    tpr row that the check ignores."""
    rows = []
    for seed, auc, mcc in zip(seeds, auc_a, mcc_a):
        rows += [(seed, "qmgm1", "path", "auc", auc), (seed, "qmgm1", "bicp", "tpr", 0.5),
                 (seed, "qmgm1", "bicp", "mcc", mcc)]
    for seed, auc, mcc in zip(seeds, auc_b, mcc_b):
        rows += [(seed, "mgm", "path", "auc", auc), (seed, "mgm", "bicp", "mcc", mcc)]
    return rows


def test_identical_runs_read_zero_and_pass(tmp_path, capsys):
    rows = run_rows([0.7, 0.8, 0.75], [0.6, 0.65, 0.7], [0.3, 0.4, 0.5], [0.1, 0.2, 0.3])
    before = write_run(tmp_path / "a", "d1", rows)
    after = write_run(tmp_path / "b", "d1", rows[::-1])      # pairs by seed, not by line
    assert paired_check.main([before, after]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["metric,learner,criterion,pairs,mean_diff,ci_low,ci_high",
                   "auc,qmgm1,path,3,0.000000,0.000000,0.000000",
                   "mcc,qmgm1,bicp,3,0.000000,0.000000,0.000000",
                   "auc,mgm,path,3,0.000000,0.000000,0.000000",
                   "mcc,mgm,bicp,3,0.000000,0.000000,0.000000"]


def test_known_intervals_and_the_auc_bound(tmp_path, capsys):
    # qmgm1 AUC differences (0.01, 0, 0.02): mean 0.01, SD 0.01, and
    # t(0.975, 2) = 4.302653, so the half-width is 4.302653 * 0.01 / sqrt(3)
    # = 0.024841 and the lower end -0.014841 is below -0.005
    before = write_run(tmp_path / "a", "d1", run_rows(
        [0.70, 0.72, 0.74], [0.6, 0.6, 0.6], [0.3, 0.3, 0.3], [0.2, 0.2, 0.2]))
    after = write_run(tmp_path / "b", "d1", run_rows(
        [0.71, 0.72, 0.76], [0.61, 0.62, 0.63], [0.2, 0.3, 0.3], [0.2, 0.2, 0.2]))
    rows = {row[:3]: row[3:] for row in paired_check.paired_rows(before, after)}
    assert set(rows) == {("auc", "qmgm1", "path"), ("mcc", "qmgm1", "bicp"),
                         ("auc", "mgm", "path"), ("mcc", "mgm", "bicp")}
    pairs, mean, low, high = rows["auc", "qmgm1", "path"]
    assert pairs == 3
    assert (mean, low, high) == pytest.approx((0.01, -0.014841, 0.034841), abs=1e-6)
    # mgm differences (0.01, 0.02, 0.03): mean 0.02, same SD and half-width
    assert rows["auc", "mgm", "path"][1:] == pytest.approx((0.02, -0.004841, 0.044841),
                                                           abs=1e-6)
    # MCC differences (-0.1, 0, 0): mean -1/30, SD sqrt(1/300)
    half = 4.302653 * (1 / 300) ** 0.5 / 3 ** 0.5
    assert rows["mcc", "qmgm1", "bicp"][1:] == pytest.approx(
        (-1 / 30, -1 / 30 - half, -1 / 30 + half), abs=1e-6)
    assert rows["mcc", "mgm", "bicp"][1:] == pytest.approx((0.0, 0.0, 0.0), abs=1e-12)
    assert paired_check.main([before, after]) == 1
    err = capsys.readouterr().err
    assert "qmgm1" in err and "mgm," not in err and "-0.005" in err


def test_runs_that_cannot_be_paired_exit_2(tmp_path, capsys):
    rows = run_rows([0.7, 0.8], [0.6, 0.6], [0.3, 0.3], [0.2, 0.2], seeds=(4, 5))
    base = write_run(tmp_path / "a", "d1", rows)
    other_digest = write_run(tmp_path / "b", "d2", rows)
    other_seeds = write_run(tmp_path / "c", "d1", run_rows(
        [0.7, 0.8], [0.6, 0.6], [0.3, 0.3], [0.2, 0.2], seeds=(4, 9)))
    one_seed = write_run(tmp_path / "d", "d1", run_rows([0.7], [0.6], [0.3], [0.2], seeds=(4,)))
    for after, message in [(other_digest, "config_digest lines differ"),
                           (other_seeds, "the seeds differ"),
                           (str(tmp_path / "missing"), "manifest.txt")]:
        assert paired_check.main([base, after]) == 2
        assert message in capsys.readouterr().err
    assert paired_check.main([one_seed, one_seed]) == 2
    assert "at least two paired seeds" in capsys.readouterr().err
    assert paired_check.main([base]) == 2
    assert "usage" in capsys.readouterr().err
