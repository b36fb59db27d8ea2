"""tools/benchrevs.py: the verdict rule, and one short run against HEAD."""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import benchrevs  # noqa: E402

BOUND = 0.25
# ten parent runs around 1.0, with quartiles 1.0225 and 1.0675: an IQR of 0.045
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


def lowered(by, wins):
    """The parent runs lowered by `by` in the first `wins` pairs and raised
    by 0.01 in the rest."""
    return [p - by if k < wins else p + 0.01 for k, p in enumerate(PARENT)]


def test_nine_of_ten_pairs_past_the_iqr_is_a_gain():
    assert benchrevs.verdict(PARENT, lowered(0.2, 9), BOUND) == "gain"


def test_eight_of_ten_pairs_is_no_gain():
    assert benchrevs.verdict(PARENT, lowered(0.2, 8), BOUND) == "same"


def test_nine_of_ten_pairs_inside_the_iqr_is_no_gain():
    assert benchrevs.verdict(PARENT, lowered(0.02, 9), BOUND) == "same"


def test_a_tie_counts_for_neither_side():
    change = lowered(0.2, 8)
    change[8] = PARENT[8]
    assert benchrevs.verdict(PARENT, change, BOUND) == "same"  # 8 won, 1 tied, 1 lost
    change[9] = PARENT[9] - 0.2
    assert benchrevs.verdict(PARENT, change, BOUND) == "gain"  # 9 won, 1 tied


def test_fewer_than_ten_pairs_is_no_gain():
    assert benchrevs.verdict(PARENT[:9], lowered(0.2, 9)[:9], BOUND) == "same"


def test_a_median_past_the_bound_is_worse():
    assert benchrevs.verdict(PARENT, [p * 1.3 for p in PARENT], BOUND) == "worse"
    assert benchrevs.verdict(PARENT, [p * 1.2 for p in PARENT], BOUND) == "same"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0] * 5
    assert benchrevs.verdict(parent, parent[::-1], BOUND) == "unresolved"
    # unless every change run is below every parent run
    assert benchrevs.verdict(parent, [0.9] * 10, BOUND) == "same"


def test_an_invalid_run_makes_every_verdict_invalid():
    assert benchrevs.verdict(PARENT, lowered(0.2, 9), BOUND, valid=False) == "invalid"


def record(value, failed=0):
    return {"result": {"correct": failed == 0, "failed": failed,
                       "metrics": {"wall_s": {"value": value, "unit": "s"}}}}


def test_summarize_reads_one_median_per_run_and_a_failed_check():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": BOUND}]
    pairs = [{"parent": record(p), "change": record(c)} for p, c in zip(PARENT, lowered(0.2, 9))]
    summary = benchrevs.summarize(pairs, metrics)["wall_s"]
    assert (summary["pairs_won"], summary["pairs"], summary["verdict"]) == (9, 10, "gain")
    assert summary["parent_quartiles"] == pytest.approx([1.0225, 1.045, 1.0675])
    pairs[3]["change"] = record(0.5, failed=1)
    assert benchrevs.summarize(pairs, metrics)["wall_s"]["verdict"] == "invalid"


def _in_git_work_tree() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(["git", "rev-parse", "--is-inside-work-tree"], cwd=ROOT,
                           capture_output=True, text=True)
    return probe.returncode == 0 and probe.stdout.strip() == "true"


@pytest.mark.skipif(not _in_git_work_tree(), reason="needs git and a git work tree")
def test_one_pair_against_head_runs_both_trees(tmp_path, monkeypatch, capsys):
    # trees of their own, so a run in progress under .perfbench/trees keeps its trees
    monkeypatch.setattr(benchrevs, "TREES", tmp_path)
    argv = ["--against", "HEAD", "--pairs", "1", "--workload", "synth_population",
            "--seconds", "1"]
    assert benchrevs.main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [
        ["synth_population", name] for name in ("setup_s", "wall_s", "peak_rss_mb")
    ]
    assert {row[-1] for row in rows} <= {"same", "worse", "unresolved"}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    assert {p.name for p in tmp_path.iterdir()} == {head.stdout.strip(), "work"}
