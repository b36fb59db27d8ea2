#!/usr/bin/env python3
"""A perf verdict in one command: alternating benchmark runs of a git
revision and of the working tree, and one verdict per gated metric.

    python3 tools/benchrevs.py --against fde7f09 --pairs 10 --workload all --save pr32

Both sides run one harness from the same kind of path.
``.perfbench/trees/<sha>/`` holds ``git archive REV src`` and
``.perfbench/trees/work/`` the working tree's ``src`` (its tracked files and
those not ignored); each tree also gets a copy of the working tree's
``perfbench/`` and ``BENCHMARK.json``. Each tree keeps its own input cache,
and the harness checks its seed-1 inputs and outputs against
``digests.json``, so both sides read the same inputs.

Pair k runs ``python <tree>/perfbench/run.py --workload W --seed 1 --seconds S
--trace 0`` on the two trees in turn, REV first in odd pairs, for each
workload, and reads the run's record from
``<tree>/.perfbench/results/W-seed1-trace0.json``. A metric's sample of a
run is the median the run's record gives for it.

For each ``end_to_end`` metric of ``BENCHMARK.json`` it prints both sides'
median and quartiles, the pairs the change won and the verdict that
``verdict`` gives. ``--save LABEL`` writes ``BENCH_<LABEL>.json`` at the
repository root, with both records of every pair and the verdicts. The exit
status is 1 when any verdict is ``invalid``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ROOT / ".perfbench" / "trees"
SEED = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), the quartiles by the
    inclusive method; all three are the value itself for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], bound: float, valid: bool = True) -> str:
    """The verdict on one lower-is-better metric, from its samples in pair
    order (parent[k] and change[k] ran in pair k) and its relative bound.

    - ``invalid``: some run failed an output check (``valid`` is false).
    - ``gain``: at least 10 pairs, the change lower in at least nine tenths
      of them (a tie counts for neither side), and the change's median
      below the parent's by more than the parent's IQR.
    - ``worse``: the change's median is above the parent's by more than
      ``bound`` times the parent's median.
    - ``unresolved``: the parent's IQR is wider than ``bound`` times its
      median, and not every change run is below every parent run.
    - ``same``: none of the above.
    """
    if not valid:
        return "invalid"
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same number of parent and change samples, at least one")
    p1, p_median, p3 = quartiles(parent)
    c_median = quartiles(change)[1]
    won = sum(c < p for p, c in zip(parent, change))
    if len(parent) >= 10 and 10 * won >= 9 * len(parent) and p_median - c_median > p3 - p1:
        return "gain"
    if c_median - p_median > bound * p_median:
        return "worse"
    if p3 - p1 > bound * p_median and not max(change) < min(parent):
        return "unresolved"
    return "same"


def _git(*args: str) -> bytes:
    run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if run.returncode != 0:
        sys.exit(f"error: git {args[0]}: {run.stderr.decode(errors='replace').strip()}")
    return run.stdout


def _working_files(path: str) -> list[str]:
    """The working tree's files under `path` that git tracks or does not ignore."""
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard", "--", path)
    return sorted({name for name in listed.decode().split("\0") if (ROOT / name).is_file()})


def build_tree(tree: Path, rev: str | None) -> None:
    """Make `tree` hold the sources of `rev` (the working tree's for None)
    and the working tree's harness. Its input cache and results stay."""
    for old in ("src", "perfbench"):
        shutil.rmtree(tree / old, ignore_errors=True)
    tree.mkdir(parents=True, exist_ok=True)
    if rev is not None:
        archive = _git("archive", "--format=tar", rev, "src")
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
    for name in [*(_working_files("src") if rev is None else []), *_working_files("perfbench"),
                 "BENCHMARK.json"]:
        (tree / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(ROOT / name, tree / name)


def run_harness(tree: Path, workload: str, seconds: float) -> dict:
    """One harness run on `tree`: the record it writes."""
    record = tree / ".perfbench" / "results" / f"{workload}-seed{SEED}-trace0.json"
    record.unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    if not record.is_file():
        sys.exit(f"error: {tree.name}: no record from the harness (exit {run.returncode}):\n"
                 f"{run.stderr[-2000:]}")
    return json.loads(record.read_text(encoding="utf-8"))


def _valid(record: dict) -> bool:
    return record["result"]["correct"] and record["result"]["failed"] == 0


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per gated metric: both sides' quartiles, the pairs won and the verdict."""
    valid = all(_valid(pair[side]) for pair in pairs for side in ("parent", "change"))
    summary = {}
    for metric in metrics:
        name = metric["name"]
        if metric["better"] != "lower":
            raise ValueError(f"{name}: verdict reads only lower-is-better metrics")
        sides = {side: [pair[side]["result"]["metrics"][name]["value"] for pair in pairs]
                 for side in ("parent", "change")}
        parent, change = sides["parent"], sides["change"]
        summary[name] = {
            "unit": metric["unit"],
            "bound": metric["bound"],
            **{f"{side}_quartiles": list(quartiles(v)) for side, v in sides.items()},
            "pairs_won": sum(c < p for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "verdict": verdict(parent, change, metric["bound"], valid),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--workload", required=True, choices=(*names, "all"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--save", metavar="LABEL", help="write BENCH_<LABEL>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.save is not None and not re.fullmatch(r"[A-Za-z0-9_.-]+", args.save):
        parser.error("--save takes letters, digits, '_', '.' and '-'")

    sha = _git("rev-parse", "--verify", f"{args.against}^{{commit}}").decode().strip()
    trees = {"parent": TREES / sha, "change": TREES / "work"}
    build_tree(trees["parent"], sha)
    build_tree(trees["change"], None)

    workloads = names if args.workload == "all" else [args.workload]
    pairs: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for workload in workloads:
            pair = {"order": list(order)}
            for side in order:
                pair[side] = run_harness(trees[side], workload, args.seconds)
            pairs[workload].append(pair)
            print(f"pair {k}/{args.pairs} {workload}: done", file=sys.stderr)

    results = {w: summarize(pairs[w], spec["end_to_end"]) for w in workloads}
    print(f"{'workload':<17} {'metric':<12} {'parent q1 / median / q3':>27} "
          f"{'change q1 / median / q3':>27} {'won':>7}  verdict")
    for workload, summary in results.items():
        for name, s in summary.items():
            sides = [" / ".join(f"{q:.4g}" for q in s[f"{side}_quartiles"])
                     for side in ("parent", "change")]
            print(f"{workload:<17} {name:<12} {sides[0]:>27} {sides[1]:>27} "
                  f"{s['pairs_won']:>3}/{s['pairs']:<3}  {s['verdict']}")
    if args.save is not None:
        out = ROOT / f"BENCH_{args.save}.json"
        out.write_text(json.dumps({
            "against": sha, "pairs": args.pairs, "seconds": args.seconds, "seed": SEED,
            "workloads": {w: {"verdicts": results[w], "pairs": pairs[w]} for w in workloads},
        }, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {out.name}")
    invalid = any(s["verdict"] == "invalid" for summary in results.values() for s in summary.values())
    return 1 if invalid else 0


if __name__ == "__main__":
    sys.exit(main())
