#!/usr/bin/env python3
"""Benchmark of the royaltyval CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload monthly_catalog --seed 1 --seconds 25 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m royaltyval.cli`` child with ``PYTHONPATH=<checkout>/src``, one
child at a time, and the end-to-end metrics are medians over repetitions.
With ``--trace 1`` the same commands run in-process through ``cli.main``
and through a traced replay of their public-function calls, which gives
the per-layer metrics. ``--workload all`` runs every workload in turn.

Every metric is printed with its unit, sample count and range; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics BENCHMARK.json
names). Exit status is 1 when an output check failed or the program's
sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

if not (SRC / "royaltyval" / "cli.py").is_file():
    sys.exit(f"error: royaltyval sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402
from royaltyval import cli  # noqa: E402

# Commands that take a fraction of a second run SHORT_REPEATS times per
# repetition, as does the --help child behind setup_s, so that their
# medians rest on enough samples.
SHORT = {"value"}
SHORT_REPEATS = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "validate_s": "s",
    "curves_s": "s",
    "compare_s": "s",
    "value_s": "s",
    "synth_s": "s",
    "records_per_s": "records/s",
    "quotes_per_s": "quotes/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}


def unit(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_record"):
        return "us"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "count"


@dataclass
class Checks:
    """Commands attempted and the problems found in their outputs."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def run_child(argv: list[str], stdout_path: Path) -> tuple[int, float, int, bytes]:
    """(exit code, wall seconds, peak RSS in KiB, stdout) of one CLI child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "royaltyval.cli", *argv],
            stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss, stdout_path.read_bytes()


def verify(cmd, rep: Path, code: int, stdout: bytes, inputs, reference, checks: Checks,
           label: str) -> dict:
    """Check one command's exit code, outputs and digests; return digests."""
    problems = [f"exit code {code}"] if code != 0 else workloads.check_outputs(cmd, rep, stdout, inputs)
    digests = workloads.output_digests(cmd, rep, stdout)
    if reference is not None and reference.get(cmd.name) != digests:
        problems.append(f"output digests differ from the {label} reference")
    checks.record(f"{inputs.workload}/{cmd.name}", problems)
    return digests


def run_sequence(inputs, rep: Path, checks: Checks, reference, label: str, repeats: int = 1):
    """Run the workload's commands as children, each short one ``repeats``
    times; per-command lists of (seconds, KiB), and the digests."""
    rep.mkdir(parents=True)
    times, digests = {}, {}
    for cmd in inputs.commands:
        times[cmd.name] = []
        for _ in range(repeats if cmd.name in SHORT else 1):
            code, seconds, rss, stdout = run_child(cmd.resolve(rep), rep / f"{cmd.name}.stdout")
            digests[cmd.name] = verify(cmd, rep, code, stdout, inputs, reference, checks, label)
            times[cmd.name].append((seconds, rss))
    return times, digests


def warm_up(inputs, runs: Path, checks: Checks) -> dict:
    """Untimed first pass: fills .pyc files and the page cache, and gives
    the digests every later run must reproduce. At the recorded seed these
    and the input digests must match digests.json."""
    reference = None
    recorded = workloads.recorded_digests(inputs)
    if recorded is not None:
        same = recorded["inputs"] == inputs.digests
        checks.record(f"{inputs.workload}/inputs", [] if same else ["input digests differ from digests.json"])
        reference = recorded["outputs"]
    _, warm = run_sequence(inputs, runs / "warm", checks, reference, "recorded")
    return warm


def _wall(times: dict) -> float:
    """One pass of the command sequence: each command's median run."""
    return sum(statistics.median(s for s, _ in runs) for runs in times.values())


def untraced(inputs, seconds: float, runs: Path, checks: Checks):
    warm = warm_up(inputs, runs, checks)
    setup, reps = [], []
    start = time.perf_counter()
    while True:
        for _ in range(SHORT_REPEATS):
            code, s, _, _ = run_child(["--help"], runs / "help.stdout")
            checks.record(f"{inputs.workload}/--help", [] if code == 0 else [f"exit code {code}"])
            setup.append(s)
        rep = runs / f"rep{len(reps)}"
        times, _ = run_sequence(inputs, rep, checks, warm, "warm-up", SHORT_REPEATS)
        shutil.rmtree(rep)
        reps.append(times)
        if time.perf_counter() - start + _wall(times) > seconds:
            break

    samples = {
        "setup_s": setup,
        "wall_s": [_wall(r) for r in reps],
        "peak_rss_mb": [max(kb for runs in r.values() for _, kb in runs) / 1024 for r in reps],
    }
    for cmd in inputs.commands:
        samples[f"{cmd.name}_s"] = [s for r in reps for s, _ in r[cmd.name]]
    samples["records_per_s"] = [inputs.records / s for s in samples[f"{inputs.main}_s"]]
    if "compare_s" in samples:
        samples["quotes_per_s"] = [inputs.quotes / s for s in samples["compare_s"]]
    samples["fail_frac"] = [checks.failed / checks.attempted]
    return samples, warm


def traced(inputs, seconds: float, runs: Path, checks: Checks, results: Path):
    warm = warm_up(inputs, runs, checks)
    synth_records = inputs.records if inputs.main == "synth" else 0
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        rep = runs / f"pass{len(passes)}"
        main_s = {}
        for cmd in inputs.commands:
            buf = io.StringIO()
            gc.collect()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(cmd.resolve(rep))
            main_s[cmd.name] = time.perf_counter() - t0
            verify(cmd, rep, code, buf.getvalue().encode("utf-8"), inputs, warm, checks, "child")
        gc.collect()
        plain = spans.replay(spans.NullTracer(), inputs.commands, rep)
        gc.collect()
        tracer = spans.Tracer()
        with tracer.gc_hook():
            traced_wall = spans.replay(tracer, inputs.commands, rep)
        layers, by_command = spans.layer_metrics(tracer, inputs.records, main_s, plain,
                                                 traced_wall, synth_records)
        passes.append({**layers, **by_command})
        shutil.rmtree(rep)
        if time.perf_counter() - start + (time.perf_counter() - pass_start) > seconds:
            break
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{inputs.workload}-seed{inputs.seed}.spans.json"
    out.write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    return {name: [p[name] for p in passes] for name in passes[0]}, warm


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path,
                 scale: float = 1.0) -> tuple[dict, dict[str, list[float]], Checks]:
    """Generate inputs, measure, and check one workload.

    Returns the run's context record, its samples by metric name, and
    the output checks.
    """
    inputs = workloads.prepare(name, seed, work / "cache", scale)
    checks = Checks()
    (work / "runs").mkdir(parents=True, exist_ok=True)
    runs = Path(tempfile.mkdtemp(dir=work / "runs"))
    try:
        if trace:
            samples, outputs = traced(inputs, seconds, runs, checks, work / "results")
        else:
            samples, outputs = untraced(inputs, seconds, runs, checks)
    finally:
        shutil.rmtree(runs)
    context = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "records": inputs.records,
        "assets": inputs.assets,
        "quotes": inputs.quotes,
        "commands": [c.name for c in inputs.commands],
        # digests.json holds these two, from a seed-1 run, per workload.
        "inputs_sha256": inputs.digests,
        "outputs_sha256": outputs,
    }
    return context, samples, checks


def result_line(samples: dict[str, list[float]], checks: Checks, names: list[str]) -> dict:
    return {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {n: {"value": statistics.median(samples[n]), "unit": unit(n)} for n in names},
    }


def report(context: dict, samples: dict[str, list[float]], checks: Checks) -> None:
    print("# " + json.dumps({k: v for k, v in context.items() if not k.endswith("_sha256")}))
    for name, values in samples.items():
        print(f"{context['workload']:<17} {name:<34} {statistics.median(values):>14.6g} "
              f"{unit(name):<10} n={len(values)} min={min(values):.6g} max={max(values):.6g}")
    for problem in checks.problems:
        print(f"CHECK FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for name in names:
        context, samples, checks = run_workload(name, args.seed, args.seconds, bool(args.trace), WORK)
        line = result_line(samples, checks, metric_names)
        record = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(json.dumps({
            "context": context, "samples": samples, "result": line, "problems": checks.problems,
        }, indent=2) + "\n", encoding="utf-8")
        report(context, samples, checks)
        print(json.dumps(line))
        ok = ok and line["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
