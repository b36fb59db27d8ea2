"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(id, parent, start, end, name="x"):
    return spans.Span(id, parent, 1, name, start, end)


def test_self_time_subtracts_children_once():
    root = _span(0, None, 0.0, 10.0)
    kids = [_span(1, 0, 1.0, 3.0), _span(2, 0, 2.0, 4.0), _span(3, 0, 6.0, 7.0)]
    assert spans.self_time(root, kids) == pytest.approx(10.0 - 3.0 - 1.0)


def test_self_time_clips_children_to_the_parent():
    root = _span(0, None, 5.0, 10.0)
    assert spans.self_time(root, [_span(1, 0, 4.0, 6.0), _span(2, 0, 9.0, 12.0)]) == pytest.approx(3.0)
    assert spans.self_time(root, []) == pytest.approx(5.0)


def test_tracer_nests_spans_and_shares_one_run_id_per_root():
    t = spans.Tracer()
    with t.span("cli.a"):
        with t.span("ingest.parse_cashflows"):
            pass
    with t.span("cli.b"):
        pass
    root_a, child, root_b = t.spans
    assert child.parent == root_a.id and root_a.parent is None and root_b.parent is None
    assert child.run == root_a.run != root_b.run
    assert spans.self_time(root_a, [child]) <= root_a.seconds


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(run.E2E_UNITS)
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    declared = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(declared) == len(set(declared))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_a_changed_output_fails_its_check(tmp_path):
    inputs = workloads.prepare("synth_population", 5, tmp_path / "cache", scale=0.02)
    cmd = inputs.commands[1]
    checks = run.Checks()
    stdout = b"level,multiplier,price\n10,1,1\n50,2,2\n90,3,3\n"
    digests = run.verify(cmd, tmp_path, 0, stdout, inputs, None, checks, "none")
    run.verify(cmd, tmp_path, 0, stdout[:-2], inputs, {"value": digests}, checks, "first")
    run.verify(cmd, tmp_path, 3, stdout, inputs, None, checks, "none")
    assert (checks.attempted, checks.failed) == (3, 2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_is_correct(tmp_path, workload, trace):
    context, samples, checks = run.run_workload(workload, 5, 0.0, bool(trace), tmp_path, scale=0.02)
    assert checks.problems == [] and checks.attempted > 0
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    line = run.result_line(samples, checks, wanted)
    assert line["correct"] and list(line["metrics"]) == wanted
    assert all(m["value"] > 0 for m in line["metrics"].values()) or trace
    if trace:
        assert min(samples["cli.main_s"]) > 0
        commands = [f"cli.{c}.main_s" for c in context["commands"]]
        assert set(commands) <= set(samples) and set(wanted) <= set(samples)
