"""The benchmark's seed-1 inputs, made by the program's own writers, match
the digests the benchmark records, and so do the outputs of every command
the benchmark runs on them. A writer change that alters an input byte, or
a program change that alters an output byte (the 15,435-row `quarterly_deep`
comparison among them), shows here without running the benchmark."""

import contextlib
import io
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402

from royaltyval import cli  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def inputs(request, tmp_path_factory):
    """One workload's seed-1 inputs, made once for both checks."""
    cache = tmp_path_factory.mktemp(request.param)
    return workloads.prepare(request.param, workloads.DEFAULT_SEED, cache)


def test_seed_one_inputs_match_the_recorded_digests(inputs):
    assert inputs.digests == workloads.recorded_digests(inputs)["inputs"]


def test_seed_one_outputs_match_the_recorded_digests(inputs, tmp_path):
    recorded = workloads.recorded_digests(inputs)["outputs"]
    for cmd in inputs.commands:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert cli.main(cmd.resolve(tmp_path)) == 0, cmd.name
        digests = workloads.output_digests(cmd, tmp_path, stdout.getvalue().encode("utf-8"))
        assert digests == recorded[cmd.name], cmd.name
