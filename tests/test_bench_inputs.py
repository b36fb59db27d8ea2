"""The benchmark's seed-1 inputs, made by the program's own writers, match
the digests the benchmark records, so a writer change that alters a byte
shows here without running the benchmark."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_one_inputs_match_the_recorded_digests(tmp_path, workload):
    inputs = workloads.prepare(workload, workloads.DEFAULT_SEED, tmp_path)
    assert inputs.digests == workloads.recorded_digests(inputs)["inputs"]
