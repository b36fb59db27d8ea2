"""Bytes a catalog's cashflows hold per record, measured with tracemalloc.

Each amount is eight bytes of an array('q'); the starts and months are
tuples of shared int objects. On this spec the parse holds about 34 bytes
per record and the generator about 20. Holding each amount as its own int
object costs 28 to 45 bytes more per record, which these bounds catch. The
cashflows writer's peak is bounded too, so that no cache in it grows with
the file."""

import gc
import tracemalloc

import pytest

from royaltyval.ingest import parse_cashflows, write_cashflows_csv
from royaltyval.synth import GroupSpec, PopulationSpec, gen_population

SPEC = PopulationSpec(
    (GroupSpec(40, -0.2, 0.3, 5, 9000.0), GroupSpec(40, -0.1, 0.2, 9, 20000.0)), seed=1
)
RECORDS = 40 * 12 * (5 + 9)


def held_bytes_per_record(build) -> float:
    """Bytes still allocated after `build()` returns, while its result is
    alive, per record of SPEC."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return held / RECORDS


@pytest.fixture(scope="module")
def cashflows_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("memory") / "cashflows.csv"
    write_cashflows_csv(path, gen_population(SPEC))
    return path


def test_parsed_cashflows_hold_at_most_42_bytes_per_record(cashflows_file):
    assert held_bytes_per_record(lambda: parse_cashflows(cashflows_file)) <= 42


def test_generated_population_holds_at_most_30_bytes_per_record():
    assert held_bytes_per_record(lambda: gen_population(SPEC)) <= 30


def writer_peak_bytes(raw_assets, path) -> int:
    """The tracemalloc peak of write_cashflows_csv writing `raw_assets`."""
    gc.collect()
    tracemalloc.start()
    try:
        write_cashflows_csv(path, raw_assets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cashflows_writer_peak_does_not_grow_with_the_records(tmp_path):
    """Writing all 6,720 records of SPEC peaks at most 16 KiB above writing
    the 480 of its first 8 assets: the amount texts are cached per asset
    and freed with it. One cache for the whole file adds about 120 KiB."""
    population = gen_population(SPEC)
    few = writer_peak_bytes(population[:8], tmp_path / "few.csv")
    every = writer_peak_bytes(population, tmp_path / "every.csv")
    assert every - few <= 16 * 1024
