"""Bytes a catalog's cashflows hold per record, measured with tracemalloc.

Each amount is eight bytes of an array('q'); the starts and months are
tuples of shared int objects. On this spec the parse holds about 34 bytes
per record and the generator about 20. Holding each amount as its own int
object costs 28 to 45 bytes more per record, which these bounds catch. The
table writers' peaks are bounded too, so that no cache or list of rows in
them grows with the file. So are the peak of the share surfaces of a deep
population, and the address space of a `compare` child on a long quarterly
history."""

import gc
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from royaltyval import market
from royaltyval._io import write_csv
from royaltyval.ingest import RawAsset, parse_cashflows, write_assets_csv, write_cashflows_csv
from royaltyval.market import ComparisonRow, MarketQuote, band_surfaces
from royaltyval.model import Asset
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


def test_generated_population_holds_at_most_16_bytes_per_record():
    """About 13: the starts and the months of every asset of one length are
    one shared tuple each. A months tuple per asset adds 8 bytes a record."""
    assert held_bytes_per_record(lambda: gen_population(SPEC)) <= 16


def peak_bytes(call) -> int:
    """The tracemalloc peak of `call()`."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_cashflows_writer_peak_does_not_grow_with_the_records(tmp_path):
    """Writing all 6,720 records of SPEC peaks at most 16 KiB above writing
    the 480 of its first 8 assets: the amount texts are cached per asset
    and freed with it. One cache for the whole file adds about 120 KiB."""
    population = gen_population(SPEC)
    few = peak_bytes(lambda: write_cashflows_csv(tmp_path / "few.csv", population[:8]))
    every = peak_bytes(lambda: write_cashflows_csv(tmp_path / "every.csv", population))
    assert every - few <= 16 * 1024


def quotes(n: int) -> list[MarketQuote]:
    return [
        MarketQuote(f"Q{k:05d}", 1000.0 + k, None if k % 7 == 0 else 500.0 + k, 900.0 + k,
                    1 + k % 30, 1.0 + k % 40)
        for k in range(n)
    ]


def comparison_rows(n: int) -> list[ComparisonRow]:
    return [
        ComparisonRow(f"Q{k:05d}", 1 + k % 30, 1.0 + k % 40, None if k % 7 == 0 else 0.5 + k,
                      0.9 + k, 1.0 + k, 2.0 + k, 3.0 + k, None if k % 7 == 0 else k - 0.5, k - 1.1)
        for k in range(n)
    ]


def test_table_writers_peak_one_row_at_a_time(tmp_path):
    """Writing 20,000 quotes peaks at most 16 KiB above writing 200, past
    the 16 bytes a quote that putting them in id order takes (the sorted
    list and its keys); writing 20,000 comparison rows, which are written
    as given, at most 4 KiB above 200. A list of the cell tuples adds about
    7 MB for the quotes and 13 MB for the comparison rows."""
    def write_quotes(records):
        return lambda: market.write_quotes_csv(tmp_path / "quotes.csv", records)

    def write_comparison(records):
        rows = market.comparison_csv_rows(records)
        return lambda: write_csv(tmp_path / "comparison.csv", market.COMPARISON_HEADER, rows)

    few, many = quotes(200), quotes(20_000)
    grown = peak_bytes(write_quotes(many)) - peak_bytes(write_quotes(few))
    assert grown <= 16 * (len(many) - len(few)) + 16 * 1024
    few, many = comparison_rows(200), comparison_rows(20_000)
    assert peak_bytes(write_comparison(many)) - peak_bytes(write_comparison(few)) <= 4 * 1024


def test_band_surfaces_peak_holds_one_cohort_at_a_time():
    """200 assets of 40 years, horizon 30: the surfaces take about 330 KB
    and the build peaks near 430 KB. Holding every base age's cohorts at
    once, about 190,000 shares, peaks near 5.1 MB."""
    rng = random.Random(1)
    dataset = [
        Asset(f"A{k}", 40.0, tuple(rng.uniform(1.0, 100.0) for _ in range(40)))
        for k in range(200)
    ]
    surfaces = {}
    peak = peak_bytes(lambda: surfaces.update(band_surfaces(dataset, 30, 5)))
    assert len(surfaces) == 39
    assert peak <= 1024 * 1024


# `python -c` that limits its own address space to what it has mapped after
# importing the CLI plus argv[1] MiB, then runs the CLI on the rest of argv
LIMITED_CLI = """import resource, sys
from royaltyval import cli
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:")) * 1024
limit = size + int(sys.argv.pop(1)) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
cli.run()
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc/self/status")
def test_compare_on_a_long_history_fits_a_small_address_space(tmp_path):
    """120 quarterly assets of 200 years (96,000 records, 2.1 MB) compared
    with --max-duration 190, in 48 MiB more than the child maps once the
    CLI is imported. Holding every base age's cohorts at once, 3.3 million
    shares, needs over 100 MiB and runs out of memory."""
    years = 200
    starts, months = tuple(range(12_000, 12_000 + 12 * years, 3)), (3,) * (4 * years)
    population = []
    for k in range(120):
        rng = random.Random(k)
        cents = [rng.randint(100, 100_000) for _ in months]
        population.append(RawAsset(f"A{k:03d}", float(years), starts, months, cents))
    write_cashflows_csv(tmp_path / "cashflows.csv", population)
    write_assets_csv(tmp_path / "assets.csv", population)
    (tmp_path / "quotes.csv").write_text(
        "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ,1000,500,900,5,100\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.run(
        [
            sys.executable, "-c", LIMITED_CLI, "48", "--out", str(tmp_path / "out"), "compare",
            "--max-duration", "190", "--cashflows", str(tmp_path / "cashflows.csv"),
            "--assets", str(tmp_path / "assets.csv"), "--quotes", str(tmp_path / "quotes.csv"),
        ],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, "")
    assert (tmp_path / "out" / "comparison.csv").read_text().count("\n") == 2
