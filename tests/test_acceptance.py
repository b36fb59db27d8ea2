"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line; run the module with
`pytest tests/test_acceptance.py -v -s` to see them. Tolerances are fixed
here and nowhere else.
"""

import json
import math
import random
from contextlib import contextmanager
from decimal import Decimal

import pytest

from conftest import C8_SPEC, c8_commands, columns, month, monthly_records, quarterly_records
from royaltyval.cli import main
from royaltyval.curves import build_surface, percentile
from royaltyval.ingest import (
    RawAsset,
    RejectReason,
    annualize,
    build_dataset,
    filter_dollar_age,
)
from royaltyval.market import (
    MarketQuote,
    aggregate_plot_data,
    compare,
    filter_quotes,
)
from royaltyval.model import multiplier_from_shares, multiplier_table
from royaltyval.synth import (
    GroupSpec,
    PopulationSpec,
    closed_form_multiplier,
    gen_population,
    gen_quotes,
)

BAND = (10.0, 50.0, 90.0)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def brute_force_percentile(values, level):
    """Independent sort-and-interpolate oracle for linear percentiles."""
    v = sorted(values)
    h = (len(v) - 1) * (level / 100.0)
    k = int(math.floor(h))
    if k + 1 >= len(v):
        return float(v[-1])
    return v[k] * (1.0 - (h - k)) + v[k + 1] * (h - k)


def test_c1_annuity_oracle():
    with criterion("C1 flat-share annuity oracle"):
        for d in range(1, 11):
            oracle = (1.0 - 1.1 ** -d) / 0.1
            value = multiplier_from_shares([1.0] * d, 0.10)
            assert value == pytest.approx(oracle, rel=1e-12)
        assert abs(multiplier_from_shares([1.0] * 10, 0.10) - 6.14456711) <= 1e-8


def test_c2_growing_annuity_oracle_through_pipeline():
    # initial revenue chosen so every annual total is cent-exact for all
    # growth factors through age 8, keeping the comparison at 1e-9 honest
    with criterion("C2 geometric-population multipliers match closed form"):
        rate = 0.10
        for g in (-0.5, -0.2, 0.0, 0.1):
            spec = PopulationSpec((GroupSpec(5, g, 0.0, 8, 100000.0),), seed=31)
            dataset, report = build_dataset(gen_population(spec))
            assert report.rejected_count == 0
            surface = build_surface(dataset, 1, BAND, max_horizon=7, min_cohort=5)
            assert surface.cell_horizons() == list(range(1, 8))
            table = multiplier_table(surface, rate, 7)
            for d in range(1, 8):
                expected = closed_form_multiplier(g, rate, d)
                for p in BAND:
                    assert table.entry(d, p) == pytest.approx(expected, rel=1e-9)
        # growth equal to the rate: the closed form is exactly d
        for d in range(1, 8):
            assert closed_form_multiplier(0.10, 0.10, d) == float(d)


def test_c3_percentile_matches_brute_force_oracle():
    with criterion("C3 percentile equals brute-force oracle on 1000 multisets"):
        rng = random.Random(9000)
        for _ in range(1000):
            values = [rng.uniform(0.0, 10.0) for _ in range(rng.randint(1, 12))]
            for level in (0.0, 10.0, 50.0, 90.0, 100.0):
                expected = brute_force_percentile(values, level)
                assert percentile(values, level) == pytest.approx(expected, rel=1e-12)


def test_c4_surface_invariants_on_randomized_datasets():
    with criterion("C4 surface and multiplier invariants on 100 random datasets"):
        rng = random.Random(44)
        surfaces_with_cells = 0
        for k in range(100):
            groups = tuple(
                GroupSpec(
                    count=rng.randint(2, 5),
                    annual_growth=rng.uniform(-0.5, 0.3),
                    noise_sigma=rng.choice([0.0, 0.1, 0.3]),
                    age_years=rng.randint(3, 10),
                    initial_revenue=rng.uniform(1000.0, 50000.0),
                )
                for _ in range(rng.randint(1, 3))
            )
            population = gen_population(PopulationSpec(groups, seed=1000 + k))
            dataset, _ = build_dataset(population)
            surface = build_surface(
                dataset, rng.randint(1, 2), BAND, max_horizon=6, min_cohort=3
            )

            sizes = [surface.counts[i] for i in sorted(surface.counts)]
            assert sizes == sorted(sizes, reverse=True)
            for i in surface.cell_horizons():
                m10, m50, m90 = (surface.values[(i, p)] for p in BAND)
                assert m10 <= m50 <= m90

            celled = surface.cell_horizons()
            if not celled:
                continue
            surfaces_with_cells += 1
            dmax = celled[-1]
            low = multiplier_table(surface, 0.05, dmax)
            mid = multiplier_table(surface, 0.10, dmax)
            high = multiplier_table(surface, 0.15, dmax)
            for p in BAND:
                column = [mid.entry(d, p) for d in range(1, dmax + 1)]
                assert all(a <= b for a, b in zip(column, column[1:]))
                for d in range(1, dmax + 1):
                    assert low.entry(d, p) > mid.entry(d, p) > high.entry(d, p)
        assert surfaces_with_cells >= 50


def test_c5_filter_fixture_and_boundaries():
    with criterion("C5 rejection fixture counts and boundary rules"):
        neg_records = monthly_records([100] * 12)
        neg_records = (
            neg_records[:5]
            + ((neg_records[5][0], 1, -500),)
            + neg_records[6:]
        )
        fixture = [
            RawAsset("NEG", 1.0, *columns(neg_records)),
            RawAsset(
                "GAP",
                1.2,
                *columns(
                    monthly_records([1] * 6)
                    + monthly_records([1] * 8, start=month(2019, 8))
                ),
            ),
            RawAsset("SHORT", 0.5, *columns(monthly_records([1] * 6))),
            RawAsset("ZERO", 2.0, *columns(monthly_records([100] * 12 + [0] * 12))),
            RawAsset("FAR", 3.0, *columns(monthly_records([50] * 24))),
            RawAsset("OK1", 2.0, *columns(monthly_records([80] * 24))),
            RawAsset("OK2", 2.5, *columns(monthly_records([10] * 36))),
        ]
        accepted, report = build_dataset(fixture)
        assert [a.asset_id for a in accepted] == ["OK1", "OK2"]
        assert report.total == 7
        assert report.reason_counts() == {reason: 1 for reason in RejectReason}

        # dollar-age deviation of exactly 30% accepts
        assert filter_dollar_age(9.1, 7.0, 0.30)
        # bid exactly half of ask accepts
        boundary = MarketQuote("B", 100.0, 250.0, 500.0, 5, 3.0)
        accepted_q, _ = filter_quotes([boundary], 10, 0.5)
        assert accepted_q == [boundary]
        # duration of exactly ten years accepts
        ten = MarketQuote("T", 100.0, None, 400.0, 10, 3.0)
        accepted_q, _ = filter_quotes([ten], 10, 0.5)
        assert accepted_q == [ten]


def test_c6_share_curve_shapes_young_vs_seasoned():
    with criterion("C6 young curves decay at all levels; seasoned top decile grows"):
        young = PopulationSpec(
            (
                GroupSpec(5, -0.4, 0.0, 6, 40000.0),
                GroupSpec(5, -0.3, 0.0, 6, 50000.0),
                GroupSpec(5, -0.2, 0.0, 6, 60000.0),
            ),
            seed=61,
        )
        dataset, _ = build_dataset(gen_population(young))
        surface = build_surface(dataset, 1, BAND, max_horizon=5, min_cohort=5)
        assert surface.cell_horizons() == [1, 2, 3, 4, 5]
        for p in BAND:
            curve = [surface.values[(i, p)] for i in range(1, 6)]
            assert all(a > b for a, b in zip(curve, curve[1:]))

        # 18 decaying assets and a 3-asset growing group on top: the 90th
        # percentile of 21 values lands exactly on the growing block
        decaying = tuple(
            GroupSpec(2, g, 0.0, 12, 30000.0)
            for g in (-0.35, -0.325, -0.3, -0.275, -0.25, -0.225, -0.2, -0.175, -0.15)
        )
        seasoned = PopulationSpec(decaying + (GroupSpec(3, 0.1, 0.0, 12, 30000.0),), seed=62)
        dataset, _ = build_dataset(gen_population(seasoned))
        surface = build_surface(dataset, 7, BAND, max_horizon=5, min_cohort=5)
        assert surface.cell_horizons() == [1, 2, 3, 4, 5]
        top = [surface.values[(i, 90.0)] for i in range(1, 6)]
        bottom = [surface.values[(i, 10.0)] for i in range(1, 6)]
        assert all(a < b for a, b in zip(top, top[1:]))
        assert all(a > b for a, b in zip(bottom, bottom[1:]))


def test_c7_market_gaps_small_when_quotes_generated_on_band():
    with criterion("C7 noisy band quotes keep mean gaps below 0.15 per duration"):
        spec = PopulationSpec(
            (
                GroupSpec(6, -0.3, 0.0, 4, 50000.0),
                GroupSpec(6, -0.25, 0.0, 6, 60000.0),
                GroupSpec(6, -0.2, 0.0, 14, 80000.0),
            ),
            seed=71,
        )
        dataset, _ = build_dataset(gen_population(spec))
        quotes = gen_quotes(
            dataset, rate=0.10, bid_level=10.0, ask_level=50.0, seed=71, noise=0.05
        )
        assert len(quotes) == 12
        accepted, rejected = filter_quotes(quotes, 10, 0.5)
        assert rejected == []

        surfaces = {
            t: build_surface(dataset, t, BAND, max_horizon=10, min_cohort=5)
            for t in (4, 6)
        }
        rows, errors = compare(accepted, surfaces, 0.10)
        assert errors == []
        assert len(rows) == len(accepted)

        by_duration: dict[int, list] = {}
        for row in rows:
            by_duration.setdefault(row.duration, []).append(row)
        assert len(by_duration) >= 3
        for duration, members in sorted(by_duration.items()):
            mean_bid_gap = sum(abs(r.bid_gap_to_m10) for r in members) / len(members)
            mean_ask_gap = sum(abs(r.ask_gap_to_m50) for r in members) / len(members)
            assert mean_bid_gap < 0.15, f"duration {duration}"
            assert mean_ask_gap < 0.15, f"duration {duration}"

        duration_table = aggregate_plot_data(rows, "duration")
        age_table = aggregate_plot_data(rows, "dollar_age_bucket")
        assert [g.axis_value for g in duration_table] == sorted(by_duration)
        assert age_table and all(g.n >= 1 for g in age_table)


def test_c8_cli_determinism(tmp_path, capsys):
    # Pipeline code is sequential and every synthetic draw comes from a
    # per-asset seeded stream, so worker counts cannot affect output;
    # run-to-run byte equality is what gets exercised here.
    with criterion("C8 CLI commands are byte-identical across runs"):
        spec_path = tmp_path / "population.json"
        spec_path.write_text(json.dumps(C8_SPEC))
        stdouts = {}
        for run in ("a", "b"):
            out = tmp_path / run
            transcripts = []
            commands = c8_commands(spec_path, out)
            for argv in commands:
                assert main(argv) == 0
                transcripts.append(capsys.readouterr().out)
            stdouts[run] = transcripts

        assert stdouts["a"] == stdouts["b"]
        files_a = sorted(str(p.relative_to(tmp_path / "a")) for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(str(p.relative_to(tmp_path / "b")) for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_c9_annualization_conserves_revenue_exactly():
    with criterion("C9 annualization conserves covered revenue on 100 random assets"):
        rng = random.Random(90)
        for i in range(100):
            freq = rng.choice([1, 3])
            if freq == 1:
                amounts = [Decimal(rng.randint(0, 500000)).scaleb(-2) for _ in range(rng.randint(12, 40))]
                records = monthly_records(amounts)
            else:
                amounts = [Decimal(rng.randint(0, 500000)).scaleb(-2) for _ in range(rng.randint(4, 14))]
                records = quarterly_records(amounts)
            series = annualize(f"R{i}", *columns(records))
            origin = records[0][0]
            complete_months = 12 * len(series)
            covered = Decimal(0)
            for start, months, amount_cents in records:
                inside = [
                    m - origin < complete_months
                    for m in range(start, start + months)
                ]
                assert all(inside) or not any(inside)
                if all(inside):
                    covered += Decimal(amount_cents).scaleb(-2)
            assert sum(series) == covered
