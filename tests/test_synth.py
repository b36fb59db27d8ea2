from decimal import Decimal

import pytest

from conftest import records_of
from royaltyval.curves import build_surface
from royaltyval.ingest import (
    annualize,
    assemble_raw_assets,
    build_dataset,
    parse_cashflows,
    write_cashflows_csv,
)
from royaltyval.market import compare
from royaltyval.model import multiplier_table
from royaltyval.synth import (
    GroupSpec,
    PopulationSpec,
    closed_form_multiplier,
    gen_asset,
    gen_population,
    gen_quotes,
    monthly_split,
)


def decaying_population(seed=5):
    """Three decaying groups spanning ages so every age has usable cohorts."""
    return PopulationSpec(
        (
            GroupSpec(6, -0.3, 0.0, 4, 50000.0),
            GroupSpec(6, -0.25, 0.0, 6, 60000.0),
            GroupSpec(6, -0.2, 0.0, 14, 80000.0),
        ),
        seed=seed,
    )


class TestMonthlySplit:
    def test_even_split(self):
        pieces = monthly_split(Decimal("1200.00"))
        assert pieces == (Decimal("100.00"),) * 12

    def test_remainder_cents_on_final_month(self):
        pieces = monthly_split(Decimal("100.01"))
        assert sum(pieces) == Decimal("100.01")
        assert len(set(pieces[:11])) == 1
        assert pieces[11] > pieces[0]

    def test_rejects_sub_cent_amounts(self):
        with pytest.raises(ValueError):
            monthly_split(Decimal("1.005"))


class TestGenAsset:
    def test_flat_noise_free(self):
        asset = gen_asset(123, GroupSpec(1, 0.0, 0.0, 3, 1200.0), "A")
        assert annualize(asset.asset_id, asset.starts, asset.months, asset.cents) == (Decimal("1200.00"),) * 3
        assert asset.dollar_age == 3.0

    def test_halving(self):
        asset = gen_asset(99, GroupSpec(1, -0.5, 0.0, 3, 1200.0), "A")
        assert annualize(asset.asset_id, asset.starts, asset.months, asset.cents) == (
            Decimal("1200.00"),
            Decimal("600.00"),
            Decimal("300.00"),
        )

    def test_same_seed_identical(self):
        group = GroupSpec(1, -0.1, 0.25, 5, 900.0)
        assert gen_asset(7, group, "A") == gen_asset(7, group, "A")

    def test_different_seeds_differ_with_noise(self):
        a = gen_asset(1, GroupSpec(1, -0.1, 0.25, 5, 900.0), "A")
        b = gen_asset(2, GroupSpec(1, -0.1, 0.25, 5, 900.0), "A")
        assert records_of(a) != records_of(b)

    def test_noise_keeps_amounts_positive(self):
        asset = gen_asset(3, GroupSpec(1, -0.4, 0.8, 8, 50.0), "A")
        assert all(amount_cents >= 0 for _, _, amount_cents in records_of(asset))

    def test_oldest_allowed_asset_roundtrips_through_csv(self, tmp_path):
        # 1000 years from 2015-01 end at 3014-12: still a YYYY-MM period
        asset = gen_asset(4, GroupSpec(1, 0.0, 0.0, 1000, 1200.0), asset_id="A")
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, [asset])
        [back] = assemble_raw_assets(parse_cashflows(path), {"A": 1000.0})
        assert records_of(back) == records_of(asset)

    def test_revenue_below_the_parse_bound_roundtrips_through_csv(self, tmp_path):
        # just under 10**18 dollars a year, the most parse_cashflows reads
        asset = gen_asset(5, GroupSpec(1, 0.0, 0.0, 2, 999_999_999_999_999_872.0), asset_id="A")
        path = tmp_path / "cashflows.csv"
        write_cashflows_csv(path, [asset])
        [back] = assemble_raw_assets(parse_cashflows(path), {"A": 2.0})
        assert records_of(back) == records_of(asset)

    @pytest.mark.parametrize("initial,growth,year", [(1e18, 0.0, 1), (6e17, 1.0, 2)])
    def test_revenue_past_the_parse_bound_is_too_large(self, initial, growth, year):
        with pytest.raises(ValueError, match=f"^A: revenue in year {year} is too large$"):
            gen_asset(5, GroupSpec(1, growth, 0.0, 3, initial), asset_id="A")

    def test_monthly_coverage_is_gap_free(self):
        asset = gen_asset(11, GroupSpec(1, 0.1, 0.3, 4, 2400.0), "A")
        assert len(records_of(asset)) == 48
        spans = [start for start, _, _ in records_of(asset)]
        assert spans == list(range(spans[0], spans[0] + 48))


class TestGenPopulation:
    def test_counts_and_ids(self):
        population = gen_population(decaying_population())
        assert len(population) == 18
        assert population[0].asset_id == "G00A000"
        assert population[-1].asset_id == "G02A005"

    def test_deterministic(self):
        assert gen_population(decaying_population()) == gen_population(decaying_population())

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(0, 0.0, 0.0, 3, 100.0)
        with pytest.raises(ValueError):
            GroupSpec(1, -1.0, 0.0, 3, 100.0)
        with pytest.raises(ValueError):
            GroupSpec(1, 0.0, 0.0, 1, 100.0)


class TestPopulationSpecJson:
    def test_roundtrip(self):
        spec = decaying_population()
        assert PopulationSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_unknown_keys_rejected(self):
        data = decaying_population().to_json_dict()
        data["genre"] = "pop"
        with pytest.raises(ValueError, match="unknown"):
            PopulationSpec.from_json_dict(data)

    def test_bad_group_field_named(self):
        data = decaying_population().to_json_dict()
        data["groups"][1]["count"] = 0
        with pytest.raises(ValueError, match="groups\\[1\\]"):
            PopulationSpec.from_json_dict(data)


class TestClosedFormMultiplier:
    def test_growth_equal_to_rate_returns_duration(self):
        for d in (1, 4, 10):
            assert closed_form_multiplier(0.10, 0.10, d) == float(d)

    def test_flat_matches_annuity(self):
        assert closed_form_multiplier(0.0, 0.10, 10) == pytest.approx(
            (1 - 1.1 ** -10) / 0.1, rel=1e-12
        )
        assert abs(closed_form_multiplier(0.0, 0.10, 10) - 6.14456711) <= 1e-8

    def test_decay_matches_term_by_term_sum(self):
        oracle = sum(0.8 ** i / 1.1 ** i for i in (1, 2, 3))
        assert closed_form_multiplier(-0.2, 0.10, 3) == pytest.approx(oracle, rel=1e-12)


class TestPipelineShareInvariants:
    def test_noise_free_geometric_shares(self):
        # initial chosen so annual totals stay cent-exact through age 8
        for g in (-0.5, -0.2, 0.0, 0.1):
            spec = PopulationSpec((GroupSpec(5, g, 0.0, 8, 100000.0),), seed=41)
            dataset, _ = build_dataset(gen_population(spec))
            surface = build_surface(dataset, 1, (10.0, 50.0, 90.0), max_horizon=7, min_cohort=5)
            for i in range(1, 8):
                for p in (10.0, 50.0, 90.0):
                    assert surface.values[(i, p)] == pytest.approx(
                        (1.0 + g) ** i, abs=1e-9
                    )

    def test_balanced_mixed_population_separates_levels(self):
        # three equal point masses: p10 sits on the decaying group, p50 on
        # the flat group, p90 on the growing group
        spec = PopulationSpec(
            (
                GroupSpec(5, -0.2, 0.0, 8, 100000.0),
                GroupSpec(5, 0.0, 0.0, 8, 100000.0),
                GroupSpec(5, 0.1, 0.0, 8, 100000.0),
            ),
            seed=43,
        )
        dataset, _ = build_dataset(gen_population(spec))
        surface = build_surface(dataset, 1, (10.0, 50.0, 90.0), max_horizon=7, min_cohort=5)
        for i in range(1, 8):
            assert surface.values[(i, 10.0)] == pytest.approx(0.8 ** i, abs=1e-9)
            assert surface.values[(i, 50.0)] == pytest.approx(1.0, abs=1e-9)
            assert surface.values[(i, 90.0)] == pytest.approx(1.1 ** i, abs=1e-9)


class TestGenQuotes:
    def _dataset(self):
        dataset, report = build_dataset(gen_population(decaying_population()))
        assert report.rejected_count == 0
        return dataset

    def test_noise_free_quotes_sit_on_band(self):
        dataset = self._dataset()
        quotes = gen_quotes(dataset, rate=0.10, bid_level=10.0, ask_level=50.0, seed=3, noise=0.0)
        assert quotes
        surfaces = {
            t: build_surface(dataset, t, (10.0, 50.0, 90.0), max_horizon=10, min_cohort=5)
            for t in (4, 6)
        }
        rows, errors = compare(quotes, surfaces, 0.10)
        assert errors == []
        assert len(rows) == len(quotes)
        for row in rows:
            assert abs(row.bid_gap_to_m10) <= 1e-9
            assert abs(row.ask_gap_to_m50) <= 1e-9

    def test_equal_levels_give_equal_sides_at_zero_noise(self):
        dataset = self._dataset()
        quotes = gen_quotes(dataset, bid_level=50.0, ask_level=50.0, seed=3, noise=0.0)
        for q in quotes:
            assert q.best_bid == q.ask

    def test_flat_population_ltm_is_initial(self):
        spec = PopulationSpec(
            (GroupSpec(5, 0.0, 0.0, 4, 7500.0), GroupSpec(5, 0.0, 0.0, 8, 7500.0)),
            seed=21,
        )
        dataset, _ = build_dataset(gen_population(spec))
        quotes = gen_quotes(dataset, seed=1)
        assert quotes
        for q in quotes:
            assert q.ltm == 7500.0

    def test_oldest_assets_without_cohorts_are_skipped(self):
        dataset = self._dataset()
        quotes = gen_quotes(dataset, seed=3)
        quoted = {q.asset_id for q in quotes}
        assert all(not asset_id.startswith("G02") for asset_id in quoted)
        assert len(quotes) == 12

    def test_durations_within_available_horizons(self):
        dataset = self._dataset()
        quotes = gen_quotes(dataset, seed=9)
        for q in quotes:
            available = 10 if q.dollar_age == 4.0 else 8
            assert 1 <= q.duration_years <= available

    def test_deterministic_for_fixed_seed(self):
        dataset = self._dataset()
        assert gen_quotes(dataset, seed=4, noise=0.05) == gen_quotes(dataset, seed=4, noise=0.05)

    def test_multiplier_consistency_with_pipeline(self):
        # quotes generated on the surface band reproduce the closed form
        spec = PopulationSpec((GroupSpec(5, -0.2, 0.0, 9, 100000.0),), seed=13)
        dataset, _ = build_dataset(gen_population(spec))
        surface = build_surface(dataset, 9, (10.0, 50.0, 90.0), max_horizon=10, min_cohort=5)
        assert surface.cell_horizons() == []  # nobody is older than 9 + 1
        quotes = gen_quotes(dataset, seed=13)
        assert quotes == []
