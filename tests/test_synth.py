import re
from array import array
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
    MAX_RECORDS,
    GroupSpec,
    PopulationSpec,
    closed_form_multiplier,
    derive_seed,
    gen_asset,
    gen_population,
    gen_quotes,
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
        asset = gen_asset(1, GroupSpec(1, 0.0, 0.0, 2, 1200.0), "A")
        assert tuple(asset.cents) == (10000,) * 24

    def test_remainder_cents_on_final_month(self):
        asset = gen_asset(1, GroupSpec(1, 0.0, 0.0, 2, 100.01), "A")
        assert tuple(asset.cents) == ((833,) * 11 + (838,)) * 2


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

    def test_largest_revenue_below_the_bound_keeps_its_cents_in_an_array(self):
        # 10**20 - 1 cents a year splits into months below 2**63 cents
        asset = gen_asset(5, GroupSpec(1, 0.0, 0.0, 2, 9.9e17), "A")
        assert type(asset.cents) is array
        assert max(asset.cents) < 2**63
        assert sum(asset.cents[:12]) == round(9.9e17 * 100)

    def test_assets_of_one_length_share_one_starts_column(self):
        first = gen_asset(1, GroupSpec(1, 0.0, 0.0, 3, 1200.0), "A")
        second = gen_asset(2, GroupSpec(1, 0.5, 0.2, 3, 700.0), "B")
        assert first.starts is second.starts

    def test_assets_of_one_length_share_one_months_column(self):
        first = gen_asset(1, GroupSpec(1, 0.0, 0.0, 3, 1200.0), "A")
        second = gen_asset(2, GroupSpec(1, 0.5, 0.2, 3, 700.0), "B")
        assert first.months is second.months
        assert first.months == (1,) * 36

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

    def test_each_asset_is_gen_asset_on_its_own_stream(self):
        """One generator, seeded again for each asset, draws what a new one
        seeded alike does, also after a group that draws nothing."""
        spec = PopulationSpec(
            (GroupSpec(3, -0.1, 0.3, 4, 900.0), GroupSpec(2, 0.0, 0.0, 2, 50.0),
             GroupSpec(3, 0.2, 0.1, 3, 700.0)),
            seed=17,
        )
        expected = [
            gen_asset(derive_seed(17, "asset", gi, ai), group, f"G{gi:02d}A{ai:03d}")
            for gi, group in enumerate(spec.groups)
            for ai in range(group.count)
        ]
        assert gen_population(spec) == expected

    def test_group_validation(self):
        with pytest.raises(ValueError):
            GroupSpec(0, 0.0, 0.0, 3, 100.0)
        with pytest.raises(ValueError):
            GroupSpec(1, -1.0, 0.0, 3, 100.0)
        with pytest.raises(ValueError):
            GroupSpec(1, 0.0, 0.0, 1, 100.0)


    def test_records_past_the_cap_are_refused_before_any_asset(self):
        """12 * count * age_years, summed over the groups, may reach the cap
        and not pass it."""
        count = MAX_RECORDS // 24
        PopulationSpec((GroupSpec(count, 0.0, 0.0, 2, 1.0),), seed=1)
        over = 24 * count + 36
        with pytest.raises(
            ValueError, match=f"^population of {over} records is over the cap of {MAX_RECORDS}$"
        ):
            PopulationSpec(
                (GroupSpec(count, 0.0, 0.0, 2, 1.0), GroupSpec(1, 0.0, 0.0, 3, 1.0)), seed=1
            )


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


PARAMETER_GUARDS = [
    pytest.param(PopulationSpec, ((), 1), "population needs at least one group", id="no_groups"),
    pytest.param(closed_form_multiplier, (-1.0, 0.1, 1), "g must be > -1", id="g_-1"),
    pytest.param(closed_form_multiplier, (0.0, -0.1, 1), "r must be >= 0", id="r_-0.1"),
    pytest.param(closed_form_multiplier, (0.0, 0.1, 0), "d must be >= 1", id="d_0"),
    pytest.param(
        gen_quotes, ([], 0.1, 25.0), "bid/ask levels must be one of (10.0, 50.0, 90.0)",
        id="bid_level_25",
    ),
    pytest.param(gen_quotes, ([], 0.1, 10.0, 50.0, 0, 1.0), "noise must be in [0, 1)", id="noise_1"),
]


@pytest.mark.parametrize("function,args,message", PARAMETER_GUARDS)
def test_parameter_guard_rejects_its_argument(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
