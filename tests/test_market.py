import math
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royaltyval import market
from royaltyval._io import record_header
from royaltyval.market import (
    ComparisonRow,
    MarketQuote,
    PlotGroup,
    QuoteRejectReason,
    aggregate_plot_data,
    compare,
    filter_quotes,
    implied_multipliers,
    parse_quotes,
    round_half_up,
    write_quotes_csv,
)
from royaltyval.curves import build_surfaces
from royaltyval.model import BAND_LEVELS, Asset, ShareSurface, multiplier_table


def quote(asset_id="Q1", ltm=100.0, bid=300.0, ask=500.0, duration=5, age=3.0):
    return MarketQuote(asset_id, ltm, bid, ask, duration, age)


def flat_surface(base_age=3, horizons=10, share=1.0):
    levels = (10.0, 50.0, 90.0)
    values = {(i, p): share for i in range(1, horizons + 1) for p in levels}
    counts = {i: 5 for i in range(1, horizons + 1)}
    return ShareSurface(base_age, levels, values, counts)


class TestImpliedMultipliers:
    def test_direct_ratios(self):
        assert implied_multipliers(quote(ltm=100, bid=300, ask=500)) == (3.0, 5.0)

    def test_no_bid(self):
        assert implied_multipliers(quote(ltm=100, bid=None, ask=450)) == (None, 4.5)

    def test_hand_division(self):
        assert implied_multipliers(quote(ltm=250, bid=1000, ask=1500)) == (4.0, 6.0)

    @given(
        ltm=st.floats(min_value=1.0, max_value=1e6),
        bid_mult=st.floats(min_value=0.0, max_value=10.0),
        ask_mult=st.floats(min_value=0.1, max_value=10.0),
        alpha=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariant(self, ltm, bid_mult, ask_mult, alpha):
        q1 = quote(ltm=ltm, bid=bid_mult * ltm, ask=ask_mult * ltm)
        q2 = quote(ltm=alpha * ltm, bid=bid_mult * ltm * alpha, ask=ask_mult * ltm * alpha)
        b1, a1 = implied_multipliers(q1)
        b2, a2 = implied_multipliers(q2)
        assert a1 == pytest.approx(a2, rel=1e-12)
        assert b1 == pytest.approx(b2, rel=1e-12)


class TestFilterQuotes:
    def test_duration_too_long(self):
        _, rejected = filter_quotes([quote(duration=12)])
        assert rejected[0][1] is QuoteRejectReason.DURATION_TOO_LONG

    def test_duration_exactly_ten_accepted(self):
        accepted, _ = filter_quotes([quote(duration=10)])
        assert len(accepted) == 1

    def test_bid_below_half_of_ask(self):
        _, rejected = filter_quotes([quote(ltm=100, bid=200, ask=500)])
        assert rejected[0][1] is QuoteRejectReason.BID_TOO_LOW

    def test_bid_exactly_half_accepted(self):
        accepted, _ = filter_quotes([quote(ltm=100, bid=250, ask=500)])
        assert len(accepted) == 1

    def test_duration_checked_first(self):
        _, rejected = filter_quotes([quote(ltm=100, bid=10, ask=500, duration=30)])
        assert rejected[0][1] is QuoteRejectReason.DURATION_TOO_LONG

    def test_no_bid_passes_bid_check(self):
        accepted, _ = filter_quotes([quote(bid=None)])
        assert len(accepted) == 1

    @given(
        durations=st.lists(st.integers(min_value=1, max_value=20), max_size=12),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_partition(self, durations, seed):
        rng = random.Random(seed)
        quotes = [
            quote(asset_id=f"Q{i}", bid=rng.uniform(0, 600), duration=d)
            for i, d in enumerate(durations)
        ]
        accepted, rejected = filter_quotes(quotes)
        assert len(accepted) + len(rejected) == len(quotes)


class TestRoundHalfUp:
    def test_half_goes_up(self):
        assert round_half_up(6.5) == 7
        assert round_half_up(0.5) == 1

    def test_below_half_goes_down(self):
        assert round_half_up(6.49) == 6

    def test_integer_unchanged(self):
        assert round_half_up(7.0) == 7


class TestBandSurfaces:
    def test_asks_only_for_observed_base_ages(self, monkeypatch):
        """Quotes at 0.3, 2.5 and 1e15 round to 0, 3 and 1e15; OLD claims a
        dollar age of 1e15 but is observed for 3 years, so ages 1..2 have
        cells and only the clamped ages are built."""
        dataset = [Asset("OLD", 1e15, (4.0, 2.0, 1.0)), Asset("NEW", 2.5, (3.0, 2.0, 1.0))]
        asked = []
        build = market.build_surfaces

        def spy(data, base_ages, *args, **kwargs):
            asked.append(sorted(base_ages))
            return build(data, base_ages, *args, **kwargs)

        monkeypatch.setattr(market, "build_surfaces", spy)
        for ages, min_cohort, built in [
            ([0.3, 2.5, 1e15], 1, [1, 2]),
            ([1e15], 1, [2]),
            ([0.3], 1, [1]),
            ([2.5, 1e15], 2, [1]),
            ([2.5], 3, []),
        ]:
            asked.clear()
            surfaces = market.band_surfaces(dataset, ages, max_horizon=3, min_cohort=min_cohort)
            assert asked == [built]
            assert sorted(surfaces) == built

    @settings(deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=8),
                st.floats(min_value=0.5, max_value=12.0),
            ),
            min_size=1,
            max_size=8,
        ),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=5),
                st.one_of(st.floats(min_value=0.01, max_value=15.0), st.just(1e15)),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_same_surfaces_as_every_age_to_the_oldest(self, assets, terms, min_cohort):
        """compare reads the same bands as from every age to the oldest
        that has cells, and every surface built has cells."""
        dataset = [Asset(f"A{k}", age, tuple(amounts)) for k, (amounts, age) in enumerate(assets)]
        quotes = [quote(asset_id=f"Q{k}", duration=d, age=a) for k, (d, a) in enumerate(terms)]
        oldest = math.ceil(max(a.dollar_age for a in dataset))
        every = build_surfaces(dataset, range(1, oldest + 1), BAND_LEVELS, 4, min_cohort)
        oracle = {t: s for t, s in every.items() if s.depth}
        surfaces = market.band_surfaces(dataset, [q.dollar_age for q in quotes], 4, min_cohort)
        assert all(s.depth >= 1 for s in surfaces.values())
        assert surfaces == {t: oracle[t] for t in surfaces}
        assert compare(quotes, surfaces, 0.1) == compare(quotes, oracle, 0.1)


class TestCompare:
    def test_flat_surface_band_matches_annuity(self):
        q = quote(duration=3, age=3.0)
        rows, errors = compare([q], {3: flat_surface()}, 0.10)
        assert errors == []
        oracle = sum(1.1 ** -i for i in (1, 2, 3))
        assert rows[0].model_m50 == pytest.approx(oracle, rel=1e-12)
        assert f"{rows[0].model_m50:.8f}" == "2.48685199"

    def test_zero_gap_when_bid_sits_on_band(self):
        surface = flat_surface()
        m10 = sum(1.1 ** -i for i in range(1, 4))
        q = quote(ltm=200.0, bid=200.0 * m10, duration=3)
        rows, _ = compare([q], {3: surface}, 0.10)
        assert rows[0].bid_gap_to_m10 == pytest.approx(0.0, abs=1e-12)

    def test_no_bid_leaves_bid_fields_absent(self):
        rows, _ = compare([quote(bid=None, duration=2)], {3: flat_surface()}, 0.10)
        assert rows[0].bid_multiplier is None
        assert rows[0].bid_gap_to_m10 is None
        assert rows[0].ask_multiplier == 5.0

    def test_age_clamped_to_available_surfaces(self):
        rows, errors = compare([quote(age=9.4, duration=2)], {3: flat_surface()}, 0.10)
        assert errors == []
        assert rows[0].model_m50 > 0

    def test_hole_in_surface_ages_is_row_error(self):
        surfaces = {1: flat_surface(base_age=1), 3: flat_surface(base_age=3)}
        rows, errors = compare([quote(age=2.0, duration=2)], surfaces, 0.10)
        assert rows == []
        assert [(e.asset_id, e.error) for e in errors] == [("Q1", "no surface for base age 2")]

    def test_duration_beyond_horizons_is_row_error(self):
        surfaces = {3: flat_surface(horizons=4)}
        rows, errors = compare([quote(duration=6)], surfaces, 0.10)
        assert rows == []
        assert "horizon=5" in errors[0].error

    @pytest.mark.parametrize(
        "levels,horizons,duration,message",
        [
            ((10.0, 50.0, 90.0), 0, 2, "horizon=1, level=10"),
            ((50.0, 90.0), 4, 2, "horizon=2, level=10"),
            ((50.0, 90.0), 4, 6, "horizon=5, level=50"),
        ],
        ids=["no_cells", "no_level_10", "no_level_10_too_short"],
    )
    def test_missing_cell_texts(self, levels, horizons, duration, message):
        surface = ShareSurface(
            3,
            levels,
            {(i, p): 1.0 for i in range(1, horizons + 1) for p in levels},
            {i: 5 for i in range(1, 5)},
        )
        rows, errors = compare([quote(duration=duration)], {3: surface}, 0.10)
        assert rows == []
        assert [e.error for e in errors] == [f"base age 3: surface has no cell at {message}"]

    def test_quotes_sharing_terms_share_one_table(self, monkeypatch):
        levels = (10.0, 50.0, 90.0)
        surfaces = {
            t: ShareSurface(
                t,
                levels,
                {
                    (i, p): (0.9 - 0.1 * t) ** i * (0.5 + p / 100.0)
                    for i in range(1, 5)
                    for p in levels
                },
                {i: 5 for i in range(1, 5)},
            )
            for t in (3, 4)
        }
        terms = [(2, 3.0), (2, 3.2), (3, 2.6), (2, 4.0), (2, 3.4), (6, 3.0), (6, 2.9)]
        quotes = [quote(asset_id=f"Q{k}", duration=d, age=a) for k, (d, a) in enumerate(terms)]
        built = []

        def counting_table(surface, rate, duration):
            built.append((surface.base_age, duration))
            return multiplier_table(surface, rate, duration)

        monkeypatch.setattr(market, "multiplier_table", counting_table)
        rows, errors = compare(quotes, surfaces, 0.10)
        # one build per base age, to its deepest cell
        assert sorted(built) == [(3, 4), (4, 4)]
        for row in rows:
            table = multiplier_table(surfaces[round_half_up(row.dollar_age)], 0.10, row.duration)
            band = tuple(table.entry(row.duration, p) for p in levels)
            assert (row.model_m10, row.model_m50, row.model_m90) == band
        assert [r.asset_id for r in rows] == ["Q0", "Q1", "Q2", "Q3", "Q4"]
        assert [(e.asset_id, e.error) for e in errors] == [
            ("Q5", "base age 3: surface has no cell at horizon=5, level=10"),
            ("Q6", "base age 3: surface has no cell at horizon=5, level=10"),
        ]

    def test_rows_sorted_and_permutation_invariant(self):
        quotes = [quote(asset_id=f"Q{i}", duration=2) for i in (3, 1, 2)]
        surfaces = {3: flat_surface()}
        rows_a, _ = compare(quotes, surfaces, 0.10)
        rows_b, _ = compare(list(reversed(quotes)), surfaces, 0.10)
        assert rows_a == rows_b
        assert [r.asset_id for r in rows_a] == ["Q1", "Q2", "Q3"]


class TestAggregatePlotData:
    def _row(self, asset_id="A", duration=3, age=2.0, bid=2.0, ask=4.0):
        return ComparisonRow(
            asset_id, duration, age, bid, ask, 1.0, 2.0, 3.0,
            None if bid is None else bid - 1.0, ask - 2.0,
        )

    def test_single_row_echoes_values(self):
        [group] = aggregate_plot_data([self._row()], "duration")
        assert group.axis_value == 3
        assert group.n == 1
        assert group.mean_bid_mult == 2.0
        assert group.mean_ask_mult == 4.0

    def test_mean_of_two_rows(self):
        rows = [self._row("A", bid=2.0), self._row("B", bid=4.0)]
        [group] = aggregate_plot_data(rows, "duration")
        assert group.mean_bid_mult == 3.0

    def test_means_of_huge_multipliers_stay_finite(self):
        # each plain sum is past the float range; the means are not
        rows = [self._row("A", bid=1e308, ask=1.5e308), self._row("B", bid=1e308, ask=1.7e308)]
        [group] = aggregate_plot_data(rows, "duration")
        assert group.mean_bid_mult == 1e308
        assert group.mean_ask_mult == pytest.approx(1.6e308, rel=1e-15)
        assert (group.mean_m10, group.mean_m50, group.mean_m90) == (1.0, 2.0, 3.0)

    def test_means_add_left_to_right(self):
        # from Python 3.12 sum() compensates: ten 0.1s add to 1.0, the scaled terms to 1.7e308
        [group] = aggregate_plot_data([self._row(str(k), ask=0.1) for k in range(10)], "duration")
        assert group.mean_ask_mult == 0.9999999999999999 / 10
        rows = [self._row(str(k), ask=1.7e308) for k in range(10)]
        [group] = aggregate_plot_data(rows, "duration")
        assert group.mean_ask_mult == 1.6999999999999995e308

    def test_groups_by_dollar_age_bucket(self):
        rows = [self._row("A", age=1.6), self._row("B", age=2.4), self._row("C", age=4.0)]
        groups = aggregate_plot_data(rows, "dollar_age_bucket")
        assert [g.axis_value for g in groups] == [2, 4]
        assert groups[0].n == 2

    def test_empty_input(self):
        assert aggregate_plot_data([], "duration") == []

    def test_bidless_group_has_no_bid_mean(self):
        [group] = aggregate_plot_data([self._row(bid=None)], "duration")
        assert group.mean_bid_mult is None

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            aggregate_plot_data([self._row()], "genre")


class TestQuotesCsv:
    def test_roundtrip(self, tmp_path):
        quotes = [
            quote("Q2", ltm=123.45, bid=None, ask=617.25, duration=7, age=2.5),
            quote("Q1", ltm=1000.0, bid=1234.5678, ask=2000.1, duration=3, age=4.0),
        ]
        path = tmp_path / "quotes.csv"
        write_quotes_csv(path, quotes)
        loaded = parse_quotes(path)
        assert loaded == sorted(quotes, key=lambda q: q.asset_id)

    def test_empty_bid_field_means_no_bid(self, tmp_path):
        path = tmp_path / "quotes.csv"
        path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ1,100,,450,5,3.0\n"
        )
        [q] = parse_quotes(path)
        assert q.best_bid is None

    def test_bad_row_raises_with_line(self, tmp_path):
        from royaltyval.ingest import ParseError

        path = tmp_path / "quotes.csv"
        path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ1,0,,450,5,3.0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_quotes(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "row,message",
        [
            ("Q,x,,450,5,3.0", "bad number 'x'"),
            ("Q,100,,0,5,3.0", "Q: ask must be > 0"),
            ("Q,100,-1,450,5,3.0", "Q: best_bid must be >= 0"),
            ("Q,100,,450,0,3.0", "Q: duration_years must be >= 1"),
            ("Q,100,,450,1.5,3.0", "bad integer '1.5'"),
            ("Q,100,,450,5,0", "Q: dollar_age must be > 0"),
            ("Q,100,,450," + "1" * 5000 + ",3.0", f"bad integer '{'1' * 40}…' (5000 characters)"),
            ("L" * 5000 + ",100,,0,5,3.0", f"{'L' * 40}… (5000 characters): ask must be > 0"),
        ],
        ids=[
            "ltm_text", "ask_zero", "bid_negative", "duration_zero", "duration_fraction", "age_zero",
            "duration_5000_digits", "ask_zero_5000_character_id",
        ],
    )
    def test_bad_field_names_its_line(self, tmp_path, row, message):
        from royaltyval.ingest import ParseError

        path = tmp_path / "quotes.csv"
        path.write_text("asset_id,ltm,best_bid,ask,duration_years,dollar_age\n" + row + "\n")
        with pytest.raises(ParseError) as err:
            parse_quotes(path)
        assert str(err.value) == f"{path}:line 2: {message}"

    @pytest.mark.parametrize(
        "row,message",
        [
            ("Q,nan,,450,5,3.0", "Q: ltm must be > 0"),
            ("Q,inf,,450,5,3.0", "Q: ltm must be > 0"),
            ("Q,100,nan,450,5,3.0", "Q: best_bid must be >= 0"),
            ("Q,100,inf,450,5,3.0", "Q: best_bid must be >= 0"),
            ("Q,100,,nan,5,3.0", "Q: ask must be > 0"),
            ("Q,100,,-inf,5,3.0", "Q: ask must be > 0"),
            ("Q,100,,450,5,nan", "Q: dollar_age must be > 0"),
            ("Q,100,,450,5,inf", "Q: dollar_age must be > 0"),
            ("Q,1e-300,1e10,450,5,3.0", "Q: best_bid/ltm must be finite"),
            ("Q,1e-300,,1e10,5,3.0", "Q: ask/ltm must be finite"),
            ("Q,100,,450,2.5,3.0", "bad integer '2.5'"),
            ("Q,1_0,,450,5,3.0", "bad number '1_0' (ASCII digits only, no underscores)"),
            ("Q,0,,nan,5,3.0", "Q: ltm must be > 0"),
            ("Q,0,,450,2.5,3.0", "bad integer '2.5'"),
            (",100,,450,5,3.0", "empty asset_id"),
            ("Q\x07,100,,450,5,3.0", "asset_id must be printable, got 'Q\\x07'"),
            ("Q0,100,,450,5,3.0", "duplicate quote Q0"),
        ],
        ids=[
            "ltm_nan", "ltm_inf", "bid_nan", "bid_inf", "ask_nan", "ask_minus_inf", "age_nan",
            "age_inf", "bid_over_ltm_overflows", "ask_over_ltm_overflows", "duration_2.5",
            "ltm_underscore", "ltm_checked_before_ask", "texts_read_before_checks", "empty_id",
            "unprintable_id", "repeated_id",
        ],
    )
    def test_each_check_keeps_its_text_and_line_after_a_valid_row(self, tmp_path, row, message):
        from royaltyval.ingest import ParseError

        path = tmp_path / "quotes.csv"
        path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ0,100,,450,5,3.0\n" + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            parse_quotes(path)
        assert str(err.value) == f"{path}:line 3: {message}"

    @pytest.mark.parametrize(
        "row,bad",
        [
            ("Q1,١٠٠,,450,5,3.0", "١٠٠"),
            ("Q1,100,2_00,450,5,3.0", "2_00"),
            ("Q1,100,,450,٥,3.0", "٥"),
            ("Q1,100,,450,1_0,3.0", "1_0"),
            ("Q1,100,,450,5,٣", "٣"),
        ],
    )
    def test_rejects_non_ascii_and_underscored_numbers(self, tmp_path, row, bad):
        from royaltyval.ingest import ParseError

        path = tmp_path / "quotes.csv"
        path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ0,100,,450,5,3.0\n" + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            parse_quotes(path)
        assert str(err.value) == f"{path}:line 3: bad number {bad!r} (ASCII digits only, no underscores)"


class TestSchema:
    @pytest.mark.parametrize(
        "cls,header",
        [
            (MarketQuote, market.QUOTES_HEADER),
            (ComparisonRow, record_header(ComparisonRow)),
            (PlotGroup, record_header(PlotGroup)),
        ],
    )
    def test_csv_header_is_the_field_names_in_order(self, cls, header):
        assert header == tuple(f.name for f in fields(cls))

    def test_quotes_file_header_is_the_field_names(self, tmp_path):
        path = tmp_path / "quotes.csv"
        write_quotes_csv(path, [quote()])
        assert path.read_text().splitlines()[0] == ",".join(f.name for f in fields(MarketQuote))

    def test_cells_follow_the_declared_type_not_the_value_type(self):
        row = ComparisonRow("Q1", 3, 5, None, 2, 1, 1, 1, None, 1.0)
        assert list(market.comparison_csv_rows([row])) == [
            ("Q1", "3", "5.000000", "", "2.000000", "1.000000", "1.000000", "1.000000", "",
             "1.000000")
        ]

    def test_plot_cells(self):
        group = PlotGroup(4, 2, None, 1.5, 1, 2, 3)
        assert list(market.plot_csv_rows([group])) == [
            ("4", "2", "", "1.500000", "1.000000", "2.000000", "3.000000")
        ]


class TestQuoteMultipliersFinite:
    @pytest.mark.parametrize(
        "bid,ask,name", [(1e10, 1.0, "best_bid"), (None, 1e10, "ask"), (1e10, 1e10, "best_bid")]
    )
    def test_overflowing_multiplier_rejected(self, bid, ask, name):
        with pytest.raises(ValueError, match=f"^Q1: {name}/ltm must be finite$"):
            quote(ltm=1e-300, bid=bid, ask=ask)

    def test_largest_finite_multiplier_accepted(self):
        assert implied_multipliers(quote(ltm=1e-300, bid=None, ask=1.0))[1] == 1.0 / 1e-300


PARAMETER_GUARDS = [
    pytest.param(filter_quotes, ([], 0), "max_duration must be >= 1", id="max_duration_0"),
    pytest.param(
        filter_quotes, ([], 10, 1.5), "min_bid_ask_ratio must be in [0, 1]", id="ratio_1.5"
    ),
    pytest.param(
        round_half_up, (-1,), "round_half_up expects a non-negative value", id="round_-1"
    ),
]


@pytest.mark.parametrize("function,args,message", PARAMETER_GUARDS)
def test_parameter_guard_rejects_its_argument(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
