import math
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royaltyval import model
from royaltyval.model import (
    Asset,
    MissingCellError,
    ShareSurface,
    discount_factor,
    multiplier_from_shares,
    multiplier_table,
    price,
)


def repeated_multiplication_factor(rate, year):
    """Discount factor by repeated multiplication, independent of pow()."""
    growth = 1.0
    for _ in range(year):
        growth *= 1.0 + rate
    return 1.0 / growth


def annuity(rate, d):
    """Closed-form level annuity factor."""
    return (1.0 - (1.0 + rate) ** -d) / rate


def flat_surface(share=1.0, horizons=10, levels=(10.0, 50.0, 90.0), count=5, base_age=1):
    values = {(i, p): share for i in range(1, horizons + 1) for p in levels}
    counts = {i: count for i in range(1, horizons + 1)}
    return ShareSurface(base_age, levels, values, counts)


shares_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=12
)
positive_shares = st.lists(
    st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=12
)
rates = st.floats(min_value=0.0, max_value=0.5)


class TestDiscountFactor:
    def test_one_year_at_ten_percent(self):
        assert discount_factor(0.10, 1) == pytest.approx(1 / 1.1, rel=1e-15)

    def test_zero_rate_is_one(self):
        assert discount_factor(0.0, 7) == 1.0

    def test_ten_years_matches_repeated_multiplication(self):
        oracle = repeated_multiplication_factor(0.10, 10)
        assert discount_factor(0.10, 10) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            discount_factor(-0.01, 1)

    def test_rejects_year_below_one(self):
        with pytest.raises(ValueError):
            discount_factor(0.10, 0)

    def test_power_past_the_float_range_gives_zero(self):
        assert discount_factor(1e300, 1) == 1.0 / (1.0 + 1e300)
        assert discount_factor(1e300, 2) == 0.0
        table = multiplier_table(flat_surface(), 1e300, 3)
        assert [table.entry(d, 50.0) for d in (1, 2, 3)] == [1.0 / (1.0 + 1e300)] * 3

    @given(rate=rates, year=st.integers(min_value=1, max_value=30))
    def test_in_unit_interval(self, rate, year):
        df = discount_factor(rate, year)
        assert 0.0 < df <= 1.0


class TestMultiplierFromShares:
    def test_all_zero_shares(self):
        assert multiplier_from_shares([0.0, 0.0, 0.0], 0.10) == 0.0

    def test_single_year_annuity(self):
        assert multiplier_from_shares([1.0], 0.10) == pytest.approx(1 / 1.1, rel=1e-15)

    def test_ten_flat_shares_matches_annuity_oracle(self):
        assert multiplier_from_shares([1.0] * 10, 0.10) == pytest.approx(
            annuity(0.10, 10), rel=1e-12
        )

    def test_rejects_negative_share(self):
        with pytest.raises(ValueError):
            multiplier_from_shares([1.0, -0.1], 0.10)

    def test_rejects_non_finite_share(self):
        with pytest.raises(ValueError):
            multiplier_from_shares([1.0, float("nan")], 0.10)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            multiplier_from_shares([], 0.10)

    def test_rejects_negative_rate(self):
        # discount_factor holds the check
        with pytest.raises(ValueError, match="^rate must be >= 0$"):
            multiplier_from_shares([1.0], -0.1)

    @given(shares=shares_lists, rate=rates)
    def test_monotone_in_duration(self, shares, rate):
        prefix_values = [
            multiplier_from_shares(shares[:d], rate) for d in range(1, len(shares) + 1)
        ]
        assert all(a <= b for a, b in zip(prefix_values, prefix_values[1:]))

    @given(shares=positive_shares)
    def test_strictly_antitone_in_rate(self, shares):
        low = multiplier_from_shares(shares, 0.05)
        high = multiplier_from_shares(shares, 0.15)
        assert low > high

    @given(shares=shares_lists, rate=rates, alpha=st.floats(min_value=1e-3, max_value=1e3))
    def test_linear_in_shares(self, shares, rate, alpha):
        scaled = multiplier_from_shares([alpha * s for s in shares], rate)
        direct = alpha * multiplier_from_shares(shares, rate)
        assert scaled == pytest.approx(direct, rel=1e-12, abs=1e-300)


class TestPrice:
    def test_zero_multiplier(self):
        assert price(0.0, 10000) == 0.0

    def test_identity_multiplier(self):
        assert price(1.0, 12345) == 12345

    def test_annuity_price(self):
        mult = multiplier_from_shares([1.0] * 10, 0.10)
        assert price(mult, 10000) == pytest.approx(annuity(0.10, 10) * 10000, rel=1e-12)

    def test_rejects_non_positive_ltm(self):
        with pytest.raises(ValueError):
            price(1.0, 0)
        with pytest.raises(ValueError):
            price(1.0, -5)

    def test_rejects_product_that_overflows(self):
        with pytest.raises(ValueError) as err:
            price(9.5, 1e308)
        assert str(err.value) == "price of multiplier 9.5 times ltm 1e+308 is not finite"


class TestMultiplierTable:
    def test_zero_surface_gives_zero_entries(self):
        table = multiplier_table(flat_surface(share=0.0), 0.10, 10)
        assert all(v == 0.0 for column in table.columns for v in column)

    def test_flat_surface_matches_annuity(self):
        table = multiplier_table(flat_surface(), 0.10, 10)
        for d in range(1, 11):
            for p in (10.0, 50.0, 90.0):
                assert table.entry(d, p) == pytest.approx(annuity(0.10, d), rel=1e-12)

    def test_doubled_level_doubles_entries(self):
        levels = (10.0, 50.0, 90.0)
        values = {}
        for i in range(1, 6):
            base = 0.8 ** i
            values[(i, 10.0)] = 0.5 * base
            values[(i, 50.0)] = base
            values[(i, 90.0)] = 2.0 * base
        surface = ShareSurface(1, levels, values, {i: 5 for i in range(1, 6)})
        table = multiplier_table(surface, 0.10, 5)
        for d in range(1, 6):
            assert table.entry(d, 90.0) == pytest.approx(2.0 * table.entry(d, 50.0), rel=1e-12)

    def test_missing_cell_names_first_gap(self):
        surface = flat_surface(horizons=3)
        with pytest.raises(MissingCellError) as err:
            multiplier_table(surface, 0.10, 5)
        assert err.value.horizon == 4
        assert err.value.level == 10.0
        assert "horizon=4" in str(err.value)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="^rate must be >= 0$"):
            multiplier_table(flat_surface(), -0.1, 3)

    @pytest.mark.parametrize("rate", [0.10, -0.1])
    def test_depth_is_checked_before_any_per_duration_work(self, rate):
        # a surface too shallow fails at once, before a factor is computed
        with pytest.raises(MissingCellError) as err:
            multiplier_table(flat_surface(horizons=3), rate, 10**12)
        assert (err.value.horizon, err.value.level) == (4, 10.0)

    @pytest.mark.parametrize(
        "duration, level", [(0, 50.0), (4, 50.0), (2, 25.0)],
        ids=["below_one", "past_depth", "undeclared_level"],
    )
    def test_entry_outside_the_table_is_a_missing_cell(self, duration, level):
        table = multiplier_table(flat_surface(horizons=3), 0.10, 3)
        with pytest.raises(MissingCellError) as err:
            table.entry(duration, level)
        assert (err.value.horizon, err.value.level) == (duration, level)
        assert str(err.value) == f"surface has no cell at horizon={duration}, level={level:g}"

    def test_one_discount_factor_per_duration(self, monkeypatch):
        years = []

        def counted(rate, year):
            years.append(year)
            return discount_factor(rate, year)

        monkeypatch.setattr(model, "discount_factor", counted)
        multiplier_table(flat_surface(horizons=12), 0.10, 10)
        assert years == list(range(1, 11))

    @given(
        data=st.data(),
        rate=st.sampled_from([0.0, 0.1, 1e300]),
        # each level as :g prints it, so no two are equal at six significant digits
        levels=st.sets(
            st.floats(min_value=1.0, max_value=99.0).map(lambda p: float(f"{p:g}")),
            min_size=1, max_size=4,
        ),
        depth=st.integers(1, 30),
    )
    def test_tables_are_finite_and_monotone(self, data, rate, levels, depth):
        # Up to 30 horizons of shares up to 1e308/30 keep every level's sum
        # finite, so each drawn surface is valid.
        levels = tuple(sorted(levels))
        share = st.one_of(
            st.floats(min_value=0.0, max_value=1e308 / 30),
            st.sampled_from([-0.0, 5e-324, 1e306]),
        )
        values = {}
        for i in range(1, depth + 1):
            row = sorted(data.draw(st.lists(share, min_size=len(levels), max_size=len(levels))))
            values.update(((i, p), s) for p, s in zip(levels, row))
        surface = ShareSurface(1, levels, values, {i: 5 for i in range(1, depth + 1)})
        table = multiplier_table(surface, rate, data.draw(st.integers(1, depth)))
        for column in table.columns:
            assert all(math.isfinite(m) and m >= 0.0 for m in column)
            assert all(a <= b for a, b in zip(column, column[1:]))
        for row in zip(*table.columns):
            assert all(a <= b for a, b in zip(row, row[1:]))

    @given(
        shares=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=10),
        rate=rates,
    )
    def test_prefix_sum_identity(self, shares, rate):
        levels = (50.0,)
        horizons = len(shares)
        surface = ShareSurface(
            1,
            levels,
            {(i, 50.0): shares[i - 1] for i in range(1, horizons + 1)},
            {i: 5 for i in range(1, horizons + 1)},
        )
        table = multiplier_table(surface, rate, horizons)
        for d in range(1, horizons + 1):
            expected = multiplier_from_shares(shares[:d], rate)
            assert table.entry(d, 50.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @given(
        shares=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=2, max_size=10),
        rate=rates,
    )
    def test_prefix_recurrence_is_exact(self, shares, rate):
        # entry(d+1) is literally entry(d) plus the next discounted share,
        # so the recurrence holds bit for bit in float arithmetic.
        levels = (50.0,)
        horizons = len(shares)
        surface = ShareSurface(
            1,
            levels,
            {(i, 50.0): shares[i - 1] for i in range(1, horizons + 1)},
            {i: 5 for i in range(1, horizons + 1)},
        )
        table = multiplier_table(surface, rate, horizons)
        for d in range(1, horizons):
            step = shares[d] * discount_factor(rate, d + 1)
            assert table.entry(d + 1, 50.0) == table.entry(d, 50.0) + step

    @given(
        seed_shares=st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=8)
    )
    def test_level_ordering_carries_to_entries(self, seed_shares):
        levels = (10.0, 50.0, 90.0)
        values = {}
        for i, s in enumerate(seed_shares, start=1):
            values[(i, 10.0)] = 0.5 * s
            values[(i, 50.0)] = s
            values[(i, 90.0)] = 1.5 * s
        surface = ShareSurface(
            1, levels, values, {i: 5 for i in range(1, len(seed_shares) + 1)}
        )
        table = multiplier_table(surface, 0.10, len(seed_shares))
        for d in range(1, len(seed_shares) + 1):
            assert table.entry(d, 10.0) <= table.entry(d, 50.0) <= table.entry(d, 90.0)


class TestDomainTypes:
    def test_annual_series_rejects_empty(self):
        with pytest.raises(ValueError):
            Asset("A", 1.0, ())

    def test_annual_series_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Asset("A", 2.0, (1.0, float("inf")))

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_annual_series_rejects_non_finite_decimal(self, bad):
        with pytest.raises(ValueError, match="non-finite amount in year 2"):
            Asset("A", 2.0, (Decimal(1), Decimal(bad)))

    def test_annual_series_accepts_decimal_beyond_float_range(self):
        # math.isfinite(Decimal("1e400")) is False: the check must ask the Decimal
        assert Asset("A", 1.0, (Decimal("1e400"),)).amounts == (Decimal("1e400"),)

    def test_asset_rejects_non_positive_age(self):
        with pytest.raises(ValueError):
            Asset("A", 0.0, (1.0,))

    def test_surface_rejects_unordered_levels(self):
        with pytest.raises(ValueError):
            ShareSurface(1, (50.0, 10.0), {}, {})

    def test_surface_rejects_increasing_counts(self):
        with pytest.raises(ValueError):
            ShareSurface(1, (50.0,), {}, {1: 3, 2: 5})

    def test_surface_rejects_level_disorder_within_horizon(self):
        values = {(1, 10.0): 2.0, (1, 50.0): 1.0}
        with pytest.raises(ValueError):
            ShareSurface(1, (10.0, 50.0), values, {1: 5})

    def test_surface_rejects_partial_levels(self):
        values = {(1, 10.0): 1.0}
        with pytest.raises(ValueError):
            ShareSurface(1, (10.0, 50.0), values, {1: 5})

    @pytest.mark.parametrize(
        "cells,horizons",
        [
            ([(1, 50.0), (3, 50.0)], 3),
            ([(1, 50.0), (2, 50.0)], 1),
            ([(1, 50.0), (1, 90.0)], 1),
        ],
        ids=["gap_in_horizons", "beyond_counts", "undeclared_level"],
    )
    def test_surface_cells_must_be_a_rectangle(self, cells, horizons):
        counts = {i: 5 for i in range(1, horizons + 1)}
        with pytest.raises(ValueError, match=f"every level, for some K <= {horizons}"):
            ShareSurface(1, (50.0,), dict.fromkeys(cells, 1.0), counts)

    def test_surface_rejects_shares_summing_past_the_float_range(self):
        counts = {1: 5, 2: 5}
        assert ShareSurface(1, (50.0,), {(1, 50.0): 1e308}, counts).depth == 1
        with pytest.raises(ValueError, match="^shares at level 50 sum past the float range$"):
            ShareSurface(1, (50.0,), {(1, 50.0): 1e308, (2, 50.0): 1e308}, counts)

    def test_surface_rejects_gap_in_count_horizons(self):
        with pytest.raises(ValueError):
            ShareSurface(1, (50.0,), {}, {1: 5, 3: 2})


PARAMETER_GUARDS = [
    pytest.param(price, (-1.0, 1.0), "multiplier must be finite and >= 0", id="multiplier_-1"),
    pytest.param(price, (math.nan, 1.0), "multiplier must be finite and >= 0", id="multiplier_nan"),
    pytest.param(
        multiplier_table, (flat_surface(), 0.1, 0), "max_duration must be >= 1", id="table_0"
    ),
    pytest.param(
        Asset, ("L" * 41, 0.0, (1.0,)), f"{'L' * 40}… (41 characters): dollar_age must be > 0",
        id="long_id",
    ),
]


@pytest.mark.parametrize("function,args,message", PARAMETER_GUARDS)
def test_parameter_guard_rejects_its_argument(function, args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        function(*args)
