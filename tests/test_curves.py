import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from royaltyval._io import write_table
from royaltyval.curves import (
    SURFACE_HEADER,
    SURFACE_SPECS,
    build_surface,
    build_surfaces,
    observed_share,
    parse_surface_csv,
    percentile,
    surface_csv_rows,
    surface_from_json_dict,
    surface_to_json_dict,
)
from royaltyval.model import Asset


def brute_force_percentile(values, level):
    """Independent sort-and-interpolate oracle."""
    v = sorted(values)
    if level == 100.0:
        return float(v[-1])
    h = (len(v) - 1) * (level / 100.0)
    k = int(math.floor(h))
    return v[k] * (1.0 - (h - k)) + v[k + 1] * (h - k) if k + 1 < len(v) else float(v[k])


def asset(asset_id, amounts, dollar_age=None):
    if dollar_age is None:
        dollar_age = float(len(amounts))
    return Asset(asset_id, dollar_age, tuple(amounts))


value_lists = st.lists(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False), min_size=1, max_size=12
)
levels = st.floats(min_value=0.0, max_value=100.0)


class TestObservedShare:
    def test_one_year_out(self):
        assert observed_share(asset("A", [10, 5, 2.5], 3.0), 1, 1) == 0.5

    def test_two_years_out(self):
        assert observed_share(asset("A", [10, 5, 2.5], 3.0), 1, 2) == 0.25

    def test_absent_when_bucket_missing(self):
        assert observed_share(asset("A", [10, 5, 2.5], 3.0), 2, 2) is None

    def test_absent_when_too_young(self):
        assert observed_share(asset("A", [10, 5, 2.5, 2.0], 3.5), 2, 2) is None

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            observed_share(asset("A", [10, 5]), 0, 1)

    def test_zero_base_year_is_a_value_error(self):
        with pytest.raises(ValueError, match="^A: no revenue in year 1$"):
            observed_share(asset("A", [0.0, 1.0, 1.0]), 1, 1)


class TestPercentile:
    def test_singleton_any_level(self):
        for level in (0, 10, 50, 90, 100):
            assert percentile([7.0], level) == 7.0

    def test_median_of_four(self):
        # h = 1.5 midway between 2 and 3
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == pytest.approx(2.5, rel=1e-12)

    def test_ninetieth_of_ten(self):
        # h = 8.1, so 9 + 0.1 * (10 - 9)
        values = [float(x) for x in range(1, 11)]
        assert percentile(values, 90) == pytest.approx(9.1, rel=1e-12)

    def test_level_zero_and_hundred(self):
        values = [3.0, 1.0, 2.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 3.0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_rejects_level_outside_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], -1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.5)

    @given(values=value_lists, level=levels)
    def test_bounded_by_min_max(self, values, level):
        result = percentile(values, level)
        assert min(values) <= result <= max(values)

    @given(values=value_lists, low=levels, high=levels)
    def test_monotone_in_level(self, values, low, high):
        if low > high:
            low, high = high, low
        assert percentile(values, low) <= percentile(values, high)

    @given(values=value_lists, level=levels)
    def test_matches_brute_force_oracle(self, values, level):
        assert percentile(values, level) == pytest.approx(
            brute_force_percentile(values, level), rel=1e-12, abs=1e-300
        )

    @given(
        values=st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=1, max_size=12),
        level=levels,
        alpha=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_equivariant(self, values, level, alpha):
        scaled = percentile([alpha * v for v in values], level)
        assert scaled == pytest.approx(alpha * percentile(values, level), rel=1e-12)


class TestBuildCohort:
    """Cohort membership and the share check, read through build_surfaces."""

    def test_everyone_too_young(self):
        dataset = [asset("A", [10, 5], 1.5), asset("B", [8, 8], 1.9)]
        surface = build_surfaces(dataset, [1], max_horizon=1, min_cohort=1)[1]
        assert surface.counts == {1: 0}

    def test_share_ratios(self):
        dataset = [
            asset("A", [10, 5], 2.0),
            asset("B", [8, 8], 2.0),
            asset("C", [4, 6], 2.0),
        ]
        surface = build_surfaces(dataset, [1], max_horizon=1, min_cohort=3)[1]
        # per-asset ratio oracle: 5/10, 8/8, 6/4
        assert surface.counts == {1: 3}
        for p in surface.levels:
            assert surface.values[(1, p)] == percentile([0.5, 1.0, 1.5], p)

    def test_excludes_missing_bucket_despite_age(self):
        # old enough on dollar age, but the trailing year was dropped
        dataset = [asset("A", [10, 5], 3.0), asset("B", [9, 9, 9], 3.0)]
        surface = build_surfaces(dataset, [1], max_horizon=2, min_cohort=1)[1]
        assert surface.counts == {1: 2, 2: 1}
        assert surface.values[(2, 50.0)] == 1.0

    def test_cohort_validation(self):
        # a zero later year gives share 0; 1e300 / 1e-300 overflows to inf; a
        # zero base year gives no share at all
        for amounts in ([10.0, 0.0], [1e-300, 1e300], [0.0, 1.0]):
            dataset = [asset("A", amounts, 2.0), asset("B", [10.0, 5.0], 2.0)]
            with pytest.raises(ValueError, match="cohort shares must be finite and > 0"):
                build_surfaces(dataset, [1], max_horizon=1, min_cohort=1)

    def test_bad_arguments_keep_their_messages(self):
        dataset = [asset("A", [10, 5], 2.0)]
        with pytest.raises(ValueError, match="base_age and horizon must be >= 1"):
            build_surfaces(dataset, [0, 1])
        with pytest.raises(ValueError, match="base_age must be >= 1"):
            build_surfaces([], [0])
        with pytest.raises(ValueError, match="max_horizon must be >= 1"):
            build_surfaces(dataset, [1], max_horizon=0)
        with pytest.raises(ValueError, match="min_cohort must be >= 1"):
            build_surfaces(dataset, [1], min_cohort=0)

    def test_one_surface_per_distinct_age(self):
        dataset = [asset(f"A{k}", [10.0, 8.0, 6.0, 4.0], 4.0) for k in range(5)]
        surfaces = build_surfaces(dataset, [3, 1, 3, 2], max_horizon=3)
        assert list(surfaces) == [1, 2, 3]
        assert surfaces[2] == build_surface(dataset, 2, max_horizon=3)
        assert surfaces[3].counts == {1: 5, 2: 0, 3: 0}


class TestCohortOrder:
    """build_surfaces takes each cohort as a prefix of the series sorted
    longest first; the dataset's order must change no value, count or
    depth, also where a cohort is one short of min_cohort, at it or one
    past it."""

    AGES = (1, 2, 4, 7, 9)

    @staticmethod
    def dataset():
        # lengths 1..14 with repeats, and dollar ages some below the length
        rng = random.Random(11)
        return [
            asset(
                f"A{k:02d}",
                [rng.uniform(1.0, 100.0) for _ in range(rng.randint(1, 14))],
                rng.choice([None, rng.uniform(1.0, 15.0)]),
            )
            for k in range(60)
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_dataset_gives_the_same_surfaces(self, seed):
        dataset = self.dataset()
        sizes = build_surfaces(dataset, self.AGES, max_horizon=8, min_cohort=1)
        cohorts = sorted({n for s in sizes.values() for n in s.counts.values() if n})
        shuffled = random.Random(seed).sample(dataset, len(dataset))
        for min_cohort in sorted({max(1, n + d) for n in cohorts[::4] for d in (-1, 0, 1)}):
            in_order = build_surfaces(dataset, self.AGES, max_horizon=8, min_cohort=min_cohort)
            other = build_surfaces(shuffled, self.AGES, max_horizon=8, min_cohort=min_cohort)
            assert [(s.values, s.counts, s.depth) for s in other.values()] == [
                (s.values, s.counts, s.depth) for s in in_order.values()
            ]
        assert any(0 < s.depth < 8 for s in in_order.values())


def brute_force_cohort(dataset, base_age, horizon):
    shares = (observed_share(a, base_age, horizon) for a in dataset)
    return [s for s in shares if s is not None]


class TestBuildSurfacesOracle:
    LEVELS = (10.0, 37.5, 50.0, 90.0)

    def assert_cells_match(self, dataset, base_ages, max_horizon, min_cohort):
        surfaces = build_surfaces(dataset, base_ages, self.LEVELS, max_horizon, min_cohort)
        assert sorted(surfaces) == sorted(set(base_ages))
        for t, surface in surfaces.items():
            for i in range(1, max_horizon + 1):
                cohort = brute_force_cohort(dataset, t, i)
                assert surface.counts[i] == len(cohort)
                for p in self.LEVELS:
                    if len(cohort) >= min_cohort:
                        assert surface.values[(i, p)] == percentile(cohort, p)
                    else:
                        assert (i, p) not in surface.values
        return surfaces

    @given(
        data=st.data(),
        series=st.lists(
            st.tuples(
                st.lists(st.floats(min_value=0.5, max_value=100.0), min_size=1, max_size=9),
                st.floats(min_value=0.5, max_value=11.0),
            ),
            max_size=12,
        ),
        base_ages=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
        max_horizon=st.integers(min_value=1, max_value=6),
        min_cohort=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_cohorts(self, data, series, base_ages, max_horizon, min_cohort):
        # dollar ages are drawn apart from series lengths, so some series
        # stop short of their dollar age and others run past it
        dataset = [
            asset(f"A{k:02d}", amounts, dollar_age)
            for k, (amounts, dollar_age) in enumerate(series)
        ]
        surfaces = self.assert_cells_match(dataset, base_ages, max_horizon, min_cohort)
        shuffled = data.draw(st.permutations(dataset))
        assert build_surfaces(shuffled, base_ages, self.LEVELS, max_horizon, min_cohort) == surfaces

    @given(
        series=st.lists(
            st.tuples(
                st.lists(st.integers(min_value=1, max_value=10**9), min_size=1, max_size=9),
                st.integers(min_value=-3, max_value=3),
            ),
            max_size=12,
        ),
        base_ages=st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=5),
        max_horizon=st.integers(min_value=1, max_value=6),
        min_cohort=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_decimal_amounts_and_whole_dollar_ages(self, series, base_ages, max_horizon, min_cohort):
        # ingest's form: Decimal amounts in cents and whole-year dollar ages.
        # Each dollar age is within 3 years of its series length, so a series
        # stops short of its dollar age, ends at it, or runs past it.
        dataset = [
            asset(
                f"A{k:02d}",
                [Decimal(cents).scaleb(-2) for cents in amounts],
                float(max(1, len(amounts) + shift)),
            )
            for k, (amounts, shift) in enumerate(series)
        ]
        self.assert_cells_match(dataset, base_ages, max_horizon, min_cohort)


class TestBuildSurface:
    def test_empty_dataset(self):
        surface = build_surface([], 1, max_horizon=4, min_cohort=5)
        assert surface.counts == {1: 0, 2: 0, 3: 0, 4: 0}
        assert surface.values == {}
        assert surface.cell_horizons() == []

    def test_identical_geometric_assets_collapse(self):
        dataset = [
            asset(f"A{k}", [10.0 * 0.8 ** i for i in range(5)], 5.0) for k in range(5)
        ]
        surface = build_surface(dataset, 1, max_horizon=4, min_cohort=5)
        for i in range(1, 5):
            for p in (10.0, 50.0, 90.0):
                assert surface.values[(i, p)] == pytest.approx(0.8 ** i, rel=1e-12)

    def test_min_cohort_gates_cells(self):
        # six assets reach horizon 1, only four reach horizon 2
        dataset = [asset(f"A{k}", [10, 5], 2.0) for k in range(2)] + [
            asset(f"B{k}", [10, 5, 4], 3.0) for k in range(4)
        ]
        surface = build_surface(dataset, 1, max_horizon=2, min_cohort=5)
        assert surface.counts == {1: 6, 2: 4}
        assert surface.cell_horizons() == [1]

    def test_counts_shrink_with_horizon(self):
        dataset = [
            asset(f"A{k}", [10.0] * (k + 2), float(k + 2)) for k in range(6)
        ]
        surface = build_surface(dataset, 1, max_horizon=6, min_cohort=1)
        sizes = [surface.counts[i] for i in range(1, 7)]
        assert sizes == sorted(sizes, reverse=True)

    def test_order_independence(self):
        dataset = [
            asset("A", [10, 5, 3], 3.0),
            asset("B", [8, 8, 8], 3.0),
            asset("C", [4, 6, 7], 3.0),
            asset("D", [5, 5, 5], 3.0),
            asset("E", [9, 3, 2], 3.0),
        ]
        forward = build_surface(dataset, 1, max_horizon=2, min_cohort=5)
        backward = build_surface(list(reversed(dataset)), 1, max_horizon=2, min_cohort=5)
        assert forward == backward


class TestSurfaceSerialization:
    def _surface(self):
        dataset = [
            asset(f"A{k}", [10.0, 7.0 + k, 5.0 + k], 3.0) for k in range(5)
        ]
        return build_surface(dataset, 1, max_horizon=3, min_cohort=5)

    def test_json_roundtrip_is_lossless(self):
        surface = self._surface()
        assert surface_from_json_dict(surface_to_json_dict(surface)) == surface

    def test_csv_roundtrip_at_display_precision(self, tmp_path):
        surface = self._surface()
        path = tmp_path / "surface.csv"
        write_table(path, SURFACE_HEADER, surface_csv_rows(surface), SURFACE_SPECS)
        loaded = parse_surface_csv(path)
        assert loaded.base_age == surface.base_age
        assert loaded.counts == {i: surface.counts[i] for i in surface.cell_horizons()}
        for key, value in loaded.values.items():
            assert value == pytest.approx(surface.values[key], abs=1e-6)

    def test_csv_rows_canonical_order(self):
        rows = surface_csv_rows(self._surface())
        keys = [(int(r[1]), float(r[2])) for r in rows]
        assert keys == sorted(keys)


class TestCohortShrinkageProperty:
    @given(
        ages=st.lists(st.integers(min_value=2, max_value=8), min_size=1, max_size=10),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_cohorts_never_grow_with_horizon(self, ages, seed):
        rng = random.Random(seed)
        dataset = [
            asset(
                f"A{idx:02d}",
                [rng.uniform(1.0, 100.0) for _ in range(age)],
                float(age),
            )
            for idx, age in enumerate(ages)
        ]
        surfaces = build_surfaces(dataset, (1, 2), max_horizon=7, min_cohort=1)
        for surface in surfaces.values():
            sizes = [surface.counts[i] for i in range(1, 8)]
            assert sizes == sorted(sizes, reverse=True)
