"""Core valuation arithmetic: revenue shares, discounting, multiplier bands.

A multiplier is a dimensionless price quoted per unit of last-twelve-months
revenue; a price is multiplier times LTM. Amounts are plain decimal currency
values, single currency assumed. Records check their values when they are
constructed, and nothing here changes them afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import accumulate
from typing import Mapping, Sequence, Union

from ._io import named

Amount = Union[Decimal, float, int]

BAND_LEVELS = (10.0, 50.0, 90.0)  # the m10/m50/m90 band quotes are read against

DEFAULT_RATE = 0.10
DEFAULT_MAX_DURATION = 10  # also the deepest horizon a surface is built to
# The defaults of the other settings, here so that the CLI's Config reads
# them without importing the module that uses each.
DEFAULT_AGE_TOLERANCE = 0.30
DEFAULT_ZERO_FLOOR = 0.0
DEFAULT_MIN_COHORT = 5
DEFAULT_MIN_BID_ASK_RATIO = 0.5
# Copyright runs for the author's life plus 70 years, so no contract is longer
# and no song older. Capping max_duration bounds the per-horizon cohort lists;
# capping a synthetic age_years keeps every period_start in four-digit years.
MAX_YEARS = 1000


class MissingCellError(ValueError):
    """A multiplier computation needs a (horizon, level) cell the surface lacks."""

    def __init__(self, horizon: int, level: float):
        super().__init__(
            f"surface has no cell at horizon={horizon}, level={level:g}"
        )
        self.horizon = horizon
        self.level = level


def check_levels(levels: Sequence[float]) -> None:
    """Raise ValueError for the first percentile level not strictly between 0 and 100."""
    for p in levels:
        if not 0.0 < p < 100.0:
            raise ValueError(f"percentile level {p!r} outside (0, 100)")


def _is_finite(x: Amount) -> bool:
    if isinstance(x, Decimal):
        return x.is_finite()
    return math.isfinite(x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass
class Asset:
    """An accepted catalog item: identifier, dollar age, annual revenue.

    ``amounts[k-1]`` is the revenue in the asset's k-th year of life, so
    ``amounts[-1]`` is its most recent complete year (the LTM figure).
    Ingestion produces exact Decimal amounts; synthetic or test data may
    use floats. Accepted assets carry strictly positive amounts
    (zero-revenue years knock the whole asset out upstream).
    """

    asset_id: str
    dollar_age: float
    amounts: tuple[Amount, ...]

    def __post_init__(self):
        if not math.isfinite(self.dollar_age) or self.dollar_age <= 0:
            raise ValueError(f"{named(self.asset_id)}: dollar_age must be > 0")
        if len(self.amounts) < 1:
            raise ValueError(f"{named(self.asset_id)}: annual series must be non-empty")
        for k, a in enumerate(self.amounts, start=1):
            if not _is_finite(a):
                raise ValueError(f"{named(self.asset_id)}: non-finite amount in year {k}")


@dataclass
class ShareSurface:
    """Percentile revenue-share curves for one base age.

    ``values`` maps (horizon, level) to the share of base-year revenue
    observed that many years past the base age. ``counts`` records cohort
    size for every horizon from 1 up to the maximum requested, including
    horizons too thin to receive cells. Cells form a rectangle: horizons
    1..depth times every level, with ``depth``, which construction sets,
    at most the last counted horizon. Shares are rate-independent.
    """

    base_age: int
    levels: tuple[float, ...]
    values: Mapping[tuple[int, float], float]
    counts: Mapping[int, int]

    def __post_init__(self):
        if self.base_age < 1:
            raise ValueError("base_age must be >= 1")
        if not self.levels:
            raise ValueError("at least one percentile level required")
        check_levels(self.levels)
        if list(self.levels) != sorted(set(self.levels)):
            raise ValueError("levels must be strictly increasing")

        horizons = sorted(self.counts)
        if horizons != list(range(1, len(horizons) + 1)):
            raise ValueError("counts must cover horizons 1..H contiguously")
        prev = None
        for i in horizons:
            n = self.counts[i]
            if n < 0:
                raise ValueError(f"negative cohort count at horizon {i}")
            if prev is not None and n > prev:
                raise ValueError(f"cohort count increases at horizon {i}")
            prev = n

        depth = len(self.values) // len(self.levels)
        if depth > len(horizons) or self.values.keys() != {
            (i, p) for i in range(1, depth + 1) for p in self.levels
        }:
            raise ValueError(
                f"cells must fill horizons 1..K at every level, for some K <= {len(horizons)}"
            )
        self.depth = depth
        for (i, p), s in self.values.items():
            if not math.isfinite(s) or s < 0.0:
                raise ValueError(f"share at ({i}, {p:g}) must be finite and >= 0")
        top = 0.0
        for i in self.cell_horizons():
            ordered = [self.values[(i, p)] for p in self.levels]
            if any(a > b for a, b in zip(ordered, ordered[1:])):
                raise ValueError(f"shares at horizon {i} not ordered by level")
            top += ordered[-1]
        # no level sums higher, and discount factors are <= 1: multipliers stay finite
        if not math.isfinite(top):
            raise ValueError(f"shares at level {self.levels[-1]:g} sum past the float range")

    def cell_horizons(self) -> list[int]:
        """Horizons that received cells, ascending: always 1..depth."""
        return list(range(1, self.depth + 1))

    def require_depth(self, duration: int) -> None:
        """Raise MissingCellError for the first cell a table to `duration`
        lacks. Cells form a rectangle, so that is (depth+1, lowest level)."""
        if duration > self.depth:
            raise MissingCellError(self.depth + 1, self.levels[0])


@dataclass
class MultiplierTable:
    """Multiplier bands at a fixed discount rate, one column per level:
    ``columns[k][d-1]`` is the duration-d multiplier at ``levels[k]``.

    As multiplier_table builds them, values are finite and >= 0 and never
    decrease down a column or across a row: shares are finite, >= 0 and
    ordered by level with a finite top-level sum, discount factors lie in
    [0, 1], and IEEE rounding is monotone.
    """

    base_age: int
    discount_rate: float
    levels: tuple[float, ...]
    columns: tuple[tuple[float, ...], ...]

    def entry(self, duration: int, level: float) -> float:
        level = float(level)
        if level in self.levels and 1 <= duration <= len(self.columns[0]):
            return self.columns[self.levels.index(level)][duration - 1]
        raise MissingCellError(duration, level)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def discount_factor(rate: float, year: int) -> float:
    """Present-value factor 1/(1+rate)^year for a cashflow `year` years out;
    0.0 where (1+rate)^year is past the float range."""
    if rate < 0:
        raise ValueError("rate must be >= 0")
    if year < 1:
        raise ValueError("year must be >= 1")
    try:
        return 1.0 / (1.0 + rate) ** year
    except OverflowError:
        return 0.0


def multiplier_from_shares(shares: Sequence[Amount], rate: float) -> float:
    """Discounted sum of year-1..d revenue shares: the duration-d multiplier.

    Terms are accumulated in ascending year order with plain float addition,
    which keeps results bit-for-bit reproducible across runs.
    """
    if len(shares) < 1:
        raise ValueError("at least one share required")
    total = 0.0
    for year, raw in enumerate(shares, start=1):
        s = float(raw)
        if not math.isfinite(s) or s < 0.0:
            raise ValueError(f"share for year {year} must be finite and >= 0")
        total += s * discount_factor(rate, year)
    return total


def price(multiplier: float, ltm: float) -> float:
    """Price implied by a multiplier and a positive LTM revenue figure."""
    if not math.isfinite(multiplier) or multiplier < 0.0:
        raise ValueError("multiplier must be finite and >= 0")
    ltm = float(ltm)
    if not math.isfinite(ltm) or ltm <= 0.0:
        raise ValueError("ltm must be > 0")
    value = multiplier * ltm
    if not math.isfinite(value):
        raise ValueError(f"price of multiplier {multiplier:g} times ltm {ltm:g} is not finite")
    return value


def multiplier_table(
    surface: ShareSurface, rate: float, max_duration: int
) -> MultiplierTable:
    """Build the multiplier band table for durations 1..max_duration.

    Every level's column is the running prefix sum of its discounted
    shares, so entry(d) is bit-identical to multiplier_from_shares applied
    to the first d shares. Raises MissingCellError naming the first
    (horizon, level) cell the surface lacks (see ShareSurface.require_depth).
    """
    if max_duration < 1:
        raise ValueError("max_duration must be >= 1")
    surface.require_depth(max_duration)

    factors = [discount_factor(rate, d) for d in range(1, max_duration + 1)]
    columns = []
    for p in surface.levels:
        terms = (surface.values[(d, p)] * f for d, f in enumerate(factors, start=1))
        # summed from 0.0, as multiplier_from_shares does: a -0.0 term gives 0.0
        columns.append(tuple(accumulate(terms, initial=0.0))[1:])
    return MultiplierTable(surface.base_age, rate, surface.levels, tuple(columns))
