"""Market quotes: implied multipliers, quote filters, model-band comparison.

Quotes carry raw bid/ask prices plus LTM revenue; dividing either price by
LTM gives the implied multiplier the market is paying. Comparison rows put
those implied multipliers next to the model's m10/m50/m90 band for the
quote's age and contract duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import add, attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ._io import (
    check_id, named, parse_number, plain_number_text, read_table, record_header, record_rows,
    write_records,
)
from .curves import build_surfaces, observed_years
from .model import (
    BAND_LEVELS, DEFAULT_MAX_DURATION, DEFAULT_MIN_BID_ASK_RATIO, Asset, MissingCellError,
    ShareSurface, multiplier_table,
)


class QuoteRejectReason(str, Enum):
    DURATION_TOO_LONG = "DURATION_TOO_LONG"
    BID_TOO_LOW = "BID_TOO_LOW"


@dataclass
class MarketQuote:
    """One marketplace listing: seller's ask, best bid if any, and LTM."""

    asset_id: str
    ltm: float
    best_bid: float | None
    ask: float
    duration_years: int
    dollar_age: float

    def __post_init__(self):
        ltm, bid, ask = self.ltm, self.best_bid, self.ask
        if not 0 < ltm < math.inf:
            raise ValueError(f"{named(self.asset_id)}: ltm must be > 0")
        if not 0 < ask < math.inf:
            raise ValueError(f"{named(self.asset_id)}: ask must be > 0")
        if bid is not None and not 0 <= bid < math.inf:
            raise ValueError(f"{named(self.asset_id)}: best_bid must be >= 0")
        if self.duration_years < 1:
            raise ValueError(f"{named(self.asset_id)}: duration_years must be >= 1")
        if not 0 < self.dollar_age < math.inf:
            raise ValueError(f"{named(self.asset_id)}: dollar_age must be > 0")
        # the implied multipliers, each finite and >= 0 unless the division overflows
        if bid is not None and not bid / ltm < math.inf:
            raise ValueError(f"{named(self.asset_id)}: best_bid/ltm must be finite")
        if not ask / ltm < math.inf:
            raise ValueError(f"{named(self.asset_id)}: ask/ltm must be finite")


def implied_multipliers(quote: MarketQuote) -> tuple[float | None, float]:
    """(bid multiplier if a bid exists, ask multiplier), both price / LTM."""
    bid = None if quote.best_bid is None else quote.best_bid / quote.ltm
    return bid, quote.ask / quote.ltm


def filter_quotes(
    quotes: Iterable[MarketQuote],
    max_duration: int = DEFAULT_MAX_DURATION,
    min_bid_ask_ratio: float = DEFAULT_MIN_BID_ASK_RATIO,
) -> tuple[list[MarketQuote], list[tuple[MarketQuote, QuoteRejectReason]]]:
    """Drop over-long contracts and implausibly low bids.

    Duration is checked first. A quote with no bid passes the bid check;
    a bid exactly at the ratio boundary is kept.
    """
    if max_duration < 1:
        raise ValueError("max_duration must be >= 1")
    if not 0.0 <= min_bid_ask_ratio <= 1.0:
        raise ValueError("min_bid_ask_ratio must be in [0, 1]")
    accepted: list[MarketQuote] = []
    rejected: list[tuple[MarketQuote, QuoteRejectReason]] = []
    for quote in quotes:
        if quote.duration_years > max_duration:
            rejected.append((quote, QuoteRejectReason.DURATION_TOO_LONG))
            continue
        bid_mult, ask_mult = implied_multipliers(quote)
        if bid_mult is not None and bid_mult < min_bid_ask_ratio * ask_mult:
            rejected.append((quote, QuoteRejectReason.BID_TOO_LOW))
            continue
        accepted.append(quote)
    return accepted, rejected


def round_half_up(x: float) -> int:
    """Round a positive real to the nearest integer, ties upward."""
    if x < 0:
        raise ValueError("round_half_up expects a non-negative value")
    return math.floor(x + 0.5)


@dataclass
class ComparisonRow:
    """A quote's implied multipliers next to the model band for its terms."""

    asset_id: str
    duration: int
    dollar_age: float
    bid_multiplier: float | None
    ask_multiplier: float
    model_m10: float
    model_m50: float
    model_m90: float
    bid_gap_to_m10: float | None
    ask_gap_to_m50: float


@dataclass
class ComparisonError:
    """Row-level failure; the run carries on without this quote."""

    asset_id: str
    error: str


def band_surfaces(
    dataset: Sequence[Asset], dollar_ages: Iterable[float], max_horizon: int, min_cohort: int
) -> dict[int, ShareSurface]:
    """Band-level surfaces at the base ages compare reads for quotes of
    these dollar ages: each rounded half up, then clamped into 1..top.

    Age t has cells when min_cohort assets have curves.observed_years above
    t, so those ages are 1..top, top the min_cohort-th largest of them less
    one, and every surface returned has depth >= 1.
    """
    observed = sorted(map(observed_years, dataset))
    top = observed[-min_cohort] - 1 if 0 < min_cohort <= len(observed) else 0
    ages = {min(max(t, 1), top) for t in set(map(round_half_up, dollar_ages))} if top > 0 else ()
    return build_surfaces(dataset, ages, BAND_LEVELS, max_horizon, min_cohort)


def compare(
    quotes: Iterable[MarketQuote],
    surfaces_by_age: Mapping[int, ShareSurface],
    rate: float,
) -> tuple[list[ComparisonRow], list[ComparisonError]]:
    """Line each quote up against the model band at its age and duration.

    The quote's dollar age is rounded half up to a base age, as in
    band_surfaces, then clamped into the range of ages that have surfaces;
    a hole inside that range or a surface without enough horizons yields a
    row-level error rather than failing the run. Each base age's table is
    built once, to its deepest cell, and its band columns zipped into rows:
    an (m10, m50, m90) tuple per duration, None where the surface lacks a
    band level. Columns are prefix sums, so row d equals that of a table
    built to d. Rows and errors come back sorted by asset_id.
    """
    available = sorted(surfaces_by_age)
    bands = {}
    for t, s in surfaces_by_age.items():
        if s.depth:
            table = multiplier_table(s, rate, s.depth)
            columns = dict(zip(table.levels, table.columns))
            missing = (None,) * s.depth
            bands[t] = list(zip(*(columns.get(p, missing) for p in BAND_LEVELS)))
    quotes = sorted(quotes, key=attrgetter("asset_id"))
    if not available:
        return [], [ComparisonError(q.asset_id, "no surfaces available") for q in quotes]
    low, high = available[0], available[-1]
    rows: list[ComparisonRow] = []
    errors: list[ComparisonError] = []
    for quote in quotes:
        t = round_half_up(quote.dollar_age)  # the rounding band_surfaces builds ages by
        # clamped with two compares: min(max(...)) costs more per quote
        t = low if t < low else high if t > high else t
        d = quote.duration_years
        column = bands.get(t)
        band = column[d - 1] if column is not None and d <= len(column) else None
        if band is None or None in band:
            # worded by the surface: no surface, too few horizons or a missing level
            surface = surfaces_by_age.get(t)
            if surface is None:
                errors.append(ComparisonError(quote.asset_id, f"no surface for base age {t}"))
                continue
            try:
                surface.require_depth(d)
                raise MissingCellError(d, BAND_LEVELS[band.index(None)])
            except MissingCellError as exc:
                errors.append(ComparisonError(quote.asset_id, f"base age {t}: {exc}"))
                continue
        m10, m50, m90 = band
        ltm, bid = quote.ltm, quote.best_bid
        bid_mult, ask_mult = None if bid is None else bid / ltm, quote.ask / ltm
        # positional, in field order: keywords cost this loop about a fifth
        rows.append(
            ComparisonRow(
                quote.asset_id, d, quote.dollar_age, bid_mult, ask_mult, m10, m50, m90,
                None if bid_mult is None else bid_mult - m10, ask_mult - m50,
            )
        )
    return rows, errors


@dataclass
class PlotGroup:
    """Means of the comparison rows that share one axis value."""

    axis_value: int
    n: int
    mean_bid_mult: float | None
    mean_ask_mult: float
    mean_m10: float
    mean_m50: float
    mean_m90: float


def aggregate_plot_data(
    rows: Sequence[ComparisonRow], axis: str = "duration"
) -> list[PlotGroup]:
    """Group comparison rows for plotting, by duration or dollar-age bucket.

    Bid means cover only rows that have bids; a group with no bids gets
    None. Groups come back sorted by axis value; empty input yields an
    empty table.
    """
    # one grouping pass per axis: a key function would cost a call per row
    grouped: dict[int, list[ComparisonRow]] = {}
    if axis == "duration":
        for row in rows:
            grouped.setdefault(row.duration, []).append(row)
    elif axis == "dollar_age_bucket":
        for row in rows:
            grouped.setdefault(round_half_up(row.dollar_age), []).append(row)
    else:
        raise ValueError(f"axis must be 'duration' or 'dollar_age_bucket', got {axis!r}")

    def mean(values: list[float]) -> float:
        # summed left to right, as sum() did before 3.12; scaled terms where it overflows
        total = reduce(add, values, 0.0)
        if math.isfinite(total):
            return total / len(values)
        return reduce(add, (v / len(values) for v in values), 0.0)

    table = []
    for value in sorted(grouped):
        members = grouped[value]
        bids = [r.bid_multiplier for r in members if r.bid_multiplier is not None]
        table.append(
            PlotGroup(
                axis_value=value,
                n=len(members),
                mean_bid_mult=mean(bids) if bids else None,
                mean_ask_mult=mean([r.ask_multiplier for r in members]),
                mean_m10=mean([r.model_m10 for r in members]),
                mean_m50=mean([r.model_m50 for r in members]),
                mean_m90=mean([r.model_m90 for r in members]),
            )
        )
    return table


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

QUOTES_HEADER = record_header(MarketQuote)


def parse_quotes(path: str | Path) -> list[MarketQuote]:
    """Read quotes.csv; an empty best_bid field means no bid was posted.
    Each asset_id names one quote."""
    with read_table(path, QUOTES_HEADER) as rows:
        quotes = []
        seen: set[str] = set()
        for asset_id, ltm, bid, ask, duration, age in rows:
            check_id(asset_id)
            if asset_id in seen:
                raise ValueError(f"duplicate quote {named(asset_id)}")
            seen.add(asset_id)
            # one check of the row's number texts, then plain conversion; a
            # row that fails either is read again, field by field, so that
            # parse_number words the error
            try:
                if not plain_number_text(ltm + bid + ask + duration + age):
                    raise ValueError
                numbers = (
                    float(ltm), float(bid) if bid else None, float(ask), int(duration), float(age)
                )
            except ValueError:
                numbers = (
                    parse_number(ltm), parse_number(bid) if bid else None, parse_number(ask),
                    parse_number(duration, int), parse_number(age),
                )
            quotes.append(MarketQuote(asset_id, *numbers))
        return quotes


def write_quotes_csv(path: str | Path, quotes: Iterable[MarketQuote]) -> None:
    """Write quotes in asset_id order with full-precision prices (repr
    round-trips floats), a row at a time."""
    write_records(path, MarketQuote, sorted(quotes, key=attrgetter("asset_id")), "")


def comparison_csv_rows(rows: Iterable[ComparisonRow]) -> Iterator[tuple[str, ...]]:
    return record_rows(ComparisonRow, rows, ".6f")


def plot_csv_rows(groups: Iterable[PlotGroup]) -> Iterator[tuple[str, ...]]:
    return record_rows(PlotGroup, groups, ".6f")
