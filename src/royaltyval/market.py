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
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from ._io import check_id, named, parse_number, read_table, record_header, record_rows, write_csv
from .curves import build_surfaces
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
        if not (math.isfinite(self.ltm) and self.ltm > 0):
            raise ValueError(f"{named(self.asset_id)}: ltm must be > 0")
        if not (math.isfinite(self.ask) and self.ask > 0):
            raise ValueError(f"{named(self.asset_id)}: ask must be > 0")
        if self.best_bid is not None and not (
            math.isfinite(self.best_bid) and self.best_bid >= 0
        ):
            raise ValueError(f"{named(self.asset_id)}: best_bid must be >= 0")
        if self.duration_years < 1:
            raise ValueError(f"{named(self.asset_id)}: duration_years must be >= 1")
        if not (math.isfinite(self.dollar_age) and self.dollar_age > 0):
            raise ValueError(f"{named(self.asset_id)}: dollar_age must be > 0")
        for name, multiplier in zip(("best_bid", "ask"), implied_multipliers(self)):
            if multiplier is not None and not math.isfinite(multiplier):
                raise ValueError(f"{named(self.asset_id)}: {name}/ltm must be finite")


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
    dataset: Sequence[Asset], max_horizon: int, min_cohort: int
) -> dict[int, ShareSurface]:
    """Band-level surfaces that have cells, the surfaces compare reads, at
    base ages 1..n: an asset is observed for min(len(amounts), floor(dollar
    age)) years, and n is the most of those, as no older age has cells."""
    top_age = max((min(len(a.amounts), math.floor(a.dollar_age)) for a in dataset), default=0)
    surfaces = build_surfaces(
        dataset,
        range(1, top_age + 1),
        BAND_LEVELS,
        max_horizon=max_horizon,
        min_cohort=min_cohort,
    )
    return {t: s for t, s in surfaces.items() if s.depth}


def compare(
    quotes: Iterable[MarketQuote],
    surfaces_by_age: Mapping[int, ShareSurface],
    rate: float,
) -> tuple[list[ComparisonRow], list[ComparisonError]]:
    """Line each quote up against the model band at its age and duration.

    The quote's dollar age is rounded to an integer base age, then clamped
    into the range of ages that have surfaces; a hole inside that range or
    a surface without enough horizons yields a row-level error rather than
    failing the run. Each base age's table is built once, to its deepest
    cell, and its band columns zipped into rows: an (m10, m50, m90) tuple
    per duration, None where the surface lacks a band level. Columns are
    prefix sums, so row d equals that of a table built to d. Rows and
    errors come back sorted by asset_id.
    """
    available = sorted(surfaces_by_age)
    bands = {}
    for t, s in surfaces_by_age.items():
        if s.depth:
            table = multiplier_table(s, rate, s.depth)
            columns = dict(zip(table.levels, table.columns))
            missing = (None,) * s.depth
            bands[t] = list(zip(*(columns.get(p, missing) for p in BAND_LEVELS)))
    rows: list[ComparisonRow] = []
    errors: list[ComparisonError] = []
    for quote in sorted(quotes, key=lambda q: q.asset_id):
        if not available:
            errors.append(ComparisonError(quote.asset_id, "no surfaces available"))
            continue
        t = round_half_up(quote.dollar_age)
        # clamped with two compares: min(max(...)) costs more per quote
        t = available[0] if t < available[0] else available[-1] if t > available[-1] else t
        surface = surfaces_by_age.get(t)
        if surface is None:
            errors.append(ComparisonError(quote.asset_id, f"no surface for base age {t}"))
            continue
        d = quote.duration_years
        try:
            surface.require_depth(d)
            m10, m50, m90 = band = bands[t][d - 1]
            if None in band:
                raise MissingCellError(d, BAND_LEVELS[band.index(None)])
        except MissingCellError as exc:
            errors.append(ComparisonError(quote.asset_id, f"base age {t}: {exc}"))
            continue
        bid_mult, ask_mult = implied_multipliers(quote)
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
    if axis == "duration":
        key = lambda row: row.duration
    elif axis == "dollar_age_bucket":
        key = lambda row: round_half_up(row.dollar_age)
    else:
        raise ValueError(f"axis must be 'duration' or 'dollar_age_bucket', got {axis!r}")

    grouped: dict[int, list[ComparisonRow]] = {}
    for row in rows:
        grouped.setdefault(key(row), []).append(row)

    def mean(values: list[float]) -> float:
        # the plain sum where it is finite; scaled terms where it overflows
        total = sum(values)
        if math.isfinite(total):
            return total / len(values)
        return sum(v / len(values) for v in values)

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
COMPARISON_HEADER = record_header(ComparisonRow)
PLOT_HEADER = record_header(PlotGroup)


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
            quotes.append(
                MarketQuote(
                    asset_id=asset_id,
                    ltm=parse_number(ltm),
                    best_bid=parse_number(bid) if bid else None,
                    ask=parse_number(ask),
                    duration_years=parse_number(duration, int),
                    dollar_age=parse_number(age),
                )
            )
        return quotes


def write_quotes_csv(path: str | Path, quotes: Iterable[MarketQuote]) -> None:
    """Write quotes in asset_id order with full-precision prices (repr
    round-trips floats), a row at a time."""
    quotes = sorted(quotes, key=lambda q: q.asset_id)
    write_csv(path, QUOTES_HEADER, record_rows(MarketQuote, quotes, ""))


def comparison_csv_rows(rows: Iterable[ComparisonRow]) -> Iterator[tuple[str, ...]]:
    return record_rows(ComparisonRow, rows, ".6f")


def plot_csv_rows(groups: Iterable[PlotGroup]) -> Iterator[tuple[str, ...]]:
    return record_rows(PlotGroup, groups, ".6f")
