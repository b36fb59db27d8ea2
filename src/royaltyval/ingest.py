"""Cashflow ingestion: CSV parsing, annualization, and the acceptance filters.

An asset's cashflows are three ``Sequence[int]`` columns of equal length,
sorted by period start: ``starts`` (month index ``year * 12 + month - 1``),
``months`` (a period length that ``_PERIODS`` allows) and ``cents``. The
parsers give tuples of starts and months and an ``array('q')`` of cents,
which every amount below 10**16 dollars fits. Amounts travel as integer
cents through this module, so annual bucket sums conserve input revenue
exactly; each bucket becomes a ``Decimal`` once, and conversion to binary
floats happens downstream where shares are formed. Filtering applies a
fixed check order per asset and the first failing check wins, which keeps
rejection reports reproducible.
"""

from __future__ import annotations

import math
import re
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from functools import cache
from itertools import compress, islice
from operator import add, eq, lt, ne
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._io import (
    ParseError, check_id, csv_cell, listed, named, parse_number, read_table, shown, write_table,
)
from .model import DEFAULT_AGE_TOLERANCE, DEFAULT_ZERO_FLOOR, Asset

CASHFLOWS_HEADER = ("asset_id", "period_start", "period_months", "amount")
ASSETS_HEADER = ("asset_id", "dollar_age")
REPORT_HEADER = ("asset_id", "status", "reason")

MAX_AMOUNT_DIGITS = 16  # amounts below 10**16 dollars fit an array('q') of cents
_MAX_ID_CHARS = 256  # the longest id a canonical row holds

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones,
# which int() reads as their ASCII values.
_AMOUNT_RE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]{1,2}))?")
_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")

# period_months text -> months: the one rule of a record's period. _annual_sums'
# stepped bounds assume exactly these two periods, 1 and 3: each divides 12.
_PERIODS = {"1": 1, "3": 3}
_PERIOD_RULE = f"period_months must be {' or '.join(_PERIODS)}"

# Rows exactly as write_cashflows_csv writes them: an id of 1.._MAX_ID_CHARS
# ASCII characters from '!' to '~' other than '"' and ',', a YYYY-MM month,
# a period of _PERIODS, an amount of 1..MAX_AMOUNT_DIGITS digits with two
# fraction digits, and LF line ends. The bounds keep every field below the
# csv field limit and every amount below int()'s digit limit.
_CANONICAL_ROWS = re.compile(
    rf"(?:[!#-+\x2d-~]{{1,{_MAX_ID_CHARS}}},[0-9]{{4}}-(?:0[1-9]|1[0-2]),(?:{'|'.join(_PERIODS)}),"
    rf"[0-9]{{1,{MAX_AMOUNT_DIGITS}}}\.[0-9]{{2}}\n)*"
)
_CANONICAL_HEADER = ",".join(CASHFLOWS_HEADER) + "\n"
_MAX_CANONICAL_ROW = (
    _MAX_ID_CHARS + max(map(len, _PERIODS)) + MAX_AMOUNT_DIGITS + len(",YYYY-MM,,.00\n")
)
_BLOCK_CHARS = 1 << 16

# One asset's (starts, months, cents) columns.
Columns = tuple[Sequence[int], Sequence[int], Sequence[int]]


class RejectReason(str, Enum):
    """Why an asset was dropped; listed in the order checks run."""

    NEGATIVE_AMOUNT = "NEGATIVE_AMOUNT"
    GAP_IN_HISTORY = "GAP_IN_HISTORY"
    INSUFFICIENT_HISTORY = "INSUFFICIENT_HISTORY"
    ZERO_REVENUE_YEAR = "ZERO_REVENUE_YEAR"
    DOLLAR_AGE_MISMATCH = "DOLLAR_AGE_MISMATCH"


class AnnualizeError(ValueError):
    """Annualization failed; maps onto a rejection reason."""

    def __init__(self, reason: RejectReason, message: str):
        super().__init__(message)
        self.reason = reason


# ---------------------------------------------------------------------------
# Raw assets
# ---------------------------------------------------------------------------

def _month_text(month_index: int) -> str:
    """YYYY-MM form of a month index."""
    return f"{month_index // 12:04d}-{month_index % 12 + 1:02d}"


def _cents_text(cents: int) -> str:
    return ("%d.%02d" if cents >= 0 else "-%d.%02d") % divmod(abs(cents), 100)


def _check_periods(months: Sequence[int]) -> set[int]:
    """set(months); ValueError naming the first period, in order, that _PERIODS lacks."""
    periods = set(months)
    if bad := periods.difference(_PERIODS.values()):
        raise ValueError(f"{_PERIOD_RULE}, got {next(m for m in months if m in bad)}")
    return periods


@dataclass
class RawAsset:
    """An unfiltered asset: dollar age plus its cashflow columns sorted by
    period start. Cents may be negative here; validity is enforced at
    parse time for file input and during dataset construction for assets
    built in code. Columns are stored as given."""

    asset_id: str
    dollar_age: float
    starts: Sequence[int]
    months: Sequence[int]
    cents: Sequence[int]

    def __post_init__(self):
        starts, months = self.starts, self.months
        if not starts:
            raise ValueError(f"{named(self.asset_id)}: no cashflow records")
        if not len(starts) == len(months) == len(self.cents):
            raise ValueError(f"{named(self.asset_id)}: cashflow columns differ in length")
        if not self.dollar_age > 0:
            raise ValueError(f"{named(self.asset_id)}: dollar_age must be > 0")
        # one-month records overlap exactly where the starts fail to increase
        if _check_periods(months) == {1} and all(map(lt, starts, islice(starts, 1, None))):
            return
        later = starts[1:]
        overlap = next(compress(later, map(lt, later, map(add, starts, months))), None)
        if overlap is not None:
            raise ValueError(f"{named(self.asset_id)}: records overlap at {_month_text(overlap)}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_cashflows(path: str | Path) -> dict[str, Columns]:
    """Read cashflows.csv into asset_id -> (starts, months, cents) columns,
    each asset's sorted by start; assets in the order they first appear.

    A regular file in the row form write_cashflows_csv writes is checked
    and split a block of lines at a time. Any other file, including one
    holding a duplicate, is read again from its start row by row, as is a
    path that is not a regular file (a named pipe, /dev/stdin), which is
    read once. That gives the same columns or raises ParseError naming the
    file and its 1-based line for malformed rows, unknown frequencies,
    negative amounts, amounts of 10**16 dollars or more and duplicate
    (asset_id, period_start) pairs.
    """
    columns = _read_canonical(path)
    return _parse_rows(path) if columns is None else columns


def _read_canonical(path: str | Path) -> dict[str, Columns] | None:
    """The columns of a file in canonical row form, or None when any of it
    is not, or when the path is not a regular file and so cannot be read
    twice."""
    if not Path(path).is_file():
        return None
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as handle:
            return _canonical_columns(handle)
    except UnicodeDecodeError:
        return None


def _canonical_columns(handle) -> dict[str, Columns] | None:
    if handle.readline(len(_CANONICAL_HEADER)) != _CANONICAL_HEADER:
        return None
    grouped: dict[str, list] = {}
    month_index: dict[str, int] = {}
    tail = ""
    while chunk := handle.read(_BLOCK_CHARS):
        text = tail + chunk
        cut = text.rfind("\n") + 1
        tail = text[cut:]
        if len(tail) > _MAX_CANONICAL_ROW or not _add_block(text[:cut], grouped, month_index):
            return None
    if tail:
        return None
    return _sorted_columns(grouped)


def _add_block(block: str, grouped, month_index: dict[str, int]) -> bool:
    """Split a block of whole canonical lines into columns and append each
    run of one asset's rows to that asset's columns; False if the block is
    not canonical."""
    if not _CANONICAL_ROWS.fullmatch(block):
        return False
    if not block:
        return True
    fields = block.replace("\n", ",").split(",")
    fields.pop()  # after the last line end
    ids = fields[0::4]
    month_texts = fields[1::4]
    for text in set(month_texts).difference(month_index):
        month_index[text] = int(text[:4]) * 12 + int(text[5:]) - 1
    starts = list(map(month_index.__getitem__, month_texts))
    months = list(map(_PERIODS.__getitem__, fields[2::4]))
    cents = array("q", map(int, ",".join(fields[3::4]).replace(".", "").split(",")))
    n = len(ids)
    runs = [0, *compress(range(1, n), map(ne, ids, islice(ids, 1, None))), n]
    for lo, hi in zip(runs, islice(runs, 1, None)):
        columns = grouped.get(ids[lo])
        if columns is None:
            columns = grouped[ids[lo]] = [[], [], array("q")]
        columns[0] += starts[lo:hi]
        columns[1] += months[lo:hi]
        columns[2] += cents[lo:hi]
    return True


def _sorted_columns(grouped) -> dict[str, Columns] | None:
    """Each asset's columns sorted by start, starts and months as tuples
    and cents as an array('q'); None if an asset has two rows with one
    start. Empties `grouped` as it goes, so each asset's lists are freed
    once its columns are built."""
    result = {}
    for asset_id in list(grouped):
        starts, months, cents = grouped.pop(asset_id)
        if not all(map(lt, starts, islice(starts, 1, None))):
            order = sorted(range(len(starts)), key=starts.__getitem__)
            starts = [starts[k] for k in order]
            if any(map(eq, starts, islice(starts, 1, None))):
                return None
            months = [months[k] for k in order]
            cents = array("q", map(cents.__getitem__, order))
        result[asset_id] = (tuple(starts), tuple(months), cents)
    return result


def _parse_rows(path: str | Path) -> dict[str, Columns]:
    """parse_cashflows one row at a time: the reader of every form the
    canonical check turns down, and the source of every error text."""
    with read_table(path, CASHFLOWS_HEADER) as rows:
        grouped: dict[str, tuple[list[int], list[int], array]] = {}
        seen: set[tuple[str, int]] = set()
        # every asset repeats the same months: check each distinct text once
        months_by_text: dict[str, int] = {}
        for asset_id, start_text, months_text, amount_text in rows:
            check_id(asset_id)
            start = months_by_text.get(start_text)
            if start is None:
                m = _MONTH_RE.fullmatch(start_text)
                if not m:
                    raise ValueError(f"period_start must be YYYY-MM, got {shown(start_text)}")
                month = int(m.group(2))
                if not 1 <= month <= 12:
                    raise ValueError(f"month out of range: {month}")
                start = months_by_text[start_text] = int(m.group(1)) * 12 + month - 1
            months = _PERIODS.get(months_text)
            if months is None:
                raise ValueError(f"unknown frequency {shown(months_text)} ({_PERIOD_RULE})")
            m = _AMOUNT_RE.fullmatch(amount_text)
            if not m:
                raise ValueError(
                    f"bad amount {shown(amount_text)} (decimal with <= 2 fraction digits)"
                )
            sign, whole, frac = m.groups()
            whole = whole.lstrip("0")
            if len(whole) > MAX_AMOUNT_DIGITS:
                raise ValueError(
                    f"bad amount of {len(amount_text)} characters (too many digits to read)"
                )
            cents = int(whole + (frac or "").ljust(2, "0"))
            if sign and cents:
                raise ValueError(f"NEGATIVE_AMOUNT: amount {shown(amount_text)} is negative")
            key = (asset_id, start)
            if key in seen:
                raise ValueError(f"duplicate record for {named(asset_id)} at {start_text}")
            seen.add(key)
            columns = grouped.get(asset_id)
            if columns is None:
                columns = grouped[asset_id] = ([], [], array("q"))
            columns[0].append(start)
            columns[1].append(months)
            columns[2].append(cents)
        return _sorted_columns(grouped)


def parse_assets(path: str | Path) -> dict[str, float]:
    """Read assets.csv into an asset_id -> dollar_age mapping."""
    with read_table(path, ASSETS_HEADER) as rows:
        ages: dict[str, float] = {}
        for asset_id, age_text in rows:
            check_id(asset_id)
            if asset_id in ages:
                raise ValueError(f"duplicate asset {named(asset_id)}")
            try:
                age = parse_number(age_text)
            except ValueError:
                raise ValueError(f"bad dollar_age {shown(age_text)}") from None
            if not (math.isfinite(age) and age > 0):
                raise ValueError(
                    f"dollar_age must be a positive finite number, got {shown(age_text)}"
                )
            ages[asset_id] = age
        return ages


def assemble_raw_assets(
    cashflows: Mapping[str, Columns], dollar_ages: Mapping[str, float]
) -> list[RawAsset]:
    """Join parsed cashflow columns with dollar ages into RawAssets, sorted
    by id.

    Every cashflow must reference a known asset and every asset must have
    at least one cashflow; anything else is a ParseError, since the two
    files are inconsistent rather than merely containing a bad asset.
    """
    unknown = sorted(set(cashflows) - set(dollar_ages))
    if unknown:
        raise ParseError(f"cashflows reference unknown assets: {listed(unknown, named)}")
    missing = sorted(set(dollar_ages) - set(cashflows))
    if missing:
        raise ParseError(f"assets have no cashflows: {listed(missing, named)}")

    assets = []
    for asset_id in sorted(cashflows):
        try:
            assets.append(RawAsset(asset_id, dollar_ages[asset_id], *cashflows[asset_id]))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return assets


# ---------------------------------------------------------------------------
# Annualization and filters
# ---------------------------------------------------------------------------

def _covered_months(starts: Sequence[int], months: Sequence[int]) -> int:
    """Months from the first period start to the end of the last period, for
    columns sorted by start without overlaps, as a RawAsset holds them."""
    return starts[-1] + months[-1] - starts[0]


def _raise_gap(asset_id: str, starts: Sequence[int], months: Sequence[int]) -> None:
    """Raise GAP_IN_HISTORY naming the first start that does not follow its
    predecessor's period, if one does not."""
    later = starts[1:]
    gap = next(compress(later, map(ne, later, map(add, starts, months))), None)
    if gap is not None:
        raise AnnualizeError(
            RejectReason.GAP_IN_HISTORY,
            f"{named(asset_id)}: coverage gap before {_month_text(gap)}",
        )


def annualize(
    asset_id: str, starts: Sequence[int], months: Sequence[int], cents: Sequence[int]
) -> tuple[Decimal, ...]:
    """Sum gap-free monthly/quarterly columns, sorted by start, into whole
    song-age years.

    Buckets run forward from the first covered month: bucket k holds
    coverage months 12(k-1)+1 .. 12k, so bucket index equals song-age
    year. Records are attributed to the bucket containing their first
    covered month. A trailing bucket with fewer than 12 covered months
    is dropped. Buckets are summed in integer cents, so each equals its
    records' total exactly.
    """
    if not starts:
        raise ValueError("no records")
    _check_periods(months)  # the periods _annual_sums steps through
    _raise_gap(asset_id, starts, months)
    return _annual_sums(asset_id, starts, months, cents)


def _annual_sums(
    asset_id: str, starts: Sequence[int], months: Sequence[int], cents: Sequence[int]
) -> tuple[Decimal, ...]:
    """annualize for non-empty columns sorted by start without overlaps, as
    a RawAsset holds them. Those are gap-free exactly when their span equals
    the sum of their periods, so the columns are walked only to name a gap."""
    total_months = _covered_months(starts, months)
    if total_months != sum(months):
        _raise_gap(asset_id, starts, months)
    complete_years = total_months // 12
    if complete_years < 1:
        raise AnnualizeError(
            RejectReason.INSUFFICIENT_HISTORY,
            f"{named(asset_id)}: only {total_months} months of coverage",
        )
    # periods are 1 or 3 (_PERIODS): the first is the least or the greatest, so the
    # span (their sum) is months[0] * len(months) only when all equal the first
    if total_months == months[0] * len(months):
        step = 12 // months[0]
        bounds = range(0, step * complete_years + 1, step)
    else:
        bounds = [bisect_left(starts, starts[0] + 12 * k) for k in range(complete_years + 1)]
    return tuple(Decimal(sum(cents[lo:hi])).scaleb(-2) for lo, hi in zip(bounds, bounds[1:]))


def filter_dollar_age(
    dollar_age: float, oldest_age: float, tolerance: float = DEFAULT_AGE_TOLERANCE
) -> bool:
    """Accept when dollar age sits within the relative tolerance of the
    oldest-cashflow age; boundary equality accepts."""
    if not oldest_age > 0:
        raise ValueError("oldest_age must be > 0")
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    return abs(dollar_age - oldest_age) <= tolerance * oldest_age


# ---------------------------------------------------------------------------
# Dataset construction and reporting
# ---------------------------------------------------------------------------

@dataclass
class FilterReport:
    """Per-asset outcomes, one entry per input asset in asset-id order:
    the rejection reason, or None for an accepted asset."""

    reasons: Mapping[str, RejectReason | None]

    @property
    def total(self) -> int:
        return len(self.reasons)

    @property
    def accepted_count(self) -> int:
        return sum(1 for reason in self.reasons.values() if reason is None)

    @property
    def rejected_count(self) -> int:
        return self.total - self.accepted_count

    def reason_counts(self) -> dict[RejectReason, int]:
        counts = Counter(self.reasons.values())
        return {reason: counts.get(reason, 0) for reason in RejectReason}

    def summary(self) -> dict:
        """JSON-ready summary with per-reason counts."""
        return {
            "total": self.total,
            "accepted": self.accepted_count,
            "rejected": self.rejected_count,
            "reasons": {r.value: n for r, n in self.reason_counts().items()},
        }


def build_dataset(
    raw_assets: Iterable[RawAsset],
    *,
    zero_floor: float = DEFAULT_ZERO_FLOOR,
    dollar_age_tolerance: float = DEFAULT_AGE_TOLERANCE,
) -> tuple[list[Asset], FilterReport]:
    """Run the full per-asset filter chain over raw assets.

    Checks run in a fixed order and the first failure decides the
    rejection reason: negative amounts, coverage gaps, insufficient
    history, zero-revenue years, dollar-age mismatch. Nothing raises per
    asset; every input lands in the report exactly once. Output is
    sorted by asset_id and so is independent of input order.
    """
    if zero_floor < 0:
        raise ValueError("zero_floor must be >= 0")
    if dollar_age_tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    ordered = sorted(raw_assets, key=lambda a: a.asset_id)
    if len({a.asset_id for a in ordered}) != len(ordered):
        raise ValueError("duplicate asset_id in raw assets")

    accepted: list[Asset] = []
    reasons: dict[str, RejectReason | None] = {}
    for raw in ordered:
        amounts, reason = _apply_filters(raw, zero_floor, dollar_age_tolerance)
        if reason is None:
            accepted.append(Asset(raw.asset_id, raw.dollar_age, amounts))
        reasons[raw.asset_id] = reason
    return accepted, FilterReport(reasons)


def _apply_filters(
    raw: RawAsset, zero_floor: float, tolerance: float
) -> tuple[tuple[Decimal, ...] | None, RejectReason | None]:
    if min(raw.cents) < 0:
        return None, RejectReason.NEGATIVE_AMOUNT
    try:
        amounts = _annual_sums(raw.asset_id, raw.starts, raw.months, raw.cents)
    except AnnualizeError as exc:
        return None, exc.reason
    if not min(amounts) > zero_floor:  # at or below the floor, or any year for a NaN floor
        return None, RejectReason.ZERO_REVENUE_YEAR
    oldest = _covered_months(raw.starts, raw.months) / 12.0
    if not filter_dollar_age(raw.dollar_age, oldest, tolerance):
        return None, RejectReason.DOLLAR_AGE_MISMATCH
    return amounts, None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_cashflows_csv(path: str | Path, raw_assets: Iterable[RawAsset]) -> None:
    """One row per record, assets in id order: the canonical form that
    parse_cashflows reads a block at a time whenever the ids need no
    quoting. Each asset's rows are one string: its id cell joined between
    the row templates of its column layout, (starts, months), and filled by
    one % with its amount texts. The layout's templates are gathered again
    only when it differs from the asset before's, each formatted once per
    (start, period) in the file; an amount text is formatted once per
    distinct amount of the asset, so that cache is freed with the asset."""

    @cache
    def middle(start: int, months: int) -> str:
        """The template of a row after its id: ``,YYYY-MM,<period>,%s`` and the line end."""
        return f",{_month_text(start)},{months},%s\n"

    layout = pieces = None
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(_CANONICAL_HEADER)
        for asset in sorted(raw_assets, key=lambda a: a.asset_id):
            if layout != (asset.starts, asset.months):
                layout = (asset.starts, asset.months)
                pieces = tuple(map(middle, asset.starts, asset.months))
            amount_text = {c: _cents_text(c) for c in set(asset.cents)}
            cell = csv_cell(asset.asset_id).replace("%", "%%")
            rows = (cell + cell.join(pieces)) % tuple(map(amount_text.__getitem__, asset.cents))
            handle.write(rows)


def write_assets_csv(path: str | Path, raw_assets: Iterable[RawAsset]) -> None:
    rows = ((a.asset_id, a.dollar_age) for a in sorted(raw_assets, key=lambda a: a.asset_id))
    write_table(path, ASSETS_HEADER, rows, ("", ".6f"))


def write_filter_report_csv(path: str | Path, report: FilterReport) -> None:
    rows = (
        (asset_id, "accepted", "") if reason is None else (asset_id, "rejected", reason.value)
        for asset_id, reason in report.reasons.items()
    )
    write_table(path, REPORT_HEADER, rows, ("", "", ""))
