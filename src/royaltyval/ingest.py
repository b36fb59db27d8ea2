"""Cashflow ingestion: CSV parsing, annualization, and the acceptance filters.

A cashflow record is a plain tuple of integers,
``(month_index, period_months, cents)``, where ``month_index`` is
``year * 12 + month - 1``. Amounts travel as integer cents through this
module, so annual bucket sums conserve input revenue exactly; each bucket
becomes a ``Decimal`` once, and conversion to binary floats happens
downstream where shares are formed. Filtering applies a fixed check order
per asset and the first failing check wins, which keeps rejection reports
reproducible.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ._io import ParseError, Source, parse_number, read_table, write_csv
from .model import Amount, Asset

CASHFLOWS_HEADER = ("asset_id", "period_start", "period_months", "amount")
ASSETS_HEADER = ("asset_id", "dollar_age")
REPORT_HEADER = ("asset_id", "status", "reason")

DEFAULT_ZERO_FLOOR = 0.0
DEFAULT_AGE_TOLERANCE = 0.30

# [0-9], not \d: \d also matches non-ASCII digits such as Arabic-Indic ones,
# which int() reads as their ASCII values.
_AMOUNT_RE = re.compile(r"(-?)([0-9]+)(?:\.([0-9]{1,2}))?")
_MONTH_RE = re.compile(r"([0-9]{4})-([0-9]{2})")

# One cashflow: (month_index, period_months, cents).
Record = tuple[int, int, int]

__all__ = [
    "ASSETS_HEADER",
    "CASHFLOWS_HEADER",
    "AnnualizeError",
    "FilterReport",
    "ParseError",
    "RawAsset",
    "Record",
    "RejectReason",
    "annualize",
    "assemble_raw_assets",
    "build_dataset",
    "filter_dollar_age",
    "filter_zero_years",
    "oldest_cashflow_age",
    "parse_assets",
    "parse_cashflows",
    "parse_number",
    "write_assets_csv",
    "write_cashflows_csv",
    "write_filter_report_csv",
]


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
# Raw records
# ---------------------------------------------------------------------------

def _month_text(month_index: int) -> str:
    """YYYY-MM form of a month index."""
    return f"{month_index // 12:04d}-{month_index % 12 + 1:02d}"


def _cents_text(cents: int) -> str:
    whole, frac = divmod(abs(cents), 100)
    return f"{'-' if cents < 0 else ''}{whole}.{frac:02d}"


@dataclass(frozen=True)
class RawAsset:
    """An unfiltered asset: dollar age plus its cashflow records sorted by
    month. Cents may be negative here; validity is enforced at parse time
    for file input and during dataset construction for records built in
    code."""

    asset_id: str
    dollar_age: float
    records: tuple[Record, ...]

    def __post_init__(self):
        if not self.records:
            raise ValueError(f"{self.asset_id}: no cashflow records")
        if not self.dollar_age > 0:
            raise ValueError(f"{self.asset_id}: dollar_age must be > 0")
        end = None
        for start, months, _ in self.records:
            if months != 1 and months != 3:
                raise ValueError(f"period_months must be 1 or 3, got {months}")
            if end is not None and start < end:
                raise ValueError(f"{self.asset_id}: records overlap at {_month_text(start)}")
            end = start + months


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse_cashflows(source: Source) -> list[tuple[str, int, int, int]]:
    """Read cashflows.csv into (asset_id, month_index, period_months, cents)
    tuples; ordering preserved as read.

    Raises ParseError with a 1-based line number for malformed rows,
    unknown frequencies, negative amounts, and duplicate
    (asset_id, period_start) pairs.
    """
    with read_table(source, CASHFLOWS_HEADER) as (path, rows):
        records: list[tuple[str, int, int, int]] = []
        seen: set[tuple[str, int]] = set()
        # every asset repeats the same months: check each distinct text once
        months_by_text: dict[str, int] = {}
        for line, (asset_id, start_text, months_text, amount_text) in rows:
            if not asset_id:
                raise ParseError("empty asset_id", line=line, path=path)
            start = months_by_text.get(start_text)
            if start is None:
                m = _MONTH_RE.fullmatch(start_text)
                if not m:
                    raise ParseError(
                        f"period_start must be YYYY-MM, got {start_text!r}", line=line, path=path
                    )
                month = int(m.group(2))
                if not 1 <= month <= 12:
                    raise ParseError(f"month out of range: {month}", line=line, path=path)
                start = months_by_text[start_text] = int(m.group(1)) * 12 + month - 1
            if months_text == "1":
                months = 1
            elif months_text == "3":
                months = 3
            else:
                raise ParseError(
                    f"unknown frequency {months_text!r} (period_months must be 1 or 3)",
                    line=line,
                    path=path,
                )
            m = _AMOUNT_RE.fullmatch(amount_text)
            if not m:
                raise ParseError(
                    f"bad amount {amount_text!r} (decimal with <= 2 fraction digits)",
                    line=line,
                    path=path,
                )
            sign, whole, frac = m.groups()
            cents = int(whole + (frac or "").ljust(2, "0"))
            if sign and cents:
                raise ParseError(
                    f"NEGATIVE_AMOUNT: amount {amount_text!r} is negative", line=line, path=path
                )
            key = (asset_id, start)
            if key in seen:
                raise ParseError(
                    f"duplicate record for {asset_id} at {start_text}", line=line, path=path
                )
            seen.add(key)
            records.append((asset_id, start, months, cents))
        return records


def parse_assets(source: Source) -> dict[str, float]:
    """Read assets.csv into an asset_id -> dollar_age mapping."""
    with read_table(source, ASSETS_HEADER) as (path, rows):
        ages: dict[str, float] = {}
        for line, (asset_id, age_text) in rows:
            if not asset_id:
                raise ParseError("empty asset_id", line=line, path=path)
            if asset_id in ages:
                raise ParseError(f"duplicate asset {asset_id}", line=line, path=path)
            try:
                age = parse_number(age_text)
            except ValueError:
                raise ParseError(f"bad dollar_age {age_text!r}", line=line, path=path) from None
            if not (math.isfinite(age) and age > 0):
                raise ParseError(
                    f"dollar_age must be a positive finite number, got {age_text!r}",
                    line=line,
                    path=path,
                )
            ages[asset_id] = age
        return ages


def assemble_raw_assets(
    records: Iterable[tuple[str, int, int, int]], dollar_ages: Mapping[str, float]
) -> list[RawAsset]:
    """Join parsed cashflows with dollar ages into RawAssets, sorted by id.

    Every cashflow must reference a known asset and every asset must have
    at least one cashflow; anything else is a ParseError, since the two
    files are inconsistent rather than merely containing a bad asset.
    """
    grouped: dict[str, list[Record]] = {}
    for asset_id, start, months, cents in records:
        group = grouped.get(asset_id)
        if group is None:
            group = grouped[asset_id] = []
        group.append((start, months, cents))

    unknown = sorted(set(grouped) - set(dollar_ages))
    if unknown:
        raise ParseError(f"cashflows reference unknown assets: {', '.join(unknown)}")
    missing = sorted(set(dollar_ages) - set(grouped))
    if missing:
        raise ParseError(f"assets have no cashflows: {', '.join(missing)}")

    assets = []
    for asset_id in sorted(grouped):
        recs = grouped[asset_id]
        recs.sort()
        try:
            assets.append(RawAsset(asset_id, dollar_ages[asset_id], tuple(recs)))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return assets


# ---------------------------------------------------------------------------
# Annualization and filters
# ---------------------------------------------------------------------------

def oldest_cashflow_age(records: Sequence[Record]) -> float:
    """Age in years of the oldest cashflow: months spanned from the first
    period start to the end of the last covered period, divided by 12."""
    if not records:
        raise ValueError("no records")
    first = min(start for start, _, _ in records)
    last = max(start + months for start, months, _ in records)
    return (last - first) / 12.0


def annualize(asset_id: str, records: Sequence[Record]) -> tuple[Decimal, ...]:
    """Sum gap-free monthly/quarterly records into whole song-age years.

    Buckets run forward from the first covered month: bucket k holds
    coverage months 12(k-1)+1 .. 12k, so bucket index equals song-age
    year. Records are attributed to the bucket containing their first
    covered month. A trailing bucket with fewer than 12 covered months
    is dropped. Buckets are summed in integer cents, so each equals its
    records' total exactly.
    """
    if not records:
        raise ValueError("no records")
    recs = sorted(records)
    origin = end = recs[0][0]
    buckets: list[int] = []
    for start, months, cents in recs:
        if start != end:
            raise AnnualizeError(
                RejectReason.GAP_IN_HISTORY,
                f"{asset_id}: coverage gap before {_month_text(start)}",
            )
        k = (start - origin) // 12
        if k == len(buckets):
            buckets.append(cents)
        else:
            buckets[k] += cents
        end = start + months
    total_months = end - origin
    complete_years = total_months // 12
    if complete_years < 1:
        raise AnnualizeError(
            RejectReason.INSUFFICIENT_HISTORY,
            f"{asset_id}: only {total_months} months of coverage",
        )
    return tuple(Decimal(c).scaleb(-2) for c in buckets[:complete_years])


def filter_zero_years(amounts: Sequence[Amount], zero_floor: float = DEFAULT_ZERO_FLOOR) -> bool:
    """Accept unless any annual amount is at or below the floor."""
    if zero_floor < 0:
        raise ValueError("zero_floor must be >= 0")
    return all(amount > zero_floor for amount in amounts)


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

@dataclass(frozen=True)
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
    ordered = sorted(raw_assets, key=lambda a: a.asset_id)
    ids = [a.asset_id for a in ordered]
    if len(set(ids)) != len(ids):
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
    if any(cents < 0 for _, _, cents in raw.records):
        return None, RejectReason.NEGATIVE_AMOUNT
    try:
        amounts = annualize(raw.asset_id, raw.records)
    except AnnualizeError as exc:
        return None, exc.reason
    if not filter_zero_years(amounts, zero_floor):
        return None, RejectReason.ZERO_REVENUE_YEAR
    oldest = oldest_cashflow_age(raw.records)
    if not filter_dollar_age(raw.dollar_age, oldest, tolerance):
        return None, RejectReason.DOLLAR_AGE_MISMATCH
    return amounts, None


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def write_cashflows_csv(path: str | Path, raw_assets: Iterable[RawAsset]) -> None:
    rows = [
        (asset.asset_id, _month_text(start), str(months), _cents_text(cents))
        for asset in sorted(raw_assets, key=lambda a: a.asset_id)
        for start, months, cents in asset.records
    ]
    write_csv(path, CASHFLOWS_HEADER, rows)


def write_assets_csv(path: str | Path, raw_assets: Iterable[RawAsset]) -> None:
    rows = [
        (a.asset_id, f"{a.dollar_age:.6f}")
        for a in sorted(raw_assets, key=lambda a: a.asset_id)
    ]
    write_csv(path, ASSETS_HEADER, rows)


def write_filter_report_csv(path: str | Path, report: FilterReport) -> None:
    rows = [
        (asset_id, "accepted", "") if reason is None else (asset_id, "rejected", reason.value)
        for asset_id, reason in report.reasons.items()
    ]
    write_csv(path, REPORT_HEADER, rows)
