"""Percentile revenue-share surfaces estimated from an accepted dataset.

For a base age t and horizon i, the observed share of an asset is its
year-(t+i) revenue divided by its year-t revenue. The cohort at (t, i) is
every asset that observed_years says is observed through year t+i;
surfaces store chosen percentiles of those cohorts.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from itertools import islice
from operator import itemgetter, truediv
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from ._io import json_number, json_object, named, parse_number, read_json, read_table
from .model import BAND_LEVELS, DEFAULT_MAX_DURATION, DEFAULT_MIN_COHORT, Asset, ShareSurface

SURFACE_HEADER = ("base_age", "horizon", "level", "share", "cohort_size")
SURFACE_SPECS = ("", "", "g", ".6f", "")  # the format spec of each column
_SURFACE_KEYS = ("base_age", "levels", "counts", "cells")
_CELL_KEYS = ("horizon", "level", "share")


def observed_years(asset: Asset) -> int:
    """The cohort rule: an asset is observed through year n = min(len(amounts),
    floor(dollar age)), and a cohort at (t, h) reads it only when t + h <= n."""
    return min(len(asset.amounts), math.floor(asset.dollar_age))


def observed_share(asset: Asset, base_age: int, horizon: int) -> float | None:
    """Share of base-year revenue seen `horizon` years later, if observable:
    absent (None) where observed_years says no cohort reads it."""
    if base_age < 1 or horizon < 1:
        raise ValueError("base_age and horizon must be >= 1")
    target = base_age + horizon
    if target > observed_years(asset):
        return None
    try:
        return float(asset.amounts[target - 1]) / float(asset.amounts[base_age - 1])
    except ZeroDivisionError:
        raise ValueError(f"{named(asset.asset_id)}: no revenue in year {base_age}") from None


def percentile(values: Sequence[float], level: float) -> float:
    """Percentile by linear interpolation between closest ranks.

    Sorting ascending to v[0..n-1], the result sits at fractional rank
    h = (n-1) * level / 100. Level 0 is the minimum, level 100 the
    maximum.
    """
    if len(values) == 0:
        raise ValueError("percentile of empty collection")
    return _sorted_percentile(sorted(float(x) for x in values), level)


def _sorted_percentile(v: Sequence[float], level: float) -> float:
    """percentile() of a non-empty list already sorted ascending."""
    if not 0.0 <= level <= 100.0:
        raise ValueError(f"level must be in [0, 100], got {level!r}")
    h = (len(v) - 1) * level / 100.0
    lo = math.floor(h)
    frac = h - lo
    if frac == 0.0:
        return v[lo]
    return v[lo] + frac * (v[lo + 1] - v[lo])


def build_surface(
    dataset: Iterable[Asset],
    base_age: int,
    levels: Sequence[float] = BAND_LEVELS,
    max_horizon: int = DEFAULT_MAX_DURATION,
    min_cohort: int = DEFAULT_MIN_COHORT,
) -> ShareSurface:
    """Percentile shares for horizons 1..max_horizon at one base age."""
    return build_surfaces(dataset, (base_age,), levels, max_horizon, min_cohort)[base_age]


def build_surfaces(
    dataset: Iterable[Asset],
    base_ages: Iterable[int],
    levels: Sequence[float] = BAND_LEVELS,
    max_horizon: int = DEFAULT_MAX_DURATION,
    min_cohort: int = DEFAULT_MIN_COHORT,
) -> dict[int, ShareSurface]:
    """Percentile shares for horizons 1..max_horizon at every base age.

    The observable years that some cohort reads, of each asset observed
    past the first base age, become floats once, laid out a column per
    year with the longest series first: the assets observed at a year are
    then a prefix of those observed at any earlier one. The cohorts are
    built one (base age, horizon) at a time, each sorted before any level
    is read from it, so the order its shares are taken in changes nothing,
    and freed before the next, so only one cohort is alive at a time.
    Cohort sizes are recorded for every horizon; cells are emitted only
    where the cohort reaches min_cohort, so thin tails stay blank rather
    than producing meaningless percentiles.
    """
    if max_horizon < 1:
        raise ValueError("max_horizon must be >= 1")
    if min_cohort < 1:
        raise ValueError("min_cohort must be >= 1")
    level_tuple = tuple(float(p) for p in levels)
    ages = sorted(set(base_ages))

    # The cohort at (t, i) divides amounts[t+i-1] by amounts[t-1], as
    # observed_share does, for each asset with observed_years n >= t + i. No
    # cohort reads before year skip + 1 or past year stop, so an asset counts
    # for its n - skip years from year skip + 1 when n > skip + 1. A base age
    # below 1 is an error, as in observed_share, only once there is an asset.
    skip = ages[0] - 1 if ages else 0
    stop = ages[-1] + max_horizon if ages else 0
    observed = []  # (n - skip, amounts) of each asset that counts
    for asset in dataset:
        if skip < 0:
            raise ValueError("base_age and horizon must be >= 1")
        n = min(observed_years(asset), stop)
        if n > skip + 1:
            observed.append((n - skip, asset.amounts))

    # Longest first, the assets observed at index y (year skip + y + 1) are
    # the first k, k the count of spans above y, which bisect finds in the
    # negated spans. columns[y] holds that year of each as a float, so the
    # cohort at (t, i) divides columns[year] by as many leading entries of
    # columns[base].
    observed.sort(key=itemgetter(0), reverse=True)
    negated = [-span for span, _ in observed]
    columns = []
    for y in range(-negated[0] if observed else 0):
        members = islice(observed, bisect_left(negated, -y))
        columns.append(array("d", [float(amounts[skip + y]) for _, amounts in members]))

    surfaces: dict[int, ShareSurface] = {}
    for t in ages:
        values: dict[tuple[int, float], float] = {}
        counts: dict[int, int] = {}
        base = t - 1 - skip  # the index of year t in columns
        for i in range(1, max_horizon + 1):
            year = base + i  # of year t+i
            if year >= len(columns):
                counts.update(dict.fromkeys(range(i, max_horizon + 1), 0))
                break
            try:
                cohort = sorted(map(truediv, columns[year], columns[base]))
            except ZeroDivisionError:  # a zero base year has no finite share
                raise ValueError("cohort shares must be finite and > 0") from None
            if not (cohort[0] > 0.0 and math.isfinite(cohort[-1])):
                raise ValueError("cohort shares must be finite and > 0")
            counts[i] = len(cohort)
            if len(cohort) >= min_cohort:
                for p in level_tuple:
                    values[(i, p)] = _sorted_percentile(cohort, p)
        surfaces[t] = ShareSurface(t, level_tuple, values, counts)
    return surfaces


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def surface_csv_rows(surface: ShareSurface) -> Iterator[tuple[int, int, float, float, int]]:
    """Canonical CSV rows (horizon ascending, level ascending), one per
    cell, as values that SURFACE_SPECS formats."""
    t, values, counts = surface.base_age, surface.values, surface.counts
    for i in surface.cell_horizons():
        yield from ((t, i, p, values[(i, p)], counts[i]) for p in surface.levels)


def _check_new_cell(values: dict, i: int, p: float) -> None:
    """Raise ValueError if a surface file gives cell (i, p) twice."""
    if (i, p) in values:
        raise ValueError(f"repeated cell at horizon {i}, level {p:g}")


def parse_surface_csv(path: str | Path) -> ShareSurface:
    """Rebuild a surface from its CSV form (celled horizons only). A
    repeated cell, or rows of one horizon with different cohort sizes, is
    an error at its line."""
    base_age = None
    values: dict[tuple[int, float], float] = {}
    counts: dict[int, int] = {}
    with read_table(path, SURFACE_HEADER) as rows:
        for t, horizon, level, share, n in rows:
            t = parse_number(t, int)
            if base_age is None:
                base_age = t
            elif t != base_age:
                raise ValueError("surface rows mix base ages")
            i, p = parse_number(horizon, int), parse_number(level)
            share, n = parse_number(share), parse_number(n, int)
            _check_new_cell(values, i, p)
            if counts.setdefault(i, n) != n:
                raise ValueError(f"cohort_size {n} at horizon {i} differs from {counts[i]}")
            values[(i, p)] = share
        if base_age is None:
            raise ValueError("no surface rows")
        return ShareSurface(base_age, tuple(sorted({p for _, p in values})), values, counts)


def surface_to_json_dict(surface: ShareSurface) -> dict:
    """Lossless JSON form: full-precision shares plus all cohort counts."""
    return {
        "base_age": surface.base_age,
        "levels": list(surface.levels),
        "counts": {str(i): surface.counts[i] for i in sorted(surface.counts)},
        "cells": [
            {"horizon": i, "level": p, "share": surface.values[(i, p)]}
            for i in surface.cell_horizons()
            for p in surface.levels
        ],
    }


def surface_from_json_dict(data: dict) -> ShareSurface:
    """Inverse of surface_to_json_dict. Every number must be a JSON number,
    and base ages, horizons and counts whole ones; counts keys are
    horizons written as decimal integers. A repeated cell or horizon and
    an unknown key, at the top level or in a cell, are errors."""
    json_object(data, "surface", _SURFACE_KEYS, _SURFACE_KEYS)
    base_age = json_number("base_age", data["base_age"], integral=True)
    if not isinstance(data["levels"], list):
        raise ValueError("levels must be a list")
    levels = tuple(float(json_number("level", p)) for p in data["levels"])
    if not isinstance(data["counts"], dict):
        raise ValueError("counts must be an object")
    counts = {
        parse_number(i, int): json_number("count", n, integral=True)
        for i, n in data["counts"].items()
    }
    if len(counts) != len(data["counts"]):
        raise ValueError("counts name a horizon twice")
    if not isinstance(data["cells"], list):
        raise ValueError("cells must be a list of objects")
    values = {}
    for k, cell in enumerate(data["cells"]):
        json_object(cell, f"cells[{k}]", _CELL_KEYS, _CELL_KEYS)
        i = json_number("horizon", cell["horizon"], integral=True)
        p = float(json_number("level", cell["level"]))
        _check_new_cell(values, i, p)
        values[(i, p)] = float(json_number("share", cell["share"]))
    return ShareSurface(base_age, levels, values, counts)


def load_surface(path: str | Path) -> ShareSurface:
    """Load a surface from .json (lossless) or .csv (display precision)."""
    path = Path(path)
    if path.suffix.lower() != ".json":
        return parse_surface_csv(path)
    with read_json(path) as data:
        return surface_from_json_dict(data)
