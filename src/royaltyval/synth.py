"""Deterministic synthetic catalogs and quotes with closed-form expectations.

Every random draw derives from a SHA-256 keyed stream: the master seed and
a stream label are hashed, the first eight bytes seed Python's Mersenne
Twister (random.Random), and normal deviates come from the inverse CDF
(statistics.NormalDist.inv_cdf) applied to its uniforms. Those choices are
fixed constants of this module; a given seed reproduces byte-identical
output on any platform, and per-asset streams make generation order
irrelevant.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from statistics import NormalDist
from typing import Sequence

from ._io import int_field_names, json_number, json_object, named, record_dict, record_header
from .ingest import MAX_AMOUNT_DIGITS, RawAsset
from .market import MarketQuote, band_surfaces, round_half_up
from .model import (
    BAND_LEVELS, DEFAULT_MAX_DURATION, DEFAULT_MIN_COHORT, DEFAULT_RATE, MAX_YEARS, Asset,
    multiplier_table,
)

START_MONTH = 2015 * 12  # month index of 2015-01

# The most monthly records a population spec may ask for. The `synth` child
# peaks at 24.9 MiB on the 198,000-record benchmark spec and at 44.0 MiB on
# five times its counts: about 25 bytes a record over a 20 MiB floor. So the
# cap's 10 million records need about 270 MB, and write a cashflows file of
# about 265 MB (26.5 bytes a row).
MAX_RECORDS = 10_000_000

QUOTE_NOISE = 0.05  # the quote noise of the synth command and the market study

_NORMAL = NormalDist()


@dataclass
class GroupSpec:
    """One homogeneous slice of a synthetic population."""

    count: int
    annual_growth: float
    noise_sigma: float
    age_years: int
    initial_revenue: float

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not self.annual_growth > -1.0:
            raise ValueError("annual_growth must be > -1")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if self.age_years < 2:
            raise ValueError("age_years must be >= 2")
        if self.age_years > MAX_YEARS:
            raise ValueError(f"age_years must be <= {MAX_YEARS}")
        if not self.initial_revenue > 0:
            raise ValueError("initial_revenue must be > 0")


@dataclass
class PopulationSpec:
    groups: tuple[GroupSpec, ...]
    seed: int

    def __post_init__(self):
        if not self.groups:
            raise ValueError("population needs at least one group")
        records = sum(12 * g.count * g.age_years for g in self.groups)
        if records > MAX_RECORDS:
            raise ValueError(f"population of {records} records is over the cap of {MAX_RECORDS}")

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "groups": list(map(record_dict, self.groups))}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PopulationSpec":
        json_object(data, "population spec", ("seed", "groups"), ("seed", "groups"))
        seed = json_number("seed", data["seed"], integral=True)
        raw_groups = data["groups"]
        if not isinstance(raw_groups, list) or not raw_groups:
            raise ValueError("groups must be a non-empty list")
        groups = []
        group_keys = record_header(GroupSpec)
        integral = int_field_names(GroupSpec)
        for idx, g in enumerate(raw_groups):
            json_object(g, f"groups[{idx}]", group_keys, group_keys)
            try:
                values = {k: json_number(k, g[k], k in integral) for k in g}
                groups.append(GroupSpec(**values))
            except ValueError as exc:
                raise ValueError(f"groups[{idx}]: {exc}") from None
        return cls(tuple(groups), seed)


# ---------------------------------------------------------------------------
# Seeded streams
# ---------------------------------------------------------------------------

def derive_seed(master_seed: int, *labels) -> int:
    """Stable 64-bit stream seed from the master seed and label parts."""
    text = "|".join([str(master_seed), *map(str, labels)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _normal(rng: random.Random, sigma: float) -> float:
    u = rng.random()
    if u == 0.0:
        u = 2.0 ** -53
    return sigma * _NORMAL.inv_cdf(u)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

@lru_cache
def _starts(n: int) -> tuple[int, ...]:
    """The starts of n monthly records from START_MONTH, one tuple shared
    by every asset of that length."""
    return tuple(range(START_MONTH, START_MONTH + n))


@lru_cache
def _ones(n: int) -> tuple[int, ...]:
    """The months column of n monthly records, shared like _starts."""
    return (1,) * n


def _split_cents(cents: int) -> list[int]:
    base = cents // 12
    return [base] * 11 + [cents - 11 * base]


def gen_asset(seed: int, group: GroupSpec, asset_id: str) -> RawAsset:
    """One synthetic asset of `group` (whose count is not used) with
    monthly records from START_MONTH and exact integer dollar age.

    Annual totals follow initial * (1+g)^(k-1) * exp(eps_k) with eps_k a
    seeded normal of standard deviation noise_sigma (identically zero when
    sigma is zero), rounded to cents, then split uniformly across twelve
    monthly records with remainder cents on the last month.
    """
    rng = random.Random(seed)
    annual: list[int] = []
    for k in range(1, group.age_years + 1):
        eps = _normal(rng, group.noise_sigma) if group.noise_sigma > 0 else 0.0
        try:
            level = group.initial_revenue * (1.0 + group.annual_growth) ** (k - 1)
            if eps:
                level *= math.exp(eps)
            annual.append(round(level * 100))
        except OverflowError:
            raise ValueError(f"{named(asset_id)}: revenue in year {k} is too large") from None
    # after the loop, so a float overflow is named before an earlier year past the bound
    monthly: list[int] = []
    for k, cents in enumerate(annual, start=1):
        if cents >= 10 ** (MAX_AMOUNT_DIGITS + 2):
            raise ValueError(f"{named(asset_id)}: revenue in year {k} is too large")
        monthly += _split_cents(cents)
    n = len(monthly)
    return RawAsset(asset_id, float(group.age_years), _starts(n), _ones(n), array("q", monthly))


def gen_population(spec: PopulationSpec) -> list[RawAsset]:
    """All groups' assets, ids G<group>A<index>, each gen_asset on its own
    stream."""
    assets = []
    for gi, group in enumerate(spec.groups):
        try:
            for ai in range(group.count):
                seed = derive_seed(spec.seed, "asset", gi, ai)
                assets.append(gen_asset(seed, group, f"G{gi:02d}A{ai:03d}"))
        except ValueError as exc:
            raise ValueError(f"groups[{gi}]: {exc}") from None
    return assets


def closed_form_multiplier(g: float, r: float, d: int) -> float:
    """Multiplier of a geometric revenue stream over d years.

    With q = (1+g)/(1+r) this is q * (1 - q^d) / (1 - q), collapsing to d
    itself when growth matches the discount rate.
    """
    if not g > -1.0:
        raise ValueError("g must be > -1")
    if r < 0:
        raise ValueError("r must be >= 0")
    if d < 1:
        raise ValueError("d must be >= 1")
    q = (1.0 + g) / (1.0 + r)
    if abs(q - 1.0) <= 1e-12:
        return float(d)
    return q * (1.0 - q ** d) / (1.0 - q)


def gen_quotes(
    dataset: Sequence[Asset],
    rate: float = DEFAULT_RATE,
    bid_level: float = 10.0,
    ask_level: float = 50.0,
    seed: int = 0,
    noise: float = 0.0,
    *,
    min_cohort: int = DEFAULT_MIN_COHORT,
    max_duration: int = DEFAULT_MAX_DURATION,
) -> list[MarketQuote]:
    """Quotes whose bid and ask sit on chosen model band levels.

    For each asset: LTM is its last annual amount, the contract duration
    is drawn from the asset's stream within the horizons its age group
    supports, and bid/ask are LTM times the band multiplier at bid_level
    and ask_level, each perturbed by an independent uniform factor in
    [1-noise, 1+noise]. The bands are market.band_surfaces at the assets'
    dollar ages, each asset reading the one at its rounded age before any
    clamping: an asset younger than half a year, or older than every age
    with cells, finds none and is skipped.
    """
    if bid_level not in BAND_LEVELS or ask_level not in BAND_LEVELS:
        raise ValueError(f"bid/ask levels must be one of {BAND_LEVELS}")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must be in [0, 1)")

    assets = sorted(dataset, key=lambda a: a.asset_id)
    surfaces = band_surfaces(assets, [a.dollar_age for a in assets], max_duration, min_cohort)
    tables = {t: multiplier_table(s, rate, s.depth) for t, s in surfaces.items()}
    quotes = []
    for asset in assets:
        table = tables.get(round_half_up(asset.dollar_age))
        if table is None:
            continue
        rng = random.Random(derive_seed(seed, "quote", asset.asset_id))
        duration = rng.randint(1, len(table.columns[0]))  # its depth, <= max_duration
        ltm = float(asset.amounts[-1])
        bid_mult = table.entry(duration, bid_level)
        ask_mult = table.entry(duration, ask_level)
        bid = ltm * bid_mult * (1.0 + rng.uniform(-noise, noise))
        ask = ltm * ask_mult * (1.0 + rng.uniform(-noise, noise))
        quotes.append(
            MarketQuote(
                asset_id=asset.asset_id,
                ltm=ltm,
                best_bid=bid,
                ask=ask,
                duration_years=duration,
                dollar_age=asset.dollar_age,
            )
        )
    return quotes
