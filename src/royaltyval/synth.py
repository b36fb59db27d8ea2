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
from dataclasses import asdict, dataclass, fields
from decimal import Decimal
from statistics import NormalDist
from typing import Sequence

from ._io import int_fields, json_number
from .curves import DEFAULT_MIN_COHORT, build_surfaces
from .ingest import MAX_AMOUNT_DIGITS, RawAsset
from .market import MarketQuote, round_half_up
from .model import BAND_LEVELS, DEFAULT_MAX_DURATION, DEFAULT_RATE, Asset, multiplier_table

START_MONTH = 2015 * 12  # month index of 2015-01

_NORMAL = NormalDist()


@dataclass(frozen=True)
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
        # The same cap as max_duration; it also keeps every period_start
        # within four-digit years.
        if self.age_years > 1000:
            raise ValueError("age_years must be <= 1000")
        if not self.initial_revenue > 0:
            raise ValueError("initial_revenue must be > 0")


@dataclass(frozen=True)
class PopulationSpec:
    groups: tuple[GroupSpec, ...]
    seed: int

    def __post_init__(self):
        if not self.groups:
            raise ValueError("population needs at least one group")

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "groups": [asdict(g) for g in self.groups]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "PopulationSpec":
        if not isinstance(data, dict):
            raise ValueError("population spec must be a JSON object")
        unknown = set(data) - {"seed", "groups"}
        if unknown:
            raise ValueError(f"unknown population spec keys: {sorted(unknown)}")
        try:
            seed = json_number("seed", data["seed"], integral=True)
            raw_groups = data["groups"]
        except KeyError as exc:
            raise ValueError(f"population spec missing {exc.args[0]!r}") from None
        if not isinstance(raw_groups, list) or not raw_groups:
            raise ValueError("groups must be a non-empty list")
        groups = []
        group_keys = {f.name for f in fields(GroupSpec)}
        integral = int_fields(GroupSpec)
        for idx, g in enumerate(raw_groups):
            if not isinstance(g, dict):
                raise ValueError(f"groups[{idx}] must be an object")
            unknown = set(g) - group_keys
            if unknown:
                raise ValueError(f"groups[{idx}]: unknown keys {sorted(unknown)}")
            missing = group_keys - set(g)
            if missing:
                raise ValueError(f"groups[{idx}]: missing keys {sorted(missing)}")
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


def _stream(master_seed: int, *labels) -> random.Random:
    return random.Random(derive_seed(master_seed, *labels))


def _normal(rng: random.Random, sigma: float) -> float:
    u = rng.random()
    if u == 0.0:
        u = 2.0 ** -53
    return sigma * _NORMAL.inv_cdf(u)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def monthly_split(annual_total: Decimal) -> tuple[Decimal, ...]:
    """Split an annual amount into 12 monthly cents-exact pieces.

    Each month gets total//12 cents; leftover cents go to the final month,
    so the twelve pieces sum back to the annual amount exactly.
    """
    cents = int(annual_total.scaleb(2))
    if Decimal(cents).scaleb(-2) != annual_total:
        raise ValueError(f"annual total {annual_total} is not cent-precise")
    return tuple(Decimal(m).scaleb(-2) for m in _split_cents(cents))


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
            raise ValueError(f"{asset_id}: revenue in year {k} is too large") from None
    # after the loop, so a float overflow is named before an earlier year past the bound
    monthly: list[int] = []
    for k, cents in enumerate(annual, start=1):
        if cents >= 10 ** (MAX_AMOUNT_DIGITS + 2):
            raise ValueError(f"{asset_id}: revenue in year {k} is too large")
        monthly += _split_cents(cents)
    n = len(monthly)
    starts = range(START_MONTH, START_MONTH + n)
    return RawAsset(asset_id, float(group.age_years), starts, (1,) * n, monthly)


def gen_population(spec: PopulationSpec) -> list[RawAsset]:
    """All groups' assets, ids G<group>A<index>, each from its own stream."""
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
    [1-noise, 1+noise]. Assets whose age has no usable cohort are skipped.
    """
    if bid_level not in BAND_LEVELS or ask_level not in BAND_LEVELS:
        raise ValueError(f"bid/ask levels must be one of {BAND_LEVELS}")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must be in [0, 1)")

    assets = sorted(dataset, key=lambda a: a.asset_id)
    ages = {round_half_up(asset.dollar_age) for asset in assets}
    surfaces = build_surfaces(
        assets,
        [t for t in ages if t >= 1],
        BAND_LEVELS,
        max_horizon=max_duration,
        min_cohort=min_cohort,
    )

    tables = {t: multiplier_table(s, rate, s.depth) for t, s in surfaces.items() if s.depth}
    quotes = []
    for asset in assets:
        table = tables.get(round_half_up(asset.dollar_age))
        if table is None:
            continue
        rng = _stream(seed, "quote", asset.asset_id)
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
