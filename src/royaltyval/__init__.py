"""Valuation bands for music royalty catalogs.

Pipeline: ingest raw cashflows into filtered annual series, estimate
percentile revenue-share curves per base age, discount them into
multiplier bands, and compare the bands against market bid/ask quotes.
"""

from .curves import build_surface, build_surfaces, observed_share, percentile
from .ingest import (
    FilterReport,
    RawAsset,
    RejectReason,
    annualize,
    build_dataset,
    parse_assets,
    parse_cashflows,
)
from .market import (
    ComparisonRow,
    MarketQuote,
    aggregate_plot_data,
    compare,
    filter_quotes,
    implied_multipliers,
)
from .model import (
    Asset,
    MultiplierTable,
    ShareSurface,
    discount_factor,
    multiplier_from_shares,
    multiplier_table,
    price,
)
from .synth import PopulationSpec, closed_form_multiplier, gen_asset, gen_population, gen_quotes

__version__ = "0.1.0"
