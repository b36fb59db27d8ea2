"""Valuation bands for music royalty catalogs.

Pipeline: ingest raw cashflows into filtered annual series, estimate
percentile revenue-share curves per base age, discount them into
multiplier bands, and compare the bands against market bid/ask quotes.
"""

__version__ = "0.1.0"
