#!/usr/bin/env python3
"""Market comparison study: where do bids and asks sit against model bands?

Generates a synthetic marketplace whose bids are placed near the bottom
decile multiplier and asks near the median, with noise, then runs the full
comparison pipeline and prints the by-duration and by-age aggregate tables
that would back the usual scatter plots.
"""

import argparse
from pathlib import Path

from royaltyval._io import write_csv
from royaltyval.curves import DEFAULT_MIN_COHORT
from royaltyval.ingest import build_dataset
from royaltyval.market import (
    PLOT_HEADER,
    aggregate_plot_data,
    band_surfaces,
    compare,
    comparison_csv_rows,
    COMPARISON_HEADER,
    filter_quotes,
    plot_csv_rows,
)
from royaltyval.model import DEFAULT_MAX_DURATION, DEFAULT_RATE
from royaltyval.synth import GroupSpec, PopulationSpec, gen_population, gen_quotes


def population(seed):
    return PopulationSpec(
        (
            GroupSpec(10, -0.30, 0.10, 4, 40000.0),
            GroupSpec(10, -0.25, 0.10, 6, 55000.0),
            GroupSpec(10, -0.20, 0.05, 9, 70000.0),
            GroupSpec(8, -0.18, 0.05, 14, 90000.0),
        ),
        seed=seed,
    )


def print_table(title, groups):
    print(f"\n{title}")
    print(f"{'axis':>4}  {'n':>3}  {'bid':>8}  {'ask':>8}  {'m10':>8}  {'m50':>8}  {'m90':>8}")
    for g in groups:
        bid = f"{g.mean_bid_mult:8.4f}" if g.mean_bid_mult is not None else "       -"
        print(
            f"{g.axis_value:>4}  {g.n:>3}  {bid}  {g.mean_ask_mult:8.4f}  "
            f"{g.mean_m10:8.4f}  {g.mean_m50:8.4f}  {g.mean_m90:8.4f}"
        )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--noise", type=float, default=0.05, help="quote noise amplitude")
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    dataset, report = build_dataset(gen_population(population(args.seed)))
    print(f"dataset: {report.accepted_count} accepted, {report.rejected_count} rejected")

    quotes = gen_quotes(dataset, rate=DEFAULT_RATE, seed=args.seed, noise=args.noise)
    accepted, rejected = filter_quotes(quotes)
    print(f"quotes: {len(accepted)} usable, {len(rejected)} filtered out")

    surfaces = band_surfaces(dataset, DEFAULT_MAX_DURATION, DEFAULT_MIN_COHORT)

    rows, errors = compare(accepted, surfaces, DEFAULT_RATE)
    print(f"comparison: {len(rows)} rows, {len(errors)} row errors")

    write_csv(out_dir / "comparison.csv", COMPARISON_HEADER, comparison_csv_rows(rows))
    by_duration = aggregate_plot_data(rows, "duration")
    by_age = aggregate_plot_data(rows, "dollar_age_bucket")
    write_csv(out_dir / "by_duration.csv", PLOT_HEADER, plot_csv_rows(by_duration))
    write_csv(out_dir / "by_dollar_age.csv", PLOT_HEADER, plot_csv_rows(by_age))

    print_table("mean multipliers by contract duration", by_duration)
    print_table("mean multipliers by dollar-age bucket", by_age)

    bid_rows = [r for r in rows if r.bid_gap_to_m10 is not None]
    if bid_rows:
        mean_bid_gap = sum(abs(r.bid_gap_to_m10) for r in bid_rows) / len(bid_rows)
        mean_ask_gap = sum(abs(r.ask_gap_to_m50) for r in rows) / len(rows)
        print(f"\nmean |bid - m10| = {mean_bid_gap:.4f}, mean |ask - m50| = {mean_ask_gap:.4f}")
    print(f"wrote tables to {out_dir}/")


if __name__ == "__main__":
    main()
