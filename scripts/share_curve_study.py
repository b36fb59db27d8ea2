#!/usr/bin/env python3
"""Share-curve study on synthetic catalogs: young versus seasoned cohorts.

Builds two populations, one freshly released where every group decays and
one seasoned mix with a small high-growth group on top, then prints and
writes the percentile share curves for each. The seasoned top decile grows
with horizon while the bottom decile decays, the signature that makes
older catalogs interesting to value.
"""

import argparse
from pathlib import Path

from royaltyval._io import write_csv
from royaltyval.curves import DEFAULT_MIN_COHORT, SURFACE_HEADER, build_surface, surface_csv_rows
from royaltyval.ingest import build_dataset
from royaltyval.model import BAND_LEVELS
from royaltyval.synth import GroupSpec, PopulationSpec, gen_population


def young_population(seed):
    return PopulationSpec(
        (
            GroupSpec(8, -0.45, 0.1, 6, 30000.0),
            GroupSpec(8, -0.30, 0.1, 6, 45000.0),
            GroupSpec(8, -0.15, 0.1, 6, 60000.0),
        ),
        seed=seed,
    )


def seasoned_population(seed):
    decaying = tuple(
        GroupSpec(3, g, 0.05, 13, 25000.0)
        for g in (-0.35, -0.30, -0.25, -0.20, -0.15, -0.10)
    )
    growing = (GroupSpec(3, 0.12, 0.05, 13, 25000.0),)
    return PopulationSpec(decaying + growing, seed=seed)


def run(name, spec, base_age, max_horizon, out_dir):
    dataset, report = build_dataset(gen_population(spec))
    surface = build_surface(dataset, base_age, BAND_LEVELS, max_horizon, DEFAULT_MIN_COHORT)

    path = out_dir / f"{name}_age{base_age}_surface.csv"
    write_csv(path, SURFACE_HEADER, surface_csv_rows(surface))

    print(f"\n{name}: {report.accepted_count} assets, base age {base_age}")
    print("horizon  " + "  ".join(f"p{int(p):<8}" for p in BAND_LEVELS))
    for i in surface.cell_horizons():
        shares = "  ".join(f"{surface.values[(i, p)]:<9.4f}" for p in BAND_LEVELS)
        print(f"{i:>7}  {shares}")
    print(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    run("young", young_population(args.seed), base_age=1, max_horizon=5, out_dir=out_dir)
    run("seasoned", seasoned_population(args.seed + 1), base_age=7, max_horizon=6, out_dir=out_dir)


if __name__ == "__main__":
    main()
