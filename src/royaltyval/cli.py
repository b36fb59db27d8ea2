"""Command-line pipeline: validate, curves, multipliers, value, compare, synth.

Global flags (--config, --format, --out) come before the subcommand.
Settings resolve as command-line flag over config-file value over built-in
default. All outputs are plain CSV/JSON with no timestamps, so a command
run twice on the same inputs produces byte-identical files.

Each command imports the modules it runs when it runs, so a child process
loads only those: `--help` needs no more than this module, `model` and
`_io`, and `value --surface` adds `curves`.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import model
from ._io import (
    int_field_names, json_number, json_object, read_json, record_dict, record_header, shown,
    write_json, write_records, write_table,
)
from .model import MissingCellError, MultiplierTable, ShareSurface, multiplier_table, price

MULTIPLIERS_HEADER = ("base_age", "duration", "level", "multiplier")
REJECTED_QUOTES_HEADER = ("asset_id", "reason")


@dataclass
class Config:
    rate: float = model.DEFAULT_RATE
    percentile_levels: tuple[float, ...] = model.BAND_LEVELS
    dollar_age_tolerance: float = model.DEFAULT_AGE_TOLERANCE
    zero_floor: float = model.DEFAULT_ZERO_FLOOR
    min_cohort: int = model.DEFAULT_MIN_COHORT
    max_duration: int = model.DEFAULT_MAX_DURATION
    min_bid_ask_ratio: float = model.DEFAULT_MIN_BID_ASK_RATIO
    output_format: str = "csv"

    def __post_init__(self):
        for name in ("rate", "dollar_age_tolerance", "zero_floor"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")
        if not self.percentile_levels:
            raise ValueError("percentile_levels must be non-empty")
        model.check_levels(self.percentile_levels)
        # CSV outputs label levels with :g, which keeps six significant digits
        if len({f"{p:g}" for p in self.percentile_levels}) != len(self.percentile_levels):
            raise ValueError("percentile_levels must differ at six significant digits")
        if self.min_cohort < 1:
            raise ValueError("min_cohort must be >= 1")
        if self.max_duration < 1:
            raise ValueError("max_duration must be >= 1")
        if self.max_duration > model.MAX_YEARS:
            raise ValueError(f"max_duration must be <= {model.MAX_YEARS}")
        if not 0.0 <= self.min_bid_ask_ratio <= 1.0:
            raise ValueError("min_bid_ask_ratio must be in [0, 1]")
        if self.output_format not in ("csv", "json"):
            raise ValueError("output_format must be 'csv' or 'json'")


_INT_FIELDS = int_field_names(Config)

# The flags that override a config value: flag -> (Config field, type, help).
_CONFIG_FLAGS = {
    "--rate": ("rate", float, "discount rate"),
    "--tolerance": ("dollar_age_tolerance", float, "dollar-age tolerance"),
    "--min-cohort": ("min_cohort", int, "smallest cohort that gets cells"),
    "--max-duration": ("max_duration", int, "longest horizon and quote duration"),
    "--min-bid-ask-ratio": ("min_bid_ask_ratio", float, "lowest bid/ask kept"),
}


def load_config_file(path: str | Path) -> dict:
    """Read a flat JSON config; unknown keys are an error to catch typos."""
    with read_json(path) as data:
        json_object(data, "config", record_header(Config))
        for key, value in data.items():
            if key == "percentile_levels":
                try:
                    if not isinstance(value, list):
                        raise ValueError
                    levels = tuple(sorted(float(json_number(key, p)) for p in value))
                except ValueError:
                    raise ValueError("percentile_levels must be a list of numbers") from None
                if len(set(levels)) != len(levels):
                    raise ValueError("percentile_levels must be unique")
                data[key] = levels
            elif key == "output_format":
                if not isinstance(value, str):
                    raise ValueError(f"output_format must be a string, got {shown(value)}")
            else:
                data[key] = json_number(key, value, key in _INT_FIELDS)
        Config(**data)  # the range checks, so their errors name this file too
    return data


def _resolve_config(args: argparse.Namespace) -> Config:
    overrides: dict = {}
    if args.config is not None:
        overrides.update(load_config_file(args.config))
    if args.format is not None:
        overrides["output_format"] = args.format
    for field, _, _ in _CONFIG_FLAGS.values():
        value = getattr(args, field, None)
        if value is not None:
            overrides[field] = value
    return Config(**overrides)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_dataset(args, cfg: Config):
    from . import ingest
    cashflows = ingest.parse_cashflows(args.cashflows)
    ages = ingest.parse_assets(args.assets)
    try:
        raw = ingest.assemble_raw_assets(cashflows, ages)
    except ValueError as exc:  # the two files disagree: name both
        raise ValueError(f"{args.cashflows}, {args.assets}: {exc}") from None
    return ingest.build_dataset(
        raw,
        zero_floor=cfg.zero_floor,
        dollar_age_tolerance=cfg.dollar_age_tolerance,
    )


def _surface_for(args, cfg: Config, levels: tuple[float, ...]) -> ShareSurface:
    """Surface from --surface file when given, else built from data paths."""
    from . import curves
    if getattr(args, "surface", None) is not None:
        return curves.load_surface(args.surface)
    if args.cashflows is None or args.assets is None or args.age is None:
        raise ValueError("need either --surface or --cashflows/--assets/--age")
    if args.age < 1:
        raise ValueError("--age must be >= 1")
    dataset, _ = _load_dataset(args, cfg)
    return curves.build_surface(
        dataset,
        args.age,
        levels,
        max_horizon=cfg.max_duration,
        min_cohort=cfg.min_cohort,
    )


def _multiplier_cells(table: MultiplierTable):
    """(duration, level, multiplier) by duration, then level, ascending."""
    for d, row in enumerate(zip(*table.columns), start=1):
        yield from ((d, p, m) for p, m in zip(table.levels, row))


def _multiplier_json(table: MultiplierTable) -> dict:
    return {
        "base_age": table.base_age,
        "discount_rate": table.discount_rate,
        "entries": [
            {"duration": d, "level": p, "multiplier": m} for d, p, m in _multiplier_cells(table)
        ],
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_validate(args, cfg: Config) -> int:
    from . import ingest
    out = _out_dir(args)
    _, report = _load_dataset(args, cfg)
    ingest.write_filter_report_csv(out / "filter_report.csv", report)
    write_json(out / "filter_summary.json", report.summary())
    print(f"accepted {report.accepted_count} of {report.total} assets")
    return 0 if report.accepted_count >= 1 else 2


def _cmd_curves(args, cfg: Config) -> int:
    from . import curves
    out = _out_dir(args)
    surface = _surface_for(args, cfg, cfg.percentile_levels)
    if not surface.cell_horizons():
        _fail(
            f"no cohort of at least {cfg.min_cohort} assets at any horizon "
            f"for base age {args.age}"
        )
        return 2
    if cfg.output_format == "json":
        write_json(out / f"surface_age{args.age}.json", curves.surface_to_json_dict(surface))
    else:
        write_table(
            out / f"surface_age{args.age}.csv",
            curves.SURFACE_HEADER,
            curves.surface_csv_rows(surface),
            curves.SURFACE_SPECS,
        )
    return 0


def _cmd_multipliers(args, cfg: Config) -> int:
    if args.durations is not None and args.durations < 1:
        raise ValueError("--durations must be >= 1")
    out = _out_dir(args)
    surface = _surface_for(args, cfg, cfg.percentile_levels)
    max_duration = args.durations if args.durations is not None else cfg.max_duration
    table = multiplier_table(surface, cfg.rate, max_duration)
    if cfg.output_format == "json":
        write_json(out / f"multipliers_age{table.base_age}.json", _multiplier_json(table))
    else:
        write_table(
            out / f"multipliers_age{table.base_age}.csv",
            MULTIPLIERS_HEADER,
            ((table.base_age, *cell) for cell in _multiplier_cells(table)),
            ("", "", "g", ".6f"),
        )
    return 0


def _cmd_value(args, cfg: Config) -> int:
    if not (math.isfinite(args.ltm) and args.ltm > 0):
        raise ValueError("--ltm must be a positive amount")
    if args.duration < 1:
        raise ValueError("--duration must be >= 1")
    surface = _surface_for(args, cfg, model.BAND_LEVELS)
    table = multiplier_table(surface, cfg.rate, args.duration)
    band = [(p, table.entry(args.duration, p)) for p in model.BAND_LEVELS]
    rows = [f"{p:g},{mult:.6f},{price(mult, args.ltm):.2f}" for p, mult in band]
    print("\n".join(["level,multiplier,price", *rows]))
    return 0


def _cmd_compare(args, cfg: Config) -> int:
    from . import market
    out = _out_dir(args)
    quotes = market.parse_quotes(args.quotes)
    if not quotes:
        _fail(f"no quotes in {args.quotes}")
        return 2
    dataset, _ = _load_dataset(args, cfg)
    accepted, rejected = market.filter_quotes(
        quotes, cfg.max_duration, cfg.min_bid_ask_ratio
    )
    ages = [q.dollar_age for q in accepted]
    surfaces = market.band_surfaces(dataset, ages, cfg.max_duration, cfg.min_cohort)
    rows, errors = market.compare(accepted, surfaces, cfg.rate)

    write_table(
        out / "rejected_quotes.csv",
        REJECTED_QUOTES_HEADER,
        ((q.asset_id, reason.value) for q, reason in rejected),
        ("", ""),
    )
    write_records(out / "comparison_errors.csv", market.ComparisonError, errors, "")
    by_duration = market.aggregate_plot_data(rows, "duration")
    by_age = market.aggregate_plot_data(rows, "dollar_age_bucket")
    if cfg.output_format == "json":
        write_json(out / "comparison.json", {
            "rows": list(map(record_dict, rows)),
            "errors": list(map(record_dict, errors)),
        })
        write_json(out / "by_duration.json", _plot_json("duration", by_duration))
        write_json(out / "by_dollar_age.json", _plot_json("dollar_age_bucket", by_age))
    else:
        write_records(out / "comparison.csv", market.ComparisonRow, rows, ".6f")
        write_records(out / "by_duration.csv", market.PlotGroup, by_duration, ".6f")
        write_records(out / "by_dollar_age.csv", market.PlotGroup, by_age, ".6f")
    return 0 if rows else 2


def _plot_json(axis: str, groups) -> dict:
    return {"axis": axis, "groups": list(map(record_dict, groups))}


def _cmd_synth(args, cfg: Config) -> int:
    from . import ingest, market, synth
    out = _out_dir(args)
    with read_json(args.spec) as data:
        spec = synth.PopulationSpec.from_json_dict(data)
        if args.seed is not None:
            spec = synth.PopulationSpec(spec.groups, args.seed)
        population = synth.gen_population(spec)
    ingest.write_cashflows_csv(out / "cashflows.csv", population)
    ingest.write_assets_csv(out / "assets.csv", population)

    dataset, _ = ingest.build_dataset(
        population,
        zero_floor=cfg.zero_floor,
        dollar_age_tolerance=cfg.dollar_age_tolerance,
    )
    del population  # the records, freed before the quotes' surfaces are built
    quotes = synth.gen_quotes(
        dataset,
        rate=cfg.rate,
        seed=spec.seed,
        noise=synth.QUOTE_NOISE,
        min_cohort=cfg.min_cohort,
        max_duration=cfg.max_duration,
    )
    market.write_quotes_csv(out / "quotes.csv", quotes)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="royaltyval",
        description="Valuation bands for royalty catalogs from cohort share curves.",
    )
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--out", default=".", help="output directory (default: .)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, handler, help, config_flags, data=None):
        """A subcommand with the given config-override flags, plus the data
        paths when `data` says whether they are required."""
        p = sub.add_parser(name, help=help)
        if data is not None:
            p.add_argument("--cashflows", required=data, help="cashflows.csv path")
            p.add_argument("--assets", required=data, help="assets.csv path")
        for flag in config_flags:
            field, kind, flag_help = _CONFIG_FLAGS[flag]
            default = getattr(Config, field)
            p.add_argument(flag, dest=field, type=kind, help=f"{flag_help} (default {default:g})")
        p.set_defaults(handler=handler)
        return p

    def add_surface_flags(p):
        p.add_argument("--surface", help="surface .csv/.json (alternative to data paths)")
        p.add_argument("--age", type=int, help="base age when building from data")

    add_command("validate", _cmd_validate, "run the ingest filters, write a report",
                ["--tolerance"], data=True)

    p = add_command("curves", _cmd_curves, "build a percentile share surface",
                    ["--tolerance", "--min-cohort", "--max-duration"], data=True)
    p.add_argument("--age", type=int, required=True, help="base age in years")

    p = add_command("multipliers", _cmd_multipliers, "discount a surface into multiplier bands",
                    ["--rate", "--tolerance", "--min-cohort", "--max-duration"], data=False)
    add_surface_flags(p)
    p.add_argument("--durations", type=int, help="longest duration to tabulate")

    p = add_command("value", _cmd_value, "price an LTM figure with the model band",
                    ["--rate", "--tolerance", "--min-cohort", "--max-duration"], data=False)
    add_surface_flags(p)
    p.add_argument("--ltm", type=float, required=True, help="last-twelve-months revenue")
    p.add_argument("--duration", type=int, required=True, help="contract duration in years")

    p = add_command("compare", _cmd_compare, "compare market quotes against model bands",
                    ["--rate", "--tolerance", "--min-cohort", "--max-duration",
                     "--min-bid-ask-ratio"], data=True)
    p.add_argument("--quotes", required=True, help="quotes.csv path")

    p = add_command("synth", _cmd_synth, "generate a synthetic dataset with quotes",
                    ["--rate", "--tolerance", "--min-cohort", "--max-duration"])
    p.add_argument("--spec", required=True, help="population spec JSON")
    p.add_argument("--seed", type=int, help="override the spec's seed")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.handler(args, cfg)
    except MissingCellError as exc:  # a ValueError, so it is caught first
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}")
        return 1
    except ValueError as exc:  # ParseError is a ValueError
        _fail(str(exc))
        return 1
    except MemoryError:
        _fail("out of memory")
        return 1


def run() -> None:
    """The process entry: main, with the heap frozen as the process exits,
    so that the collections at interpreter shutdown skip it."""
    try:
        sys.exit(main())
    finally:  # also on argparse's exit, for --help and usage errors
        gc.freeze()


if __name__ == "__main__":
    run()
