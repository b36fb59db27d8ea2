"""Benchmark workloads: seeded inputs, the CLI commands each one runs, and
the checks every command's outputs must pass.

Inputs are made by the program's own public functions (``synth``,
``ingest``, ``curves``, ``model``, ``market``) from the seed alone, outside
any timed region, and cached per (workload, seed, scale, source digest).
The commands only ever see the generated files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

from royaltyval import cli, curves, ingest, market, model, synth

ROOT = Path(__file__).resolve().parent.parent

# Seed whose output digests are recorded in digests.json.
DEFAULT_SEED = 1
DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"

QUOTE_NOISE = 0.05

# (annual_growth, noise_sigma, age_years, initial_revenue): the four-group
# shape of scripts/market_band_study.py.
CATALOG_GROUPS = (
    (-0.30, 0.10, 4, 40000.0),
    (-0.25, 0.10, 6, 55000.0),
    (-0.20, 0.05, 9, 70000.0),
    (-0.18, 0.05, 14, 90000.0),
)
CATALOG_COUNT = 500
# Base age and duration of the `value` query on catalog-shaped data; the
# 14-year group gives age 5 cells out to horizon 9.
CATALOG_VALUE_AGE = 5
CATALOG_VALUE_DURATION = 9

# Ten groups aged 3..40 years, so base ages reach 39 and horizons reach 30.
DEEP_GROUPS = tuple(
    (-0.12 + 0.01 * i, 0.05 + 0.01 * i, age, 30000.0 + 10000.0 * i)
    for i, age in enumerate((3, 5, 8, 12, 16, 20, 25, 30, 35, 40))
)
DEEP_COUNT = 100
DEEP_QUOTES = 15000
DEEP_MAX_DURATION = 30
DEEP_VALUE_AGE = 5


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``{rep}`` in an argument is the repetition's
    output directory, and each command writes to ``{rep}/<name>``."""

    name: str
    argv: tuple[str, ...]

    def resolve(self, rep: Path) -> list[str]:
        return [a.replace("{rep}", str(rep)) for a in self.argv]

    def out_dir(self, rep: Path) -> Path:
        return rep / self.name


@dataclass(frozen=True)
class Inputs:
    """Generated inputs of one workload plus what the generator knows."""

    workload: str
    seed: int
    scale: float
    commands: tuple[Command, ...]
    main: str
    records: int
    assets: int
    accepted: int
    quotes: int
    digests: dict


def _scaled(count: int, scale: float) -> int:
    # Six is the least that keeps every cohort the commands use at
    # min_cohort (5) or above.
    return max(6, round(count * scale))


def _spec(groups, count: int, seed: int) -> synth.PopulationSpec:
    return synth.PopulationSpec(
        tuple(synth.GroupSpec(count, g, sigma, age, rev) for g, sigma, age, rev in groups),
        seed=seed,
    )


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_surface(path: Path, dataset, age: int, max_horizon: int) -> None:
    surface = curves.build_surface(
        dataset, age, market.BAND_LEVELS, max_horizon=max_horizon, min_cohort=cli.Config.min_cohort
    )
    _write_json(path, curves.surface_to_json_dict(surface))


def _records(spec: synth.PopulationSpec, months_per_record: int) -> int:
    return sum(g.count * g.age_years * 12 // months_per_record for g in spec.groups)


def _value_command(surface: str, duration: int) -> Command:
    return Command(
        "value", ("value", "--surface", surface, "--ltm", "50000", "--duration", str(duration))
    )


def _gen_catalog(d: Path, seed: int, scale: float) -> dict:
    """Monthly synth catalog: what `royaltyval synth` writes, plus a surface."""
    spec = _spec(CATALOG_GROUPS, _scaled(CATALOG_COUNT, scale), seed)
    population = synth.gen_population(spec)
    ingest.write_cashflows_csv(d / "cashflows.csv", population)
    ingest.write_assets_csv(d / "assets.csv", population)
    cfg = cli.Config()
    dataset, _ = ingest.build_dataset(population)
    quotes = synth.gen_quotes(
        dataset, rate=cfg.rate, bid_level=10.0, ask_level=50.0, seed=seed,
        noise=QUOTE_NOISE, min_cohort=cfg.min_cohort, max_duration=cfg.max_duration,
    )
    market.write_quotes_csv(d / "quotes.csv", quotes)
    _write_surface(d / "surface.json", dataset, CATALOG_VALUE_AGE, cfg.max_duration)
    n = len(population)
    return {"records": _records(spec, 1), "assets": n, "accepted": n, "quotes": len(quotes)}


def _gen_synth(d: Path, seed: int, scale: float) -> dict:
    """The catalog's population spec, and a surface for the `value` query."""
    spec = _spec(CATALOG_GROUPS, _scaled(CATALOG_COUNT, scale), seed)
    _write_json(d / "spec.json", spec.to_json_dict())
    population = synth.gen_population(spec)
    dataset, _ = ingest.build_dataset(population)
    _write_surface(d / "surface.json", dataset, CATALOG_VALUE_AGE, cli.Config.max_duration)
    n = len(population)
    return {"records": _records(spec, 1), "assets": n, "accepted": n, "quotes": 0}


def _to_quarterly(monthly: Path, quarterly: Path) -> None:
    """Sum each run of three monthly rows of one asset into a quarterly row.

    Synth assets start in January and live whole years, so the months
    group into calendar quarters exactly.
    """
    with open(monthly, encoding="utf-8", newline="") as src, open(
        quarterly, "w", encoding="utf-8", newline=""
    ) as dst:
        reader = csv.reader(src)
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(next(reader))
        rows = list(reader)
        for k in range(0, len(rows), 3):
            group = rows[k : k + 3]
            if {r[0] for r in group} != {group[0][0]} or len(group) != 3:
                raise ValueError(f"quarter at row {k + 2} spans assets")
            cents = sum(int(r[3].replace(".", "")) for r in group)
            writer.writerow((group[0][0], group[0][1], "3", f"{cents // 100}.{cents % 100:02d}"))


def _grid_quotes(dataset, seed: int, target: int) -> list:
    """Quotes over every (base age, duration 1..30) cell the data supports.

    Bids sit on the m10 multiplier and asks on m50, each with independent
    uniform noise of QUOTE_NOISE, as synth.gen_quotes places them.
    """
    cfg = cli.Config(max_duration=DEEP_MAX_DURATION)
    cells = []
    for t in range(1, math.ceil(max(a.dollar_age for a in dataset)) + 1):
        surface = curves.build_surface(
            dataset, t, market.BAND_LEVELS, max_horizon=cfg.max_duration, min_cohort=cfg.min_cohort
        )
        celled = surface.cell_horizons()
        if not celled:
            continue
        table = model.multiplier_table(surface, cfg.rate, celled[-1])
        cells += [(t, d, table.entry(d, 10.0), table.entry(d, 50.0)) for d in range(1, celled[-1] + 1)]
    per_cell = math.ceil(target / len(cells))
    rng = random.Random(seed)
    quotes = []
    for t, d, m10, m50 in cells:
        for k in range(per_cell):
            ltm = round(rng.lognormvariate(math.log(50000.0), 0.5), 2)
            quotes.append(
                market.MarketQuote(
                    asset_id=f"Q{t:02d}D{d:02d}N{k:03d}",
                    ltm=ltm,
                    best_bid=ltm * m10 * (1.0 + rng.uniform(-QUOTE_NOISE, QUOTE_NOISE)),
                    ask=ltm * m50 * (1.0 + rng.uniform(-QUOTE_NOISE, QUOTE_NOISE)),
                    duration_years=d,
                    dollar_age=t + rng.uniform(-0.45, 0.45),
                )
            )
    return quotes


def _gen_deep(d: Path, seed: int, scale: float) -> dict:
    """Quarterly panel of ten groups aged 3..40 and a dense quote grid."""
    spec = _spec(DEEP_GROUPS, _scaled(DEEP_COUNT, scale), seed)
    population = synth.gen_population(spec)
    ingest.write_cashflows_csv(d / "monthly.csv", population)
    _to_quarterly(d / "monthly.csv", d / "cashflows.csv")
    (d / "monthly.csv").unlink()
    ingest.write_assets_csv(d / "assets.csv", population)
    _write_json(d / "config.json", {"max_duration": DEEP_MAX_DURATION})
    dataset, _ = ingest.build_dataset(population)
    quotes = _grid_quotes(dataset, seed, max(200, round(DEEP_QUOTES * scale)))
    market.write_quotes_csv(d / "quotes.csv", quotes)
    n = len(population)
    return {"records": _records(spec, 3), "assets": n, "accepted": n, "quotes": len(quotes)}


def _commands(workload: str, d: Path) -> tuple[tuple[Command, ...], str]:
    """The workload's command sequence and the name of its main command."""
    data = ("--cashflows", str(d / "cashflows.csv"), "--assets", str(d / "assets.csv"))
    if workload == "monthly_catalog":
        return (
            Command("validate", ("--out", "{rep}/validate", "validate", *data)),
            _value_command(str(d / "surface.json"), CATALOG_VALUE_DURATION),
            Command("compare", ("--out", "{rep}/compare", "compare", *data,
                                "--quotes", str(d / "quotes.csv"))),
        ), "validate"
    if workload == "quarterly_deep":
        config = ("--config", str(d / "config.json"))
        return (
            Command("curves", (*config, "--format", "json", "--out", "{rep}/curves", "curves",
                               *data, "--age", str(DEEP_VALUE_AGE))),
            _value_command(f"{{rep}}/curves/surface_age{DEEP_VALUE_AGE}.json", DEEP_MAX_DURATION),
            Command("compare", (*config, "--out", "{rep}/compare", "compare", *data,
                                "--quotes", str(d / "quotes.csv"))),
        ), "compare"
    if workload == "synth_population":
        return (
            Command("synth", ("--out", "{rep}/synth", "synth", "--spec", str(d / "spec.json"))),
            _value_command(str(d / "surface.json"), CATALOG_VALUE_DURATION),
        ), "synth"
    raise ValueError(f"unknown workload {workload!r}")


GENERATORS = {
    "monthly_catalog": _gen_catalog,
    "quarterly_deep": _gen_deep,
    "synth_population": _gen_synth,
}
WORKLOADS = tuple(GENERATORS)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def dir_digests(d: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(d.iterdir()) if p.is_file()}


def _source_digest() -> str:
    """Digest of the program and generator sources, so a cache made by
    other code is never reused."""
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "royaltyval").glob("*.py")) + [Path(__file__)]:
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def prepare(workload: str, seed: int, cache: Path, scale: float = 1.0) -> Inputs:
    """Generate (or reuse) the workload's inputs under ``cache``.

    Only the newest seed of each workload is kept, so repeated runs with
    fresh seeds do not fill the disk.
    """
    generate = GENERATORS[workload]
    key = f"seed{seed}-scale{scale:g}-{_source_digest()}"
    d = cache / workload / key
    meta_path = d / "meta.json"
    if not meta_path.is_file():
        if (cache / workload).exists():
            shutil.rmtree(cache / workload)
        tmp = cache / workload / (key + ".tmp")
        tmp.mkdir(parents=True)
        meta = generate(tmp, seed, scale)
        meta["digests"] = dir_digests(tmp)
        _write_json(tmp / "meta.json", meta)
        os.replace(tmp, d)
    meta = json.loads(meta_path.read_text(encoding="utf-8"))
    commands, main = _commands(workload, d)
    return Inputs(workload, seed, scale, commands, main, meta["records"], meta["assets"],
                  meta["accepted"], meta["quotes"], meta["digests"])


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8", newline="") as handle:
        return sum(1 for _ in csv.reader(handle)) - 1


def check_outputs(cmd: Command, rep: Path, stdout: bytes, inputs: Inputs) -> list[str]:
    """Problems with one command's outputs; empty when they are right."""
    out = cmd.out_dir(rep)
    problems = []
    try:
        if cmd.name == "validate":
            summary = json.loads((out / "filter_summary.json").read_text(encoding="utf-8"))
            expected = (inputs.assets, inputs.accepted, inputs.assets - inputs.accepted)
            got = (summary["total"], summary["accepted"], summary["rejected"])
            if got != expected:
                problems.append(f"filter_summary (total, accepted, rejected) {got} != {expected}")
        elif cmd.name == "compare":
            rows = _csv_rows(out / "comparison.csv")
            seen = rows + _csv_rows(out / "comparison_errors.csv") + _csv_rows(out / "rejected_quotes.csv")
            if seen != inputs.quotes or rows < 1:
                problems.append(f"{rows} rows; rows + errors + rejected = {seen}, quotes = {inputs.quotes}")
        elif cmd.name == "curves":
            surface = json.loads((out / f"surface_age{DEEP_VALUE_AGE}.json").read_text(encoding="utf-8"))
            if surface["base_age"] != DEEP_VALUE_AGE or len(surface["counts"]) != DEEP_MAX_DURATION:
                problems.append("surface has the wrong base age or horizon count")
        elif cmd.name == "value":
            lines = stdout.decode("utf-8").splitlines()
            if len(lines) != 4 or lines[0] != "level,multiplier,price":
                problems.append(f"value printed {lines!r}")
        elif cmd.name == "synth":
            got = (_csv_rows(out / "cashflows.csv"), _csv_rows(out / "assets.csv"))
            if got != (inputs.records, inputs.assets):
                problems.append(f"synth wrote (records, assets) {got} != {(inputs.records, inputs.assets)}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable output: {exc!r}")
    return problems


def output_digests(cmd: Command, rep: Path, stdout: bytes) -> dict[str, str]:
    """SHA-256 of every file the command wrote, and of its standard output."""
    out = cmd.out_dir(rep)
    digests = dir_digests(out) if out.is_dir() else {}
    digests["<stdout>"] = hashlib.sha256(stdout).hexdigest()
    return digests


def recorded_digests(inputs: Inputs) -> dict | None:
    """Digests recorded for this workload at the default seed and full size."""
    if inputs.seed != DEFAULT_SEED or inputs.scale != 1.0 or not DIGESTS_FILE.is_file():
        return None
    return json.loads(DIGESTS_FILE.read_text(encoding="utf-8")).get(inputs.workload)
