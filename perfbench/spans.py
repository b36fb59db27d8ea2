"""Traced in-process replay of each workload command.

The replay calls the public functions of ``ingest``, ``curves``, ``model``,
``market`` and ``synth`` in the order the CLI command does, with the same
arguments, and records a span around each call. Nothing in the program is
instrumented; spans live in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

from royaltyval import cli, curves, ingest, market, model, synth


@dataclass
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of it that its children cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.seconds - covered


class Tracer:
    """Records spans and counts; one run id per replayed command.

    While installed, a ``gc.callbacks`` hook charges every collection's
    pause to the innermost open span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.gc_pause: dict[str, float] = {}
        self.gc_collections: dict[str, int] = {}
        self._open: list[Span] = []
        self._run = 0
        self._gc_start = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1].id if self._open else None
        if parent is None:
            self._run += 1
        s = Span(len(self.spans), parent, self._run, name, time.perf_counter(), math.nan)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None and self._open:
            name = self._open[-1].name
            self.gc_pause[name] = self.gc_pause.get(name, 0.0) + time.perf_counter() - self._gc_start
            self.gc_collections[name] = self.gc_collections.get(name, 0) + 1
            self._gc_start = None

    @contextlib.contextmanager
    def gc_hook(self):
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "parent": s.parent, "run": s.run, "name": s.name,
             "start": s.start, "end": s.end}
            for s in self.spans
        ]


class NullTracer(Tracer):
    """Same interface, records nothing: the untraced replay."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def add(self, name: str, n: float) -> None:
        pass


# ---------------------------------------------------------------------------
# Replay of each command
# ---------------------------------------------------------------------------

def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _config(argv: list[str]) -> cli.Config:
    path = _flag(argv, "--config")
    return replace(cli.Config(), **cli.load_config_file(path)) if path else cli.Config()


def _load_dataset(t: Tracer, argv: list[str], cfg: cli.Config):
    with t.span("ingest.parse_cashflows"):
        records = ingest.parse_cashflows(_flag(argv, "--cashflows"))
    with t.span("ingest.parse_assets"):
        ages = ingest.parse_assets(_flag(argv, "--assets"))
    with t.span("ingest.assemble_raw_assets"):
        raw = ingest.assemble_raw_assets(records, ages)
    with t.span("ingest.build_dataset"):
        dataset, report = ingest.build_dataset(
            raw, zero_floor=cfg.zero_floor, dollar_age_tolerance=cfg.dollar_age_tolerance
        )
    _count_ingest(t, report)
    return dataset, report


def _count_ingest(t: Tracer, report) -> None:
    t.add("ingest.passes", 1)
    t.counts["ingest.assets"] = report.total
    t.counts["ingest.accepted"] = report.accepted_count


def _build_surface(t: Tracer, dataset, age: int, levels, cfg: cli.Config):
    with t.span("curves.build_surface"):
        surface = curves.build_surface(
            dataset, age, levels, max_horizon=cfg.max_duration, min_cohort=cfg.min_cohort
        )
    t.add("curves.surfaces_with_cells", 1 if surface.cell_horizons() else 0)
    t.add("curves.cohort_members", sum(surface.counts.values()))
    return surface


def _validate(t: Tracer, argv: list[str], cfg: cli.Config, out: Path) -> None:
    _, report = _load_dataset(t, argv, cfg)
    with t.span("ingest.write_filter_report_csv"):
        ingest.write_filter_report_csv(out / "filter_report.csv", report)


def _curves(t: Tracer, argv: list[str], cfg: cli.Config, out: Path) -> None:
    dataset, _ = _load_dataset(t, argv, cfg)
    surface = _build_surface(t, dataset, int(_flag(argv, "--age")), cfg.percentile_levels, cfg)
    with t.span("curves.serialize"):
        curves.surface_to_json_dict(surface)


def _value(t: Tracer, argv: list[str], cfg: cli.Config, out: Path) -> None:
    with t.span("curves.load_surface"):
        surface = curves.load_surface(_flag(argv, "--surface"))
    with t.span("model.multiplier_table"):
        model.multiplier_table(surface, cfg.rate, int(_flag(argv, "--duration")))


def _compare(t: Tracer, argv: list[str], cfg: cli.Config, out: Path) -> None:
    with t.span("market.parse_quotes"):
        quotes = market.parse_quotes(_flag(argv, "--quotes"))
    dataset, _ = _load_dataset(t, argv, cfg)
    with t.span("market.filter_quotes"):
        accepted, _ = market.filter_quotes(quotes, cfg.max_duration, cfg.min_bid_ask_ratio)
    surfaces = {}
    for age in range(1, math.ceil(max(a.dollar_age for a in dataset)) + 1):
        surface = _build_surface(t, dataset, age, market.BAND_LEVELS, cfg)
        if surface.cell_horizons():
            surfaces[age] = surface
    with t.span("market.compare"):
        rows, errors = market.compare(accepted, surfaces, cfg.rate)
    # The multiplier tables market.compare builds, one per accepted quote,
    # made again directly so model's share of compare shows.
    ages = sorted(surfaces)
    for quote in accepted:
        age = min(max(market.round_half_up(quote.dollar_age), ages[0]), ages[-1])
        if age in surfaces:
            with t.span("model.multiplier_table"):
                try:
                    model.multiplier_table(surfaces[age], cfg.rate, quote.duration_years)
                except model.MissingCellError:
                    pass
    with t.span("market.aggregate_plot_data"):
        by_duration = market.aggregate_plot_data(rows, "duration")
        by_age = market.aggregate_plot_data(rows, "dollar_age_bucket")
    with t.span("market.serialize"):
        market.comparison_csv_rows(rows)
        market.plot_csv_rows(by_duration)
        market.plot_csv_rows(by_age)
    t.add("market.quotes", len(quotes))
    t.add("market.accepted", len(accepted))
    t.add("market.rows", len(rows))
    t.add("market.errors", len(errors))


def _synth(t: Tracer, argv: list[str], cfg: cli.Config, out: Path) -> None:
    spec = synth.PopulationSpec.from_json_dict(
        json.loads(Path(_flag(argv, "--spec")).read_text(encoding="utf-8"))
    )
    with t.span("synth.gen_population"):
        population = synth.gen_population(spec)
    with t.span("ingest.write_cashflows_csv"):
        ingest.write_cashflows_csv(out / "cashflows.csv", population)
    with t.span("ingest.write_assets_csv"):
        ingest.write_assets_csv(out / "assets.csv", population)
    with t.span("ingest.build_dataset"):
        dataset, report = ingest.build_dataset(
            population, zero_floor=cfg.zero_floor, dollar_age_tolerance=cfg.dollar_age_tolerance
        )
    _count_ingest(t, report)
    with t.span("synth.gen_quotes"):
        quotes = synth.gen_quotes(
            dataset, rate=cfg.rate, bid_level=10.0, ask_level=50.0, seed=spec.seed,
            noise=0.05, min_cohort=cfg.min_cohort, max_duration=cfg.max_duration,
        )
    with t.span("market.write_quotes_csv"):
        market.write_quotes_csv(out / "quotes.csv", quotes)


REPLAY = {
    "validate": _validate,
    "curves": _curves,
    "value": _value,
    "compare": _compare,
    "synth": _synth,
}


def replay(t: Tracer, commands, rep: Path) -> dict[str, float]:
    """Replay each command under one root span; wall seconds per command."""
    wall = {}
    for cmd in commands:
        argv = cmd.resolve(rep)
        out = cmd.out_dir(rep)
        out.mkdir(parents=True, exist_ok=True)
        start = time.perf_counter()
        with t.span(f"cli.{cmd.name}"):
            REPLAY[cmd.name](t, argv, _config(argv), out)
        wall[cmd.name] = time.perf_counter() - start
    return wall


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

TIMED = (
    "ingest.parse_cashflows",
    "ingest.parse_assets",
    "ingest.assemble_raw_assets",
    "ingest.build_dataset",
    "ingest.write_cashflows_csv",
    "ingest.write_filter_report_csv",
    "curves.build_surface",
    "curves.load_surface",
    "curves.serialize",
    "model.multiplier_table",
    "market.parse_quotes",
    "market.filter_quotes",
    "market.compare",
    "market.aggregate_plot_data",
    "market.serialize",
    "market.write_quotes_csv",
    "synth.gen_population",
    "synth.gen_quotes",
)


# Spans of calls the replay makes on top of what the command does, left
# out of the layer time that cli.self_s subtracts.
REMADE = {("cli.compare", "model.multiplier_table")}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(t: Tracer, records: int, main_s: dict, plain_wall: dict, traced_wall: dict,
                  synth_records: int) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer numbers of one traced pass, and each command's in-process
    time next to its layer spans (``cli.<command>.<layer>_s``).

    Times are sums over calls. ``cli.self_s`` is the in-process
    ``cli.main`` time minus the layer spans of the same commands, and
    ``trace.overhead_s`` the traced replay's wall minus the untraced one's.
    """
    kids: dict[int, list[Span]] = {}
    for s in t.spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    seconds: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_command: dict[str, float] = {}
    for s in t.spans:
        if s.parent is None:
            command = s.name.split(".", 1)[1]
            by_command[f"cli.{command}.main_s"] = main_s[command]
            for c in kids.get(s.id, []):
                if (s.name, c.name) not in REMADE:
                    key = f"cli.{command}.{c.name.split('.')[0]}_s"
                    by_command[key] = by_command.get(key, 0.0) + c.seconds
        else:
            seconds[s.name] = seconds.get(s.name, 0.0) + self_time(s, kids.get(s.id, []))
            calls[s.name] = calls.get(s.name, 0) + 1
    m = {f"{name}_s": seconds.get(name, 0.0) for name in TIMED}

    c = t.counts
    ingest_s = sum(v for k, v in seconds.items() if k.startswith("ingest."))
    m["ingest.records"] = records
    m["ingest.assets"] = c.get("ingest.assets", 0)
    m["ingest.accepted"] = c.get("ingest.accepted", 0)
    m["ingest.accept_ratio"] = _ratio(m["ingest.accepted"], m["ingest.assets"])
    m["ingest.us_per_record"] = _ratio(ingest_s * 1e6, records * c.get("ingest.passes", 0))
    m["ingest.gc_pause_s"] = sum(v for k, v in t.gc_pause.items() if k.startswith("ingest."))
    m["ingest.gc_collections"] = sum(v for k, v in t.gc_collections.items() if k.startswith("ingest."))
    m["curves.build_surface_calls"] = calls.get("curves.build_surface", 0)
    m["curves.surface_yield"] = _ratio(c.get("curves.surfaces_with_cells", 0), m["curves.build_surface_calls"])
    m["curves.cohort_members"] = c.get("curves.cohort_members", 0)
    m["model.multiplier_table_calls"] = calls.get("model.multiplier_table", 0)
    m["market.quotes"] = c.get("market.quotes", 0)
    m["market.rows"] = c.get("market.rows", 0)
    m["market.errors"] = c.get("market.errors", 0)
    m["market.row_yield"] = _ratio(m["market.rows"], c.get("market.accepted", 0))
    m["synth.records"] = synth_records
    m["cli.main_s"] = sum(main_s.values())
    layer_total = sum(v for k, v in by_command.items() if not k.endswith(".main_s"))
    m["cli.self_s"] = m["cli.main_s"] - layer_total
    m["trace.overhead_s"] = sum(traced_wall.values()) - sum(plain_wall.values())
    return m, by_command
