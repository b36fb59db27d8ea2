import contextlib
import csv
import io
import json
from decimal import Decimal
from pathlib import Path

from royaltyval.cli import main
from royaltyval.ingest import RawAsset


def csv_writer_line(cells) -> str:
    """The line csv.writer writes for `cells`: the oracle of the package's
    CSV cells. Its line end is "\\r\\n", so that it quotes a carriage return
    on every Python, cut back to "\\n" for the row alone; a quoted "\\r\\n"
    inside a cell stays."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2] + "\n"


def month(year, m):
    """Month index of calendar month m (1..12) of year."""
    return year * 12 + m - 1


def cents(amount):
    """Exact integer cents of an int, float, str or Decimal amount."""
    value = Decimal(str(amount)).scaleb(2)
    if value != value.to_integral_value():
        raise ValueError(f"{amount!r} is not cent-precise")
    return int(value)


def monthly_records(amounts, start=month(2019, 1)):
    """Consecutive monthly (month_index, 1, cents) records from `start`."""
    return tuple((start + k, 1, cents(a)) for k, a in enumerate(amounts))


def quarterly_records(amounts, start=month(2019, 1)):
    """Consecutive quarterly (month_index, 3, cents) records from `start`."""
    return tuple((start + 3 * k, 3, cents(a)) for k, a in enumerate(amounts))


def columns(records):
    """(starts, months, cents) columns of (month_index, period_months,
    cents) records, in the records' order."""
    return tuple(map(tuple, zip(*records))) or ((), (), ())


def records_of(asset):
    """A RawAsset's cashflows as (month_index, period_months, cents) records."""
    return tuple(zip(asset.starts, asset.months, asset.cents))


def tagged(asset_id, records):
    """Records in the {asset_id: columns} form that parse_cashflows returns."""
    return {asset_id: columns(records)}


def raw_monthly_asset(asset_id, amounts, dollar_age=None, start=month(2019, 1)):
    """RawAsset with monthly records; dollar age defaults to the span."""
    if dollar_age is None:
        dollar_age = len(amounts) / 12.0
    return RawAsset(asset_id, dollar_age, *columns(monthly_records(amounts, start)))


# The CLI command list of acceptance criterion C8; tests/test_golden.py runs
# the same list through run_c8 and compares its outputs with the committed
# bytes. This module imports no test library, so that other interpreters
# run it too.
C8_SPEC = {
    "seed": 81,
    "groups": [
        {"count": 5, "annual_growth": -0.2, "noise_sigma": 0.1, "age_years": 5, "initial_revenue": 24000.0},
        {"count": 5, "annual_growth": -0.3, "noise_sigma": 0.0, "age_years": 9, "initial_revenue": 36000.0},
    ],
}


def c8_commands(spec_path, out):
    """argv lists: synth into `out`, then every command on what synth wrote."""
    data = str(out)
    inputs = ["--cashflows", f"{data}/cashflows.csv", "--assets", f"{data}/assets.csv"]
    return [
        ["--out", data, "synth", "--spec", str(spec_path)],
        ["--out", data, "validate", *inputs],
        ["--out", data, "curves", *inputs, "--age", "1"],
        ["--out", data, "--format", "json", "curves", *inputs, "--age", "2"],
        ["--out", data, "multipliers", *inputs, "--age", "1", "--durations", "4"],
        ["value", *inputs, "--age", "1", "--ltm", "12345", "--duration", "4"],
        ["--out", data, "compare", *inputs, "--quotes", f"{data}/quotes.csv"],
        ["--out", f"{data}/json", "--format", "json", "multipliers", *inputs, "--age", "1", "--durations", "4"],
        ["--out", f"{data}/json", "--format", "json", "compare", *inputs, "--quotes", f"{data}/quotes.csv"],
    ]


COMMANDS = {"synth", "validate", "curves", "multipliers", "value", "compare"}


def run_c8(workdir: Path) -> dict[str, str]:
    """Run the C8 commands with outputs in workdir/out; stdout per command."""
    spec_path = workdir / "population.json"
    spec_path.write_text(json.dumps(C8_SPEC))
    stdouts = {}
    for n, argv in enumerate(c8_commands(spec_path, workdir / "out"), start=1):
        command = next(a for a in argv if a in COMMANDS)
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0, argv
        stdouts[f"{n}-{command}.txt"] = buffer.getvalue()
    return stdouts
