import csv
import gc
import inspect
import json
import os
import re
import subprocess
import sys
import threading
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import pytest

from royaltyval import cli, curves, ingest, market, model, synth
from royaltyval.cli import Config, load_config_file, main
from royaltyval.ingest import write_assets_csv, write_cashflows_csv
from royaltyval.market import (
    ComparisonError,
    ComparisonRow,
    MarketQuote,
    PlotGroup,
    write_quotes_csv,
)
from royaltyval.synth import GroupSpec, PopulationSpec, gen_population, gen_quotes

SRC = Path(__file__).resolve().parents[1] / "src"


def annuity(rate, d):
    if rate == 0:
        return float(d)
    return (1.0 - (1.0 + rate) ** -d) / rate


def write_flat_surface(path, base_age=1, horizons=10):
    payload = {
        "base_age": base_age,
        "levels": [10.0, 50.0, 90.0],
        "counts": {str(i): 5 for i in range(1, horizons + 1)},
        "cells": [
            {"horizon": i, "level": p, "share": 1.0}
            for i in range(1, horizons + 1)
            for p in (10.0, 50.0, 90.0)
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def flat_population_files(tmp_path, count=5, age=6):
    spec = PopulationSpec((GroupSpec(count, 0.0, 0.0, age, 1200.0),), seed=3)
    population = gen_population(spec)
    cashflows = tmp_path / "cashflows.csv"
    assets = tmp_path / "assets.csv"
    write_cashflows_csv(cashflows, population)
    write_assets_csv(assets, population)
    return cashflows, assets


SURFACE_CSV_HEADER = "base_age,horizon,level,share,cohort_size\n"


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@contextmanager
def named_pipe(path, data: bytes):
    """A named pipe at `path` that one thread fills with `data`, once a
    reader opens it."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    writer.start()
    yield path
    writer.join(timeout=10)
    assert not writer.is_alive(), "the pipe was never read"


def run_python_child(code, *argv):
    """`python -c code *argv` in a fresh interpreter that imports the
    package from this checkout, stopped after a minute."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def run_cli_child(*argv):
    """The CLI run in a child process, so that a read blocked on a pipe
    fails the test after a minute rather than hanging it."""
    return run_python_child("import sys; from royaltyval.cli import main; sys.exit(main())", *argv)


class TestValidate:
    def test_clean_dataset_exits_zero(self, tmp_path, capsys):
        cashflows, assets = flat_population_files(tmp_path)
        code = main(
            ["--out", str(tmp_path), "validate", "--cashflows", str(cashflows), "--assets", str(assets)]
        )
        assert code == 0
        assert "accepted 5 of 5" in capsys.readouterr().out
        summary = json.loads((tmp_path / "filter_summary.json").read_text())
        assert summary["accepted"] == 5
        rows = read_rows(tmp_path / "filter_report.csv")
        assert rows[0] == ["asset_id", "status", "reason"]
        assert len(rows) == 6

    def test_all_rejected_exits_two(self, tmp_path):
        (tmp_path / "cashflows.csv").write_text(
            "asset_id,period_start,period_months,amount\n"
            + "".join(f"A,2019-{m:02d},1,10.00\n" for m in range(1, 13))
        )
        (tmp_path / "assets.csv").write_text("asset_id,dollar_age\nA,9.9\n")
        code = main(
            [
                "--out",
                str(tmp_path),
                "validate",
                "--cashflows",
                str(tmp_path / "cashflows.csv"),
                "--assets",
                str(tmp_path / "assets.csv"),
            ]
        )
        assert code == 2

    def test_missing_file_exits_one_and_names_path(self, tmp_path, capsys):
        code = main(
            [
                "validate",
                "--cashflows",
                str(tmp_path / "nope.csv"),
                "--assets",
                str(tmp_path / "assets.csv"),
            ]
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,name,reason",
        [
            ("--cashflows", "nope.csv", "No such file or directory"),
            ("--cashflows", ".", "Is a directory"),
            ("--out", "cashflows.csv/x", "Not a directory"),
        ],
        ids=["missing", "directory", "out_below_a_file"],
    )
    def test_path_that_cannot_be_opened_exits_one_naming_it(
        self, tmp_path, capsys, flag, name, reason
    ):
        cashflows, assets = flat_population_files(tmp_path)
        paths = {"--out": tmp_path / "out", "--cashflows": cashflows, flag: tmp_path / name}
        argv = ["--out", str(paths["--out"]), "validate", "--cashflows", str(paths["--cashflows"])]
        assert main(argv + ["--assets", str(assets)]) == 1
        assert capsys.readouterr().err == f"error: {paths[flag]}: {reason}\n"

    def test_parse_error_exits_one_with_line(self, tmp_path, capsys):
        (tmp_path / "cashflows.csv").write_text(
            "asset_id,period_start,period_months,amount\nA,2019-01,2,10.00\n"
        )
        (tmp_path / "assets.csv").write_text("asset_id,dollar_age\nA,1.0\n")
        code = main(
            [
                "validate",
                "--cashflows",
                str(tmp_path / "cashflows.csv"),
                "--assets",
                str(tmp_path / "assets.csv"),
            ]
        )
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "asset_ids,message",
        [
            (["B"], "cashflows reference unknown assets: A"),
            (["A", "B"], "assets have no cashflows: B"),
        ],
        ids=["unknown", "no_cashflows"],
    )
    def test_mismatched_files_exit_one_naming_both(self, tmp_path, capsys, asset_ids, message):
        cashflows, assets = tmp_path / "cashflows.csv", tmp_path / "assets.csv"
        cashflows.write_text("asset_id,period_start,period_months,amount\nA,2019-01,1,10.00\n")
        assets.write_text("asset_id,dollar_age\n" + "".join(f"{i},1.0\n" for i in asset_ids))
        code = main(["validate", "--cashflows", str(cashflows), "--assets", str(assets)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {cashflows}, {assets}: {message}\n"

    def test_amount_too_large_for_a_float_exits_one_at_its_line(self, tmp_path, capsys):
        cashflows, assets = flat_population_files(tmp_path)
        rows = cashflows.read_text().splitlines(keepends=True)
        rows[2] = rows[2].rsplit(",", 1)[0] + ",1" + "0" * 400 + "\n"
        cashflows.write_text("".join(rows))
        code = main(["validate", "--cashflows", str(cashflows), "--assets", str(assets)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {cashflows}:line 3: bad amount of 401 characters (too many digits to read)\n"
        )

    @pytest.mark.parametrize("kind", ["cashflows", "assets", "quotes", "surface"])
    def test_oversized_field_exits_one_with_line(self, tmp_path, capsys, kind):
        big = "1" * 200_000
        files = {
            "cashflows": "asset_id,period_start,period_months,amount\nA,2019-01,1,10.00\n",
            "assets": "asset_id,dollar_age\nA,1.0\n",
            "quotes": "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ,1,1,2,1,1.0\n",
            "surface": "base_age,horizon,level,share,cohort_size\n1,1,10,1.0,5\n",
        }
        files[kind] += {
            "cashflows": f"A,2019-02,1,{big}\n",
            "assets": f"B,{big}\n",
            "quotes": f"R,{big},1,2,1,1.0\n",
            "surface": f"1,1,50,{big},5\n",
        }[kind]
        paths = {}
        for name, text in files.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        if kind == "surface":
            argv = ["multipliers", "--surface", str(paths["surface"])]
        else:
            argv = ["compare", "--quotes", str(paths["quotes"])]
            argv += ["--cashflows", str(paths["cashflows"]), "--assets", str(paths["assets"])]
        code = main(["--out", str(tmp_path / "out")] + argv)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {paths[kind]}:line 3: a field is longer than the csv limit of 131072 characters\n"
        )


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
class TestValidateFromAPipe:
    def test_pipe_gives_the_regular_files_outputs(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        with named_pipe(tmp_path / "cashflows.pipe", cashflows.read_bytes()) as pipe:
            for source, out in ((cashflows, "from_file"), (pipe, "from_pipe")):
                argv = ["validate", "--cashflows", str(source), "--assets", str(assets)]
                assert run_cli_child("--out", str(tmp_path / out), *argv).returncode == 0
        for name in ("filter_report.csv", "filter_summary.json"):
            from_pipe = (tmp_path / "from_pipe" / name).read_bytes()
            assert from_pipe == (tmp_path / "from_file" / name).read_bytes()

    def test_non_utf8_pipe_exits_one_naming_it(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        lines = cashflows.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
        with named_pipe(tmp_path / "cashflows.pipe", b"\n".join(lines)) as pipe:
            argv = ["validate", "--cashflows", str(pipe), "--assets", str(assets)]
            result = run_cli_child("--out", str(tmp_path / "out"), *argv)
        assert result.returncode == 1
        assert result.stderr == f"error: {pipe}: not UTF-8: b'\\xff' (invalid start byte)\n"


class TestCurves:
    def test_flat_population_gives_unit_shares(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        code = main(
            [
                "--out",
                str(tmp_path),
                "curves",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--age",
                "1",
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "surface_age1.csv")
        assert rows[0] == ["base_age", "horizon", "level", "share", "cohort_size"]
        body = rows[1:]
        assert len(body) == 5 * 3  # horizons 1..5, three levels
        assert all(r[3] == "1.000000" for r in body)

    def test_age_beyond_history_exits_two(self, tmp_path, capsys):
        cashflows, assets = flat_population_files(tmp_path)
        code = main(
            [
                "--out",
                str(tmp_path),
                "curves",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--age",
                "40",
            ]
        )
        assert code == 2
        assert "no cohort" in capsys.readouterr().err

    def test_config_levels_respected(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"percentile_levels": [25, 75]}))
        code = main(
            [
                "--config",
                str(config),
                "--out",
                str(tmp_path),
                "--format",
                "json",
                "curves",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--age",
                "1",
            ]
        )
        assert code == 0
        surface = json.loads((tmp_path / "surface_age1.json").read_text())
        assert surface["levels"] == [25.0, 75.0]


class TestMultipliers:
    def test_flat_surface_matches_annuity(self, tmp_path):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["--out", str(tmp_path), "multipliers", "--surface", str(surface), "--durations", "10"]
        )
        assert code == 0
        rows = read_rows(tmp_path / "multipliers_age1.csv")
        assert rows[0] == ["base_age", "duration", "level", "multiplier"]
        for row in rows[1:]:
            d = int(row[1])
            assert row[3] == f"{annuity(0.10, d):.6f}"

    def test_zero_rate_gives_duration(self, tmp_path):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            [
                "--out",
                str(tmp_path),
                "multipliers",
                "--surface",
                str(surface),
                "--rate",
                "0",
                "--durations",
                "4",
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "multipliers_age1.csv")
        assert [r[3] for r in rows[1:] if r[2] == "50"] == [
            "1.000000",
            "2.000000",
            "3.000000",
            "4.000000",
        ]

    def test_missing_horizon_exits_two(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json", horizons=3)
        code = main(
            ["--out", str(tmp_path), "multipliers", "--surface", str(surface), "--durations", "5"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: surface has no cell at horizon=4, level=10\n"
        assert captured.out == ""
        assert list(tmp_path.glob("multipliers_age*")) == []

    def test_non_positive_durations_names_the_flag(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["--out", str(tmp_path), "multipliers", "--surface", str(surface), "--durations", "0"]
        )
        assert code == 1
        assert capsys.readouterr().err == "error: --durations must be >= 1\n"

    def test_rate_past_the_float_power_range_exits_zero(self, tmp_path):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["--out", str(tmp_path), "multipliers", "--surface", str(surface),
             "--rate", "1e300", "--durations", "2"]
        )
        assert code == 0
        rows = read_rows(tmp_path / "multipliers_age1.csv")[1:]
        assert [row[3] for row in rows] == ["0.000000"] * 6

    def test_from_data_paths(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        code = main(
            [
                "--out",
                str(tmp_path),
                "multipliers",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--age",
                "1",
                "--durations",
                "5",
            ]
        )
        assert code == 0
        assert (tmp_path / "multipliers_age1.csv").exists()


class TestValue:
    def test_annuity_price_band(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["value", "--surface", str(surface), "--ltm", "10000", "--duration", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "level,multiplier,price"
        assert out[2] == "50,6.144567,61445.67"

    def test_unit_ltm_prices_equal_multipliers(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "7"])
        assert code == 0
        for line in capsys.readouterr().out.splitlines()[1:]:
            _, mult, shown_price = line.split(",")
            assert shown_price == f"{round(float(mult), 2):.2f}"

    def test_duration_beyond_surface_exits_two(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json", horizons=4)
        code = main(["value", "--surface", str(surface), "--ltm", "100", "--duration", "9"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == "error: surface has no cell at horizon=5, level=10\n"
        assert captured.out == ""

    @pytest.mark.parametrize("duration", [1, 3])
    def test_surface_without_the_band_levels_exits_two(self, tmp_path, capsys, duration):
        surface = write_flat_surface(tmp_path / "surface.json", horizons=4)
        payload = json.loads(surface.read_text())
        payload["levels"] = [50.0, 90.0]
        payload["cells"] = [c for c in payload["cells"] if c["level"] != 10.0]
        surface.write_text(json.dumps(payload))
        code = main(
            ["value", "--surface", str(surface), "--ltm", "100", "--duration", str(duration)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: surface has no cell at horizon={duration}, level=10\n"
        assert captured.out == ""

    def test_overflowing_price_exits_one(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(["value", "--surface", str(surface), "--ltm", "1e308", "--duration", "9"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: price of multiplier ")
        assert captured.err.endswith(" times ltm 1e+308 is not finite\n")

    def test_non_positive_ltm_is_usage_error(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(["value", "--surface", str(surface), "--ltm", "-5", "--duration", "3"])
        assert code == 1
        assert capsys.readouterr().err == "error: --ltm must be a positive amount\n"

    def test_non_positive_duration_names_the_flag(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: --duration must be >= 1\n"

    @pytest.mark.parametrize("duration", ["1", "3"])
    def test_surface_with_a_gap_in_its_cells_exits_one(self, tmp_path, capsys, duration):
        surface = write_flat_surface(tmp_path / "surface.json", horizons=3)
        payload = json.loads(surface.read_text())
        payload["cells"] = [c for c in payload["cells"] if c["horizon"] != 2]
        surface.write_text(json.dumps(payload))
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", duration])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {surface}: cells must fill horizons 1..K at every level, for some K <= 3\n"
        )

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"counts": [1]}, "counts must be an object"),
            ({"cells": [1]}, "cells[0] must be a JSON object"),
            ({"cells": {"horizon": 1}}, "cells must be a list of objects"),
            ({"base_age": float("inf")}, "base_age must be an integer, got inf"),
            (
                {"cells": [{"horizon": 1, "level": 10.0, "share": "0.\u0665"}]},
                "share must be a number, got '0.\u0665'",
            ),
            ({"base_age": "1"}, "base_age must be an integer, got '1'"),
            (
                {"cells": [{"horizon": 1, "level": 10.0, "share": 1.0}] * 2},
                "repeated cell at horizon 1, level 10",
            ),
            ({"counts": {"1": 5, "01": 5}}, "counts name a horizon twice"),
            ({"rate": 0.1}, "surface: unknown keys ['rate']"),
            (
                {"cells": [{"horizon": 1, "level": 50.0, "share": 1.0, "sharee": 2.0}]},
                "cells[0]: unknown keys ['sharee']",
            ),
            ({"levels": 5}, "levels must be a list"),
            ({"levels": [10.0, 50.0, 150.0]}, "percentile level 150.0 outside (0, 100)"),
            ({"levels": []}, "at least one percentile level required"),
            ({"counts": {"1": -5}}, "negative cohort count at horizon 1"),
            ({"counts": {"x": 5}}, "bad integer 'x'"),
            (
                {"cells": [{"horizon": 1, "level": p, "share": -1.0} for p in (10.0, 50.0, 90.0)]},
                "share at (1, 10) must be finite and >= 0",
            ),
            ({"cells": [{"level": 10.0, "share": 1.0}]}, "cells[0]: missing keys ['horizon']"),
            (
                {
                    "levels": [10.0, 10.0000001, 50.0, 90.0],
                    "cells": [
                        {"horizon": i, "level": p, "share": 1.0}
                        for i in range(1, 11)
                        for p in (10.0, 10.0000001, 50.0, 90.0)
                    ],
                },
                "percentile_levels must differ at six significant digits",
            ),
        ],
    )
    def test_malformed_surface_json_exits_one(self, tmp_path, capsys, change, message):
        surface = write_flat_surface(tmp_path / "surface.json")
        payload = json.loads(surface.read_text())
        payload.update(change)
        surface.write_text(json.dumps(payload))
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {surface}: {message}\n"

    @pytest.mark.parametrize(
        "body,message",
        [
            ("", "line 1: file is empty, expected a header row"),
            (
                "base_age,horizon,level,share\n",
                "line 1: bad header ['base_age', 'horizon', 'level', 'share'], "
                "expected base_age,horizon,level,share,cohort_size",
            ),
            (SURFACE_CSV_HEADER + "1,1,10,1.0\n", "line 2: expected 5 fields, got 4"),
            (SURFACE_CSV_HEADER + "1,1,10,x,5\n", "line 2: bad number 'x'"),
            (
                SURFACE_CSV_HEADER + "1,1,10,0.\u0665,5\n",
                "line 2: bad number '0.\u0665' (ASCII digits only, no underscores)",
            ),
            (SURFACE_CSV_HEADER + "1,1,10,1.0,5\n2,1,10,1.0,5\n", "line 3: surface rows mix base ages"),
            (
                SURFACE_CSV_HEADER + "1,10000000000,10,1.0,5\n",
                " counts must cover horizons 1..H contiguously",
            ),
            (
                SURFACE_CSV_HEADER + "1,1,10,1.0,5\n1,1,50,1.0,5\n1,1,10.0,2.0,5\n",
                "line 4: repeated cell at horizon 1, level 10",
            ),
            (
                SURFACE_CSV_HEADER + "1,1,10,1.0,5\n1,1,50,1.0,6\n",
                "line 3: cohort_size 6 at horizon 1 differs from 5",
            ),
            (SURFACE_CSV_HEADER, " no surface rows"),
            (SURFACE_CSV_HEADER + "1,1.5,10,1.0,5\n", "line 2: bad integer '1.5'"),
            (
                SURFACE_CSV_HEADER + "1," + "1" * 5000 + ",10,1.0,5\n",
                f"line 2: bad integer '{'1' * 40}…' (5000 characters)",
            ),
            (
                SURFACE_CSV_HEADER
                + "".join(f"1,1,{p},1.0,5\n" for p in ("10", "10.0000001", "50", "90")),
                " percentile_levels must differ at six significant digits",
            ),
        ],
        ids=[
            "empty", "header", "fields", "number", "arabic_digit", "mixed_ages", "huge_horizon",
            "repeated_cell", "cohort_size_differs", "header_only", "integer", "integer_5000_digits",
            "levels_alike_at_six_digits",
        ],
    )
    def test_malformed_surface_csv_exits_one(self, tmp_path, capsys, body, message):
        surface = tmp_path / "surface.csv"
        surface.write_text(body, encoding="utf-8")
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "1"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {surface}:{message}\n"

    def test_shares_summing_past_the_float_range_exit_one(self, tmp_path, capsys):
        path = tmp_path / "surface.csv"
        cells = ((10, "1"), (50, "1e308"), (90, "1e308"))
        path.write_text(
            SURFACE_CSV_HEADER + "".join(f"1,{i},{p},{s},5\n" for i in (1, 2, 3) for p, s in cells)
        )
        code = main(["value", "--surface", str(path), "--ltm", "10", "--duration", "3"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: shares at level 90 sum past the float range\n"
        )

    def test_non_object_surface_json_exits_one(self, tmp_path, capsys):
        surface = tmp_path / "surface.json"
        surface.write_text("[1, 2]")
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {surface}: surface must be a JSON object\n"

    def test_surface_json_without_a_key_exits_one(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        payload = json.loads(surface.read_text())
        del payload["base_age"]
        surface.write_text(json.dumps(payload))
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "2"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {surface}: surface: missing keys ['base_age']\n"

    def test_neither_surface_nor_data_exits_one(self, capsys):
        assert main(["multipliers"]) == 1
        assert capsys.readouterr().err == (
            "error: need either --surface or --cashflows/--assets/--age\n"
        )


class TestCompare:
    def _dataset_files(self, tmp_path):
        spec = PopulationSpec(
            (
                GroupSpec(6, -0.3, 0.0, 4, 50000.0),
                GroupSpec(6, -0.25, 0.0, 6, 60000.0),
                GroupSpec(6, -0.2, 0.0, 14, 80000.0),
            ),
            seed=8,
        )
        population = gen_population(spec)
        cashflows = tmp_path / "cashflows.csv"
        assets = tmp_path / "assets.csv"
        write_cashflows_csv(cashflows, population)
        write_assets_csv(assets, population)
        from royaltyval.ingest import build_dataset

        dataset, _ = build_dataset(population)
        return cashflows, assets, dataset

    def test_noise_free_quotes_have_zero_gaps(self, tmp_path):
        cashflows, assets, dataset = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        write_quotes_csv(quotes_path, gen_quotes(dataset, seed=8, noise=0.0))
        code = main(
            [
                "--out",
                str(tmp_path),
                "compare",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--quotes",
                str(quotes_path),
            ]
        )
        assert code == 0
        rows = read_rows(tmp_path / "comparison.csv")[1:]
        assert rows
        for row in rows:
            assert abs(float(row[8])) <= 1e-9
            assert abs(float(row[9])) <= 1e-9
        assert (tmp_path / "by_duration.csv").exists()
        assert (tmp_path / "by_dollar_age.csv").exists()

    def test_empty_quotes_exits_two(self, tmp_path):
        cashflows, assets, _ = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text("asset_id,ltm,best_bid,ask,duration_years,dollar_age\n")
        code = main(
            [
                "--out",
                str(tmp_path),
                "compare",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--quotes",
                str(quotes_path),
            ]
        )
        assert code == 2

    def test_min_cohort_above_the_asset_count_leaves_no_surfaces(self, tmp_path):
        """18 assets and --min-cohort 19: no age has cells, so each accepted
        quote is one row error and the run exits 2; Q3's 40-year contract
        is rejected before it."""
        cashflows, assets, _ = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\n"
            "Q1,100,,450,2,3.0\nQ2,100,300,450,5,0.3\nQ3,100,,450,40,3.0\n"
        )
        code = main(
            ["--out", str(tmp_path / "out"), "compare", "--min-cohort", "19", "--cashflows",
             str(cashflows), "--assets", str(assets), "--quotes", str(quotes_path)]
        )
        assert code == 2
        assert read_rows(tmp_path / "out" / "comparison_errors.csv") == [
            ["asset_id", "error"],
            ["Q1", "no surfaces available"],
            ["Q2", "no surfaces available"],
        ]
        header = [f.name for f in fields(ComparisonRow)]
        assert read_rows(tmp_path / "out" / "comparison.csv") == [header]

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("Q1,100,,450,5,3.0\n,100,,450,5,3.0\n", "line 3: empty asset_id"),
            (
                "Q1,100,,450,5,3.0\nQ2,100,,450,5,3.0\nQ1,100,,450,5,3.0\n",
                "line 4: duplicate quote Q1",
            ),
            (
                'Q1,100,,450,5,3.0\n"A\nB",100,,450,5,3.0\n',
                "line 3: asset_id must be printable, got 'A\\nB'",
            ),
        ],
        ids=["empty", "duplicate", "not_printable"],
    )
    def test_bad_quote_id_exits_one(self, tmp_path, capsys, rows, message):
        cashflows, assets, _ = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text("asset_id,ltm,best_bid,ask,duration_years,dollar_age\n" + rows)
        code = main(
            [
                "--out",
                str(tmp_path),
                "compare",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--quotes",
                str(quotes_path),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {quotes_path}:{message}\n"

    @pytest.mark.parametrize(
        "row,name",
        [("Q1,1e-300,1e10,1.0,2,3.0", "best_bid"), ("Q1,1e-300,,1e10,2,3.0", "ask")],
        ids=["bid", "ask"],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_implied_multiplier_past_the_float_range_exits_one(
        self, tmp_path, capsys, row, name, fmt
    ):
        cashflows, assets, _ = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text("asset_id,ltm,best_bid,ask,duration_years,dollar_age\n" + row + "\n")
        out = tmp_path / "out"
        code = main(
            ["--format", fmt, "--out", str(out), "compare", "--cashflows", str(cashflows),
             "--assets", str(assets), "--quotes", str(quotes_path)]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {quotes_path}:line 2: Q1: {name}/ltm must be finite\n"
        )
        assert not any(out.glob("comparison*"))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_plot_means_of_huge_multipliers_stay_finite(self, tmp_path, fmt):
        cashflows, assets, _ = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        quotes_path.write_text(
            "asset_id,ltm,best_bid,ask,duration_years,dollar_age\n"
            "Q1,1,1e308,1e308,2,3.0\nQ2,1,1e308,1e308,2,3.0\n"
        )
        out = tmp_path / "out"
        code = main(
            ["--format", fmt, "--out", str(out), "compare", "--cashflows", str(cashflows),
             "--assets", str(assets), "--quotes", str(quotes_path)]
        )
        assert code == 0
        for name in ("by_duration", "by_dollar_age"):
            if fmt == "json":
                [group] = json.loads((out / f"{name}.json").read_text())["groups"]
                means = [group["mean_bid_mult"], group["mean_ask_mult"]]
            else:
                [header, row] = read_rows(out / f"{name}.csv")
                means = [float(row[header.index(k)]) for k in ("mean_bid_mult", "mean_ask_mult")]
            assert means == [1e308, 1e308]

    def test_columns_and_json_keys_are_the_record_fields(self, tmp_path):
        cashflows, assets, dataset = self._dataset_files(tmp_path)
        # age 10 has cells to horizon 4 only, so a 10-year quote is a row error
        quotes = gen_quotes(dataset, seed=8) + [MarketQuote("ZZ", 100.0, 50.0, 100.0, 10, 10.0)]
        quotes_path = tmp_path / "quotes.csv"
        write_quotes_csv(quotes_path, quotes)
        data = ["--cashflows", str(cashflows), "--assets", str(assets), "--quotes", str(quotes_path)]
        assert main(["--out", str(tmp_path / "csv"), "compare", *data]) == 0
        assert main(["--format", "json", "--out", str(tmp_path / "json"), "compare", *data]) == 0

        def names(cls):
            return [f.name for f in fields(cls)]

        for name, cls in [
            ("comparison.csv", ComparisonRow),
            ("comparison_errors.csv", ComparisonError),
            ("by_duration.csv", PlotGroup),
            ("by_dollar_age.csv", PlotGroup),
        ]:
            assert read_rows(tmp_path / "csv" / name)[0] == names(cls)
        comparison = json.loads((tmp_path / "json" / "comparison.json").read_text())
        records = [
            (comparison["rows"], ComparisonRow),
            (comparison["errors"], ComparisonError),
            *((json.loads((tmp_path / "json" / name).read_text())["groups"], PlotGroup)
              for name in ("by_duration.json", "by_dollar_age.json")),
        ]
        for objects, cls in records:
            assert objects and all(sorted(o) == sorted(names(cls)) for o in objects)
        assert [e["asset_id"] for e in comparison["errors"]] == ["ZZ"]

    def test_rate_past_the_float_power_range_exits_zero(self, tmp_path):
        cashflows, assets, dataset = self._dataset_files(tmp_path)
        quotes_path = tmp_path / "quotes.csv"
        write_quotes_csv(quotes_path, gen_quotes(dataset, seed=8, noise=0.0))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rate": 1e300}))
        code = main(
            ["--config", str(config), "--out", str(tmp_path), "compare", "--cashflows",
             str(cashflows), "--assets", str(assets), "--quotes", str(quotes_path)]
        )
        assert code == 0
        rows = read_rows(tmp_path / "comparison.csv")[1:]
        assert rows and {value for row in rows for value in row[5:8]} == {"0.000000"}

    def test_long_duration_quote_lands_in_rejections(self, tmp_path):
        cashflows, assets, dataset = self._dataset_files(tmp_path)
        quotes = gen_quotes(dataset, seed=8, noise=0.0)
        from dataclasses import replace

        quotes[0] = replace(quotes[0], duration_years=12)
        quotes_path = tmp_path / "quotes.csv"
        write_quotes_csv(quotes_path, quotes)
        code = main(
            [
                "--out",
                str(tmp_path),
                "compare",
                "--cashflows",
                str(cashflows),
                "--assets",
                str(assets),
                "--quotes",
                str(quotes_path),
            ]
        )
        assert code == 0
        rejected = read_rows(tmp_path / "rejected_quotes.csv")
        assert [quotes[0].asset_id, "DURATION_TOO_LONG"] in rejected


GROUP = {"count": 1, "annual_growth": 0, "noise_sigma": 0, "age_years": 3, "initial_revenue": 10}


class TestSynthCommand:
    def _spec_file(self, tmp_path):
        spec = {
            "seed": 17,
            "groups": [
                {"count": 5, "annual_growth": -0.2, "noise_sigma": 0.0, "age_years": 4, "initial_revenue": 9000.0},
                {"count": 5, "annual_growth": -0.3, "noise_sigma": 0.1, "age_years": 9, "initial_revenue": 30000.0},
            ],
        }
        path = tmp_path / "population.json"
        path.write_text(json.dumps(spec))
        return path

    def test_writes_dataset_files(self, tmp_path):
        spec = self._spec_file(tmp_path)
        code = main(["--out", str(tmp_path / "out"), "synth", "--spec", str(spec)])
        assert code == 0
        for name in ("cashflows.csv", "assets.csv", "quotes.csv"):
            assert (tmp_path / "out" / name).exists()

    def test_fixed_seed_is_byte_identical(self, tmp_path):
        spec = self._spec_file(tmp_path)
        for sub in ("a", "b"):
            assert main(["--out", str(tmp_path / sub), "synth", "--spec", str(spec)]) == 0
        for name in ("cashflows.csv", "assets.csv", "quotes.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seed_flag_writes_what_the_spec_seed_writes(self, tmp_path):
        spec = self._spec_file(tmp_path)
        assert main(["--out", str(tmp_path / "flag"), "synth", "--spec", str(spec), "--seed", "9"]) == 0
        spec.write_text(json.dumps({**json.loads(spec.read_text()), "seed": 9}))
        assert main(["--out", str(tmp_path / "spec"), "synth", "--spec", str(spec)]) == 0
        for name in ("cashflows.csv", "assets.csv", "quotes.csv"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "spec" / name).read_bytes()

    @pytest.mark.parametrize(
        "spec,message",
        [
            ([], "population spec must be a JSON object"),
            ({"seed": 1, "groups": {}}, "groups must be a non-empty list"),
            ({"seed": 1, "groups": [1]}, "groups[0] must be a JSON object"),
            ({"groups": [GROUP]}, "population spec: missing keys ['seed']"),
            ({"seed": 1, "groups": [GROUP], "genre": "pop"}, "population spec: unknown keys ['genre']"),
            (
                {"seed": 1, "groups": [{k: v for k, v in GROUP.items() if k != "count"}]},
                "groups[0]: missing keys ['count']",
            ),
        ],
        ids=["list", "groups_object", "group_number", "no_seed", "unknown_key", "group_no_count"],
    )
    def test_malformed_spec_exits_one(self, tmp_path, capsys, spec, message):
        path = tmp_path / "population.json"
        path.write_text(json.dumps(spec))
        assert main(["--out", str(tmp_path), "synth", "--spec", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_invalid_spec_field_exits_one(self, tmp_path, capsys):
        path = tmp_path / "population.json"
        path.write_text(json.dumps({"seed": 1, "groups": [{"count": 0, "annual_growth": 0, "noise_sigma": 0, "age_years": 3, "initial_revenue": 10}]}))
        code = main(["--out", str(tmp_path), "synth", "--spec", str(path)])
        assert code == 1
        assert "groups[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"seed": None}, "seed must be an integer, got None"),
            ({"count": [1]}, "groups[0]: count must be an integer, got [1]"),
            ({"age_years": float("inf")}, "groups[0]: age_years must be an integer, got inf"),
            ({"count": 2.7}, "groups[0]: count must be an integer, got 2.7"),
            ({"age_years": 3.9}, "groups[0]: age_years must be an integer, got 3.9"),
            ({"count": "3"}, "groups[0]: count must be an integer, got '3'"),
            ({"count": True}, "groups[0]: count must be an integer, got True"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"initial_revenue": float("inf")}, "groups[0]: initial_revenue must be finite, got inf"),
            ({"initial_revenue": 1e307},
             "groups[0]: G00A000: revenue in year 1 is too large"),
            ({"annual_growth": 1e300}, "groups[0]: G00A000: revenue in year 3 is too large"),
            ({"noise_sigma": 1e6}, "groups[0]: G00A000: revenue in year 1 is too large"),
            ({"age_years": 1001}, "groups[0]: age_years must be <= 1000"),
            ({"noise_sigma": -0.1}, "groups[0]: noise_sigma must be >= 0"),
        ],
        ids=[
            "seed_null", "count_list", "age_inf", "count_fraction", "age_fraction", "count_string",
            "count_bool", "seed_fraction", "revenue_inf", "revenue_1e307", "growth_1e300",
            "sigma_1e6", "age_1001", "sigma_negative",
        ],
    )
    def test_wrong_spec_value_type_exits_one(self, tmp_path, capsys, change, message):
        group = {"count": 1, "annual_growth": 0, "noise_sigma": 0, "age_years": 3, "initial_revenue": 10}
        spec = {"seed": 1, "groups": [group]}
        (spec if "seed" in change else group).update(change)
        path = tmp_path / "population.json"
        path.write_text(json.dumps(spec))
        code = main(["--out", str(tmp_path), "synth", "--spec", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_spec_past_the_record_cap_exits_one_and_writes_nothing(self, tmp_path, capsys):
        group = {"count": 100_000_000, "annual_growth": 0, "noise_sigma": 0, "age_years": 1000,
                 "initial_revenue": 10}
        path = tmp_path / "population.json"
        path.write_text(json.dumps({"seed": 1, "groups": [group]}))
        out = tmp_path / "out"
        assert main(["--out", str(out), "synth", "--spec", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: population of 1200000000000 records is over the cap of "
            f"{synth.MAX_RECORDS}\n"
        )
        assert list(out.glob("*")) == []

    def test_flat_spec_reproduces_initial(self, tmp_path):
        path = tmp_path / "population.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 2,
                    "groups": [
                        {"count": 5, "annual_growth": 0.0, "noise_sigma": 0.0, "age_years": 3, "initial_revenue": 1200.0}
                    ],
                }
            )
        )
        assert main(["--out", str(tmp_path / "out"), "synth", "--spec", str(path)]) == 0
        rows = read_rows(tmp_path / "out" / "cashflows.csv")[1:]
        assert all(row[3] == "100.00" for row in rows)


class TestConfigPrecedence:
    @pytest.mark.parametrize(
        "file_rate,flag_rate,expected_rate",
        [
            (None, None, 0.10),
            (0.08, None, 0.08),
            (None, 0.12, 0.12),
            (0.08, 0.12, 0.12),
        ],
    )
    def test_rate_resolution_matrix(self, tmp_path, capsys, file_rate, flag_rate, expected_rate):
        surface = write_flat_surface(tmp_path / "surface.json")
        argv = []
        if file_rate is not None:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"rate": file_rate}))
            argv += ["--config", str(config)]
        argv += ["value", "--surface", str(surface), "--ltm", "1", "--duration", "10"]
        if flag_rate is not None:
            argv += ["--rate", str(flag_rate)]
        assert main(argv) == 0
        m50_line = capsys.readouterr().out.splitlines()[2]
        assert m50_line.split(",")[1] == f"{annuity(expected_rate, 10):.6f}"

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"discount": 0.2}))
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["--config", str(config), "value", "--surface", str(surface), "--ltm", "1", "--duration", "2"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {config}: config: unknown keys ['discount']\n"

    @pytest.mark.parametrize(
        "config,message",
        [
            ({"rate": "0.1"}, "rate must be a number, got '0.1'"),
            ({"zero_floor": True}, "zero_floor must be a number, got True"),
            ({"min_bid_ask_ratio": None}, "min_bid_ask_ratio must be a number, got None"),
            ({"min_cohort": 2.5}, "min_cohort must be an integer, got 2.5"),
            ({"max_duration": "10"}, "max_duration must be an integer, got '10'"),
            ({"min_cohort": float("inf")}, "min_cohort must be an integer, got inf"),
            ({"percentile_levels": [10, "50"]}, "percentile_levels must be a list of numbers"),
            ({"percentile_levels": 50}, "percentile_levels must be a list of numbers"),
            ({"output_format": 1}, "output_format must be a string, got 1"),
            (
                {"percentile_levels": [50, 10, 50.0]},
                "percentile_levels must differ at six significant digits",
            ),
            ({"rate": float("inf")}, "rate must be finite, got inf"),
            ({"zero_floor": float("nan")}, "zero_floor must be finite, got nan"),
            ({"percentile_levels": ""}, "percentile_levels must be a list of numbers"),
            ({"percentile_levels": {}}, "percentile_levels must be a list of numbers"),
            ({"max_duration": 1001}, "max_duration must be <= 1000"),
            (
                {"percentile_levels": [10, 50, 50.0000001, 90]},
                "percentile_levels must differ at six significant digits",
            ),
            ([], "config must be a JSON object"),
            ({"percentile_levels": []}, "percentile_levels must be non-empty"),
            ({"percentile_levels": [0]}, "percentile level 0.0 outside (0, 100)"),
            ({"min_cohort": 0}, "min_cohort must be >= 1"),
            ({"output_format": "xml"}, "output_format must be 'csv' or 'json'"),
            ({"max_duration": 0}, "max_duration must be >= 1"),
            ({"rate": 10**309}, "invalid JSON: integer of 310 digits (at most 309)"),
            ({"min_bid_ask_ratio": 1.5}, "min_bid_ask_ratio must be in [0, 1]"),
        ],
    )
    def test_wrong_config_value_type_exits_one(self, tmp_path, capsys, config, message):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(
            ["--config", str(path), "value", "--surface", str(surface), "--ltm", "1", "--duration", "2"]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_integral_float_config_value_accepted(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"max_duration": 4.0}))
        loaded = load_config_file(config)
        assert loaded == {"max_duration": 4} and type(loaded["max_duration"]) is int

    def test_min_cohort_flag_below_one_exits_one(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        argv = ["value", "--surface", str(surface), "--ltm", "1", "--duration", "2"]
        assert main(argv + ["--min-cohort", "0"]) == 1
        assert capsys.readouterr().err == "error: min_cohort must be >= 1\n"

    def test_nan_rate_flag_exits_one(self, tmp_path, capsys):
        surface = write_flat_surface(tmp_path / "surface.json")
        code = main(["value", "--surface", str(surface), "--ltm", "1", "--duration", "2", "--rate", "nan"])
        assert code == 1
        assert capsys.readouterr().err == "error: rate must be finite and >= 0\n"

    def test_config_may_start_with_bom(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"rate": 0.2}).encode())
        assert load_config_file(config) == {"rate": 0.2}

    def test_defaults(self):
        cfg = Config()
        assert cfg.rate == 0.10
        assert cfg.percentile_levels == (10.0, 50.0, 90.0)
        assert cfg.dollar_age_tolerance == 0.30
        assert cfg.zero_floor == 0.0
        assert cfg.min_cohort == 5
        assert cfg.max_duration == 10
        assert cfg.min_bid_ask_ratio == 0.5
        assert cfg.output_format == "csv"

    def test_config_file_validation(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"rate": 0.2, "min_cohort": 3}))
        assert load_config_file(config) == {"rate": 0.2, "min_cohort": 3}


@pytest.mark.parametrize(
    "command",
    [["curves"], ["multipliers", "--durations", "2"], ["value", "--ltm", "10", "--duration", "2"]],
    ids=["curves", "multipliers", "value"],
)
@pytest.mark.parametrize("age", ["0", "-3"])
def test_age_below_one_names_the_flag(tmp_path, capsys, command, age):
    cashflows, assets = flat_population_files(tmp_path)
    code = main(
        ["--out", str(tmp_path), command[0], "--cashflows", str(cashflows),
         "--assets", str(assets), "--age", age, *command[1:]]
    )
    assert code == 1
    assert capsys.readouterr().err == "error: --age must be >= 1\n"


@pytest.mark.parametrize(
    "command,flag,text",
    [
        (["value", "--ltm", "1", "--duration", "2"], "--ltm", "\u0665\u0660\u0660\u0660\u0660"),
        (["value", "--ltm", "1", "--duration", "2"], "--duration", "\u0663"),
        (["value", "--ltm", "1", "--duration", "2"], "--duration", "1_0"),
        (["value", "--ltm", "1", "--duration", "2"], "--rate", "\u0660.\u0661"),
        (["value", "--ltm", "1", "--duration", "2"], "--min-cohort", "\u0665"),
        (["multipliers"], "--durations", "\u0663"),
        (["curves", "--cashflows", "{cashflows}", "--assets", "{assets}"], "--age", "\u0663"),
        (["synth", "--spec", "{spec}"], "--seed", "\u0663"),
    ],
    ids=["ltm", "duration", "duration_underscore", "rate", "min_cohort", "durations", "age", "seed"],
)
def test_number_flag_outside_the_number_rule_is_a_usage_error(
    tmp_path, capsys, command, flag, text
):
    """A number flag reads its text by parse_number: text that float() or
    int() would read but the rule refuses, non-ASCII digits or a `_`, exits
    2 with argparse's usage error naming the flag."""
    cashflows, assets = flat_population_files(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "groups": [
        {"count": 5, "annual_growth": 0.0, "noise_sigma": 0.0, "age_years": 4, "initial_revenue": 1.0},
    ]}))
    paths = {"cashflows": cashflows, "assets": assets, "spec": spec}
    if command[0] in ("value", "multipliers"):
        command = [*command, "--surface", str(write_flat_surface(tmp_path / "surface.json"))]
    argv = ["--out", str(tmp_path / "out"), *(arg.format(**paths) for arg in command), flag, text]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    kind = "float" if flag in ("--ltm", "--rate") else "int"
    assert capsys.readouterr().err.endswith(
        f"error: argument {flag}: invalid {kind} value: {text!r}\n"
    )


class TestHelp:
    OPTIONS = {
        "validate": {"--assets", "--cashflows", "--help", "--tolerance"},
        "curves": {
            "--age", "--assets", "--cashflows", "--help", "--max-duration", "--min-cohort",
            "--tolerance",
        },
        "multipliers": {
            "--age", "--assets", "--cashflows", "--durations", "--help", "--max-duration",
            "--min-cohort", "--rate", "--surface", "--tolerance",
        },
        "value": {
            "--age", "--assets", "--cashflows", "--duration", "--help", "--ltm",
            "--max-duration", "--min-cohort", "--rate", "--surface", "--tolerance",
        },
        "compare": {
            "--assets", "--cashflows", "--help", "--max-duration", "--min-bid-ask-ratio",
            "--min-cohort", "--quotes", "--rate", "--tolerance",
        },
        "synth": {
            "--help", "--max-duration", "--min-cohort", "--rate", "--seed", "--spec",
            "--tolerance",
        },
    }

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_subcommand_options(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == self.OPTIONS[command]


class TestDefaults:
    """Every library default for a setting equals Config's, and each
    flag's help shows it."""

    FLAGS = {
        "--rate": "rate",
        "--tolerance": "dollar_age_tolerance",
        "--min-cohort": "min_cohort",
        "--max-duration": "max_duration",
        "--min-bid-ask-ratio": "min_bid_ask_ratio",
    }

    @pytest.mark.parametrize(
        "function, parameter, setting",
        [
            (curves.build_surface, "levels", "percentile_levels"),
            (curves.build_surface, "min_cohort", "min_cohort"),
            (curves.build_surface, "max_horizon", "max_duration"),
            (curves.build_surfaces, "levels", "percentile_levels"),
            (curves.build_surfaces, "min_cohort", "min_cohort"),
            (curves.build_surfaces, "max_horizon", "max_duration"),
            (market.filter_quotes, "max_duration", "max_duration"),
            (market.filter_quotes, "min_bid_ask_ratio", "min_bid_ask_ratio"),
            (ingest.build_dataset, "zero_floor", "zero_floor"),
            (ingest.build_dataset, "dollar_age_tolerance", "dollar_age_tolerance"),
            (ingest.filter_dollar_age, "tolerance", "dollar_age_tolerance"),
            (synth.gen_quotes, "rate", "rate"),
            (synth.gen_quotes, "max_duration", "max_duration"),
            (synth.gen_quotes, "min_cohort", "min_cohort"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    def test_library_default_is_config_default(self, function, parameter, setting):
        default = inspect.signature(function).parameters[parameter].default
        assert default == getattr(Config(), setting)

    @pytest.mark.parametrize("command", sorted(TestHelp.OPTIONS))
    def test_flag_help_shows_config_default(self, capsys, command):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, setting in self.FLAGS.items():
            if flag in TestHelp.OPTIONS[command]:
                shown = re.search(rf"{flag} [A-Z_]+ [^()]*\(default ([^)]*)\)", text)
                assert float(shown.group(1)) == getattr(Config(), setting), flag

    @pytest.mark.parametrize(
        "name, module, setting",
        [
            ("DEFAULT_AGE_TOLERANCE", ingest, "dollar_age_tolerance"),
            ("DEFAULT_ZERO_FLOOR", ingest, "zero_floor"),
            ("DEFAULT_MIN_COHORT", curves, "min_cohort"),
            ("DEFAULT_MIN_BID_ASK_RATIO", market, "min_bid_ask_ratio"),
        ],
    )
    def test_default_lives_in_model(self, name, module, setting):
        """Config reads the default from model, and the module that uses it
        names model's value, so --help need not import that module."""
        assert getattr(module, name) is getattr(model, name)
        assert getattr(Config(), setting) == getattr(model, name)


# Runs cli.main on its arguments and prints its exit status and the names
# of the modules it imported that were not loaded before.
IMPORT_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
from royaltyval.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""
HELP_MODULES = {"royaltyval", "royaltyval.cli", "royaltyval.model", "royaltyval._io"}


class TestImportBudget:
    """A command imports only the modules it runs, each checked in a fresh
    interpreter: `--help` needs cli, model and _io, and `value --surface`
    also curves. Neither loads synth's hashlib and statistics."""

    @staticmethod
    def loaded(*argv):
        """The exit status of the command and the package and costly stdlib
        modules it loaded."""
        child = run_python_child(IMPORT_PROBE, *argv)
        code, names = json.loads(child.stdout)
        return code, {n for n in names if n.split(".")[0] in ("royaltyval", "hashlib", "statistics")}

    def test_help(self):
        assert self.loaded("--help") == (0, HELP_MODULES)

    def test_value_from_a_surface_file(self, tmp_path):
        surface = write_flat_surface(tmp_path / "surface.json")
        argv = ["value", "--surface", str(surface), "--ltm", "100", "--duration", "3"]
        assert self.loaded(*argv) == (0, HELP_MODULES | {"royaltyval.curves"})

    def test_validate(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        code, names = self.loaded(
            "--out", str(tmp_path), "validate", "--cashflows", str(cashflows),
            "--assets", str(assets),
        )
        assert code == 0 and "royaltyval.ingest" in names
        assert not names & {"royaltyval.market", "royaltyval.synth", "hashlib", "statistics"}

    def test_compare(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(QUOTES_TOP + "Q,1200,1000,2000,1,6\n")
        code, names = self.loaded(
            "--out", str(tmp_path), "compare", "--cashflows", str(cashflows),
            "--assets", str(assets), "--quotes", str(quotes),
        )
        assert code == 0 and "royaltyval.market" in names
        assert not names & {"royaltyval.synth", "hashlib", "statistics"}


def gc_state():
    return gc.isenabled(), gc.get_freeze_count()


class TestProcessEntry:
    """cli.run, the process entry, freezes the heap before the interpreter
    exits; main, which in-process callers use, leaves the collector as it
    finds it."""

    def test_main_leaves_the_collector_as_it_was(self, tmp_path, capsys):
        before = gc_state()
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc_state() == before
        cashflows, assets = flat_population_files(tmp_path)
        argv = ["--cashflows", str(cashflows), "--assets", str(assets)]
        assert main(["--out", str(tmp_path), "validate", *argv]) == 0
        assert gc_state() == before

    @pytest.mark.parametrize("code", [0, 1, 2])
    def test_run_exits_with_mains_status_and_a_frozen_heap(self, monkeypatch, code):
        monkeypatch.setattr(cli, "main", lambda: code)
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == code
            assert gc.isenabled() and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_run_freezes_on_argparses_exit(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["royaltyval", "--help"])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.run()
            assert exc.value.code == 0
            assert gc.isenabled() and gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "usage: royaltyval" in capsys.readouterr().out

    def test_module_run_gives_mains_status_and_output(self, tmp_path):
        cashflows, assets = flat_population_files(tmp_path)
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)

        def child(*argv):
            return subprocess.run(
                [sys.executable, "-m", "royaltyval.cli", *argv],
                env=env, capture_output=True, text=True, timeout=60,
            )

        inputs = ["--cashflows", str(cashflows), "--assets", str(assets)]
        ok = child("--out", str(tmp_path), "validate", *inputs)
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "accepted 5 of 5 assets\n", "")
        bad = child("validate", "--cashflows", str(tmp_path / "none.csv"), "--assets", str(assets))
        assert bad.returncode == 1 and bad.stderr.startswith("error: ")

    def test_the_installed_script_is_run(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert re.search(r'^royaltyval = "royaltyval\.cli:run"$', pyproject, re.MULTILINE)


def test_running_out_of_memory_exits_one_with_one_error_line(tmp_path, monkeypatch, capsys):
    def exhausted(args, cfg):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_validate", exhausted)
    cashflows, assets = flat_population_files(tmp_path)
    argv = ["--cashflows", str(cashflows), "--assets", str(assets)]
    assert main(["--out", str(tmp_path), "validate", *argv]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


@pytest.mark.parametrize(
    "kind", ["cashflows", "assets", "quotes", "surface_csv", "surface_json", "config", "spec"]
)
def test_non_utf8_input_exits_one_with_line(tmp_path, capsys, kind):
    cashflows, assets = flat_population_files(tmp_path)
    paths = {"cashflows": cashflows, "assets": assets}
    texts = {
        "quotes": "asset_id,ltm,best_bid,ask,duration_years,dollar_age\nQ,1,1,2,1,1.0\nR,1,1,2,1,1.0\n",
        "surface_csv": SURFACE_CSV_HEADER + "1,1,50,1.0,5\n1,2,50,1.0,5\n",
        "surface_json": json.dumps(json.loads(write_flat_surface(tmp_path / "s.json").read_text()), indent=1),
        "config": json.dumps({"rate": 0.1, "min_cohort": 5}, indent=1),
        "spec": json.dumps({"seed": 1, "groups": []}, indent=1),
    }
    for name, text in texts.items():
        suffix = ".json" if name in ("surface_json", "config", "spec") else ".csv"
        paths[name] = tmp_path / f"{name}{suffix}"
        paths[name].write_text(text)
    lines = paths[kind].read_bytes().split(b"\n")
    lines[2] = lines[2][:1] + b"\xff" + lines[2][1:]
    paths[kind].write_bytes(b"\n".join(lines))
    commands = {
        "surface_csv": ["value", "--surface", str(paths["surface_csv"]), "--ltm", "1", "--duration", "1"],
        "surface_json": ["value", "--surface", str(paths["surface_json"]), "--ltm", "1", "--duration", "1"],
        "config": ["--config", str(paths["config"]), "validate", "--cashflows", str(cashflows),
                   "--assets", str(assets)],
        "spec": ["synth", "--spec", str(paths["spec"])],
    }
    argv = commands.get(kind, ["compare", "--cashflows", str(cashflows), "--assets", str(assets),
                               "--quotes", str(paths["quotes"])])
    code = main(["--out", str(tmp_path / "out"), *argv])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {paths[kind]}:line 3: not UTF-8: b'\\xff' (invalid start byte)\n"
    )


CASHFLOWS_TOP = "asset_id,period_start,period_months,amount\n"
ASSETS_TOP = "asset_id,dollar_age\n"
QUOTES_TOP = "asset_id,ltm,best_bid,ask,duration_years,dollar_age\n"
LONG = "X" * 100_000
LONG_ID = f"{'X' * 40}… (100000 characters)"
LONG_TEXT = f"'{'X' * 40}…' (100000 characters)"
WIDE_FIELD = f"'{'X' * 40}…' (1000 characters)"

# (input kind, its whole text, what the message says after the file's path; an
# error joining the cashflows and assets files names both)
HOSTILE_INPUTS = [
    pytest.param(
        "assets", "," * 100_000 + "\n",
        f":line 1: bad header [{', '.join([repr('')] * 10)}, … (100001 in all)], "
        "expected asset_id,dollar_age",
        id="header_of_100000_commas",
    ),
    pytest.param(
        "cashflows", ",".join(["X" * 1000] * 12) + "\n",
        f":line 1: bad header [{', '.join([WIDE_FIELD] * 3)}, … (12 in all)], "
        "expected asset_id,period_start,period_months,amount",
        id="header_of_12_fields_of_1000_characters",
    ),
    pytest.param(
        "config", json.dumps({f"k{i:05d}": 1 for i in range(20_000)}),
        f": config: unknown keys [{', '.join(repr(f'k{i:05d}') for i in range(10))}, "
        "… (20000 in all)]",
        id="20000_unknown_config_keys",
    ),
    pytest.param(
        "cashflows", CASHFLOWS_TOP + "".join(f"A{i:02d},2019-01,1,1.00\n" for i in range(12)),
        f", {{assets}}: cashflows reference unknown assets: "
        f"{', '.join(f'A{i:02d}' for i in range(10))}, … (12 in all)",
        id="12_unknown_assets",
    ),
    pytest.param(
        "cashflows", CASHFLOWS_TOP + f"{LONG},2019-01,1,1.00\n" * 2,
        f":line 3: duplicate record for {LONG_ID} at 2019-01", id="duplicate_record_long_id",
    ),
    pytest.param(
        "assets", ASSETS_TOP + f"{LONG},1\n" * 2, f":line 3: duplicate asset {LONG_ID}",
        id="duplicate_asset_long_id",
    ),
    pytest.param(
        "quotes", QUOTES_TOP + f"{LONG},1,1,2,1,1.0\n" * 2, f":line 3: duplicate quote {LONG_ID}",
        id="duplicate_quote_long_id",
    ),
    pytest.param(
        "config", json.dumps({"rate": LONG}), f": rate must be a number, got {LONG_TEXT}",
        id="long_config_value",
    ),
    pytest.param(
        "config", json.dumps({LONG: 1}), f": config: unknown keys [{LONG_TEXT}]",
        id="long_config_key",
    ),
]


@pytest.mark.parametrize("kind,text,message", HOSTILE_INPUTS)
def test_long_input_gives_one_short_message(tmp_path, capsys, kind, text, message):
    """Lists in a message show at most 10 items in at most 200 characters,
    and ids, JSON keys and JSON values at most 40 characters, so the line
    stays short."""
    files = {
        "cashflows": CASHFLOWS_TOP + "A,2019-01,1,1.00\n",
        "assets": ASSETS_TOP + "A,1\n",
        "quotes": QUOTES_TOP + "Q,1,1,2,1,1.0\n",
        "config": "{}",
        kind: text,
    }
    paths = {name: tmp_path / f"{name}.{'json' if name == 'config' else 'csv'}" for name in files}
    for name, content in files.items():
        paths[name].write_text(content, encoding="utf-8")
    argv = ["--config", str(paths["config"]), "--out", str(tmp_path / "out"), "compare"]
    argv += [f"--{name}={paths[name]}" for name in ("cashflows", "assets", "quotes")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {paths[kind]}{message.format(**paths)}\n"
    assert len(err.encode("utf-8")) <= 500
