"""Design rules of the package, checked by reading its source.

A module's public names are those without a leading underscore, so no
module keeps an `__all__` list. Records are plain dataclasses that check
their values once, when built, so none is frozen or patched through
`object.__setattr__`. Only `_io` reads a dataclass's fields, with
`dataclasses.fields`, `asdict` or `replace`; every other module asks `_io`
for them. Share surfaces are built in `curves` and, at the base ages that
quotes read, in `market.band_surfaces`; every other module asks `market`.
`curves.observed_years` is the one cohort rule, the only place that floors
a dollar age to the years of an asset a cohort reads, and
`market.round_half_up` the one rounding of a dollar age to the base age a
quote reads, in `band_surfaces` and in `compare` alike. `ingest._PERIODS`
is the one statement of the periods a record may cover: the canonical row
pattern, the row reader's message and the one check that `RawAsset` and
`annualize` share all read it.
Every CSV table is written by `_io.write_table`, a table of records
through `_io.write_records`; only `_io` and the row functions `market`
keeps for its tests and benchmark call `record_rows`. Only `_io` imports
the csv module, and only to read: `csv_cell` is the one rule of how a cell
is quoted, so no output byte depends on the csv writer of the Python
version, and no module writes through a `StringIO`. Only `_io` tests how a
number's text is written, and `_io.shown` is the one form in which a
message shows an input value, so no module keeps a `quoted`.
`model.check_levels` is the one level rule, the only place that asks
levels to differ at six significant digits, for the config and for a
surface read from either file format. The rules hold in the package
modules and in the study scripts.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "royaltyval").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "scripts").glob("*.py"))

# (pattern, the modules where it may appear)
RULES = [
    pytest.param(r"\b__all__\b", (), id="no_all_list"),
    pytest.param(r"\bobject\.__setattr__\b", (), id="no_object_setattr"),
    pytest.param(r"\bfrozen\s*=\s*True\b", (), id="no_frozen_dataclass"),
    pytest.param(
        r"\bfields\(|^from dataclasses import .*\b(asdict|fields|replace)\b", ("_io.py",),
        id="fields_in_io",
    ),
    pytest.param(r"\bbuild_surfaces\(", ("curves.py", "market.py"), id="one_surface_loop"),
    pytest.param(r"floor\(\w+\.dollar_age\)", ("curves.py",), id="one_cohort_rule"),
    pytest.param(r"dollar_age \+ 0\.5", (), id="one_base_age_rounding"),
    pytest.param(r"\{1, 3\}|m != 1 and m != 3", (), id="one_period_rule"),
    pytest.param(r"\brecord_rows\(", ("_io.py", "market.py"), id="one_record_writer"),
    pytest.param(r"\bwrite_csv\b", (), id="one_table_writer"),
    pytest.param(r"^\s*(import|from) csv\b|(?<![\w.])csv\.", ("_io.py",), id="csv_in_io"),
    pytest.param(r"\bisascii\(", ("_io.py",), id="number_text_in_io"),
    pytest.param(r"\bquoted\(", (), id="one_shown"),
    pytest.param(r"significant digits", ("model.py",), id="one_level_rule"),
    pytest.param(
        r"\bStringIO\b|(?<![\w.])csv\.(?!reader\(|Error\b|field_size_limit\()", (),
        id="csv_only_reads",
    ),
]


def test_the_package_has_its_modules():
    assert {"_io.py", "cli.py", "ingest.py", "model.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("pattern,allowed", RULES)
def test_rule_holds_in_every_module(pattern, allowed):
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in SOURCES
        if path.name not in allowed
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if re.search(pattern, line)
    ]
    assert found == []
