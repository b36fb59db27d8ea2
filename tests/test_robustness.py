"""Malformed input never crashes the CLI: every run exits 0, 1 or 2.

Each input file the CLI reads gets arbitrary bytes spliced into a valid
copy, and the population spec and the config get one value swapped for an
arbitrary JSON value. A Python traceback out of `main` fails the test, and
so does an exit-1 message that is not one `error: ` line naming the
changed file as `<path>:`.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from royaltyval._io import write_json, write_table
from royaltyval.cli import main
from royaltyval.curves import (
    SURFACE_HEADER, SURFACE_SPECS, build_surface, surface_csv_rows, surface_to_json_dict,
)
from royaltyval.ingest import build_dataset, write_assets_csv, write_cashflows_csv
from royaltyval.market import write_quotes_csv
from royaltyval.synth import PopulationSpec, gen_population, gen_quotes

SPEC = {
    "seed": 4,
    "groups": [
        {"count": 5, "annual_growth": -0.2, "noise_sigma": 0.1, "age_years": 4, "initial_revenue": 1200.0},
        # the cohort that prices the first group, so quotes.csv holds quotes
        {"count": 5, "annual_growth": -0.2, "noise_sigma": 0.1, "age_years": 5, "initial_revenue": 1200.0},
    ],
}
CONFIG = {"rate": 0.1, "min_cohort": 5, "max_duration": 3, "min_bid_ask_ratio": 0.5}

# argv per input kind, with {name} standing for that input's path.
COMMANDS = {
    "cashflows": ["compare", "--cashflows", "{cashflows}", "--assets", "{assets}", "--quotes", "{quotes}"],
    "assets": ["compare", "--cashflows", "{cashflows}", "--assets", "{assets}", "--quotes", "{quotes}"],
    "quotes": ["compare", "--cashflows", "{cashflows}", "--assets", "{assets}", "--quotes", "{quotes}"],
    "surface_csv": ["value", "--surface", "{surface_csv}", "--ltm", "10", "--duration", "2"],
    "surface_json": ["value", "--surface", "{surface_json}", "--ltm", "10", "--duration", "2"],
    "config": [
        "--config", "{config}", "compare",
        "--cashflows", "{cashflows}", "--assets", "{assets}", "--quotes", "{quotes}",
    ],
    "spec": ["synth", "--spec", "{spec}"],
}
NAMES = {
    "cashflows": "cashflows.csv",
    "assets": "assets.csv",
    "quotes": "quotes.csv",
    "surface_csv": "surface.csv",
    "surface_json": "surface.json",
    "config": "config.json",
    "spec": "spec.json",
}


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory) -> dict[str, bytes]:
    """The bytes of one valid file of each input kind."""
    d = tmp_path_factory.mktemp("valid")
    population = gen_population(PopulationSpec.from_json_dict(SPEC))
    dataset, _ = build_dataset(population)
    surface = build_surface(dataset, 1, max_horizon=3)
    write_cashflows_csv(d / NAMES["cashflows"], population)
    write_assets_csv(d / NAMES["assets"], population)
    write_quotes_csv(d / NAMES["quotes"], gen_quotes(dataset, seed=4, max_duration=3))
    write_table(d / NAMES["surface_csv"], SURFACE_HEADER, surface_csv_rows(surface), SURFACE_SPECS)
    write_json(d / NAMES["surface_json"], surface_to_json_dict(surface))
    write_json(d / NAMES["config"], CONFIG)
    write_json(d / NAMES["spec"], SPEC)
    return {kind: (d / name).read_bytes() for kind, name in NAMES.items()}


def run(files: dict[str, bytes]) -> tuple[int, str, Path]:
    """Write the files, run the command that reads the first one, and
    return its exit code, its stderr and the first file's path; output
    goes to a scratch directory."""
    kind = next(iter(files))
    stderr = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        paths = {}
        for name, content in files.items():
            paths[name] = Path(tmp) / NAMES[name]
            paths[name].write_bytes(content)
        argv = [arg.format(**paths) for arg in COMMANDS[kind]]
        code = main(["--out", str(Path(tmp) / "out"), *argv])
    return code, stderr.getvalue(), paths[kind]


def check(files: dict[str, bytes]) -> None:
    """The run exits 0, 1 or 2, and on 1 prints one line that starts
    `error: <path>:`, naming the first file; an error joining the
    cashflows and assets files names both, as `<cashflows>, <assets>:`."""
    code, err, path = run(files)
    assert code in (0, 1, 2)
    if code == 1:
        joined = f"{path.with_name(NAMES['cashflows'])}, {path.with_name(NAMES['assets'])}:"
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert err.startswith((f"error: {path}:", f"error: {joined}")), err
        assert str(path) in err, err


FUZZ = settings(deadline=None, max_examples=40, suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("kind", list(NAMES))
def test_every_command_succeeds_on_valid_inputs(valid_inputs, kind):
    code, err, _ = run({kind: valid_inputs[kind], **valid_inputs})
    assert code == 0, err


@pytest.mark.parametrize("kind", list(NAMES))
@given(at=st.floats(0, 1), drop=st.integers(0, 8), junk=st.binary(max_size=24))
@FUZZ
def test_arbitrary_bytes_in_input(valid_inputs, kind, at, drop, junk):
    valid = valid_inputs[kind]
    cut = int(at * len(valid))
    files = {kind: valid[:cut] + junk + valid[cut + drop:]}
    files.update((k, v) for k, v in valid_inputs.items() if k not in files)
    check(files)


def small_if_integral(value) -> bool:
    """False for a number that would pass as a count or age above 12."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return not (math.isfinite(value) and float(value).is_integer() and abs(value) > 12)


JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-3, 12),
    st.floats(),
    st.sampled_from([1e300, -1e300, 1e307, 1e6, 0.5, 2.7, float("inf"), float("nan")]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)
SPEC_KEYS = ["seed", *SPEC["groups"][0]]


@given(key=st.sampled_from(SPEC_KEYS), value=JSON_VALUES)
@settings(FUZZ, max_examples=200)
def test_spec_value_swapped(valid_inputs, key, value):
    # keeps every population small; a large count or age is valid but slow
    assume(key not in ("count", "age_years") or small_if_integral(value))
    spec = json.loads(json.dumps(SPEC))
    (spec if key == "seed" else spec["groups"][0])[key] = value
    check({"spec": json.dumps(spec).encode()})


@given(key=st.sampled_from(sorted(CONFIG) + ["dollar_age_tolerance", "zero_floor"]), value=JSON_VALUES)
@example(key="rate", value=1e300)
@FUZZ
def test_config_value_swapped(valid_inputs, key, value):
    files = {"config": json.dumps({**CONFIG, key: value}).encode()}
    files.update((k, v) for k, v in valid_inputs.items() if k not in files)
    check(files)


@given(
    dollar_age=st.floats(min_value=0.01, max_value=1e300),
    tolerance=st.floats(min_value=0.0, max_value=1e300),
)
@example(dollar_age=1e15, tolerance=1e300)
@FUZZ
def test_dollar_age_and_tolerance(valid_inputs, dollar_age, tolerance):
    # a wide tolerance accepts any claimed age; surfaces stay bounded by
    # the years each asset is observed for
    header, first, *rest = valid_inputs["assets"].decode().splitlines(keepends=True)
    assets = header + f"{first.split(',')[0]},{dollar_age!r}\n" + "".join(rest)
    files = {
        "config": json.dumps({**CONFIG, "dollar_age_tolerance": tolerance}).encode(),
        "assets": assets.encode(),
    }
    files.update((k, v) for k, v in valid_inputs.items() if k not in files)
    code, err, _ = run(files)
    assert code in (0, 2), err
