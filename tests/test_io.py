import csv
import json
import re
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csv_writer_line
from royaltyval._io import (
    ParseError,
    csv_cell,
    json_object,
    listed,
    named,
    parse_number,
    quoted,
    read_json,
    read_table,
    record_header,
    record_rows,
    shown,
    write_json,
    write_records,
    write_table,
)
from royaltyval.cli import MULTIPLIERS_HEADER
from royaltyval.curves import SURFACE_HEADER, SURFACE_SPECS
from royaltyval.market import ComparisonError, ComparisonRow, MarketQuote, PlotGroup

HEADER = ("a", "b")


def table_file(tmp_path, text: str):
    """The path of a file in `tmp_path` holding `text` in UTF-8."""
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode("utf-8"))
    return path


def read_all(path) -> list[list[str]]:
    with read_table(path, HEADER) as rows:
        return [list(fields) for fields in rows]


def fail_at(path, first_field: str | None, exc: ValueError) -> None:
    """Raise `exc` while handling the row whose first field is
    `first_field`, or after the last row when it is None."""
    with read_table(path, HEADER) as rows:
        for fields in rows:
            if next(fields) == first_field:
                raise exc
        raise exc


class TestReadTable:
    def test_lines_count_rows_not_physical_lines(self, tmp_path):
        # a quoted field spanning lines is one row, so one line number
        path = table_file(tmp_path, 'a,b\n"x\ny",1\nz,2\n')
        assert read_all(path) == [["x\ny", "1"], ["z", "2"]]
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:line 3: bad z$"):
            fail_at(path, "z", ValueError("bad z"))

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("z\n", "expected 2 fields, got 1"),
            (
                f"z,{'1' * (csv.field_size_limit() + 1)}\n",
                f"a field is longer than the csv limit of {csv.field_size_limit()} characters",
            ),
        ],
        ids=["field_count", "field_limit"],
    )
    def test_every_row_error_uses_the_row_count(self, tmp_path, bad_row, message):
        path = table_file(tmp_path, 'a,b\n"x\ny",1\n' + bad_row)
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:line 3: {message}"):
            read_all(path)

    def test_bad_header_quotes_each_field_by_the_one_rule(self, tmp_path):
        path = table_file(tmp_path, "a," + "1" * 5000 + "\n")
        message = f"line 1: bad header ['a', '{'1' * 40}…' (5000 characters)], expected a,b"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{re.escape(message)}$"):
            read_all(path)

    def test_bad_header_shows_ten_fields(self, tmp_path):
        path = table_file(tmp_path, "," * 100_000 + "\n")
        message = f"line 1: bad header [{', '.join([repr('')] * 10)}, … (100001 in all)], expected a,b"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{re.escape(message)}$"):
            read_all(path)

    def test_unreadable_header_is_line_one(self, tmp_path):
        path = table_file(tmp_path, "a" * (csv.field_size_limit() + 1) + ",b\n")
        limit = csv.field_size_limit()
        message = f"line 1: a field is longer than the csv limit of {limit} characters"
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{message}$"):
            read_all(path)


class TestErrorsNameTheFile:
    @pytest.fixture
    def table(self, tmp_path):
        return table_file(tmp_path, "a,b\nx,1\ny,2\n")

    def test_error_while_a_row_is_handled_names_its_line(self, table):
        with pytest.raises(ParseError, match=f"^{re.escape(str(table))}:line 3: bad y$") as err:
            fail_at(table, "y", ValueError("bad y"))
        assert (err.value.path, err.value.line) == (str(table), 3)

    def test_error_after_the_last_row_names_the_file_only(self, table):
        with pytest.raises(ParseError, match=f"^{re.escape(str(table))}: no total$") as err:
            fail_at(table, None, ValueError("no total"))
        assert err.value.line is None

    def test_parse_error_passes_through_unprefixed(self, table):
        with pytest.raises(ParseError, match="^line 9: as raised$"):
            fail_at(table, "x", ParseError("as raised", line=9))

    def test_json_block_error_names_the_file(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('{"k": 1}')
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: k must be 2$") as err:
            with read_json(path) as value:
                assert value == {"k": 1}
                raise ValueError("k must be 2")
        assert err.value.line is None

    @pytest.mark.parametrize(
        "text,cause",
        [
            ("[" * 100_000 + "]" * 100_000, "arrays or objects nested too deeply"),
            ("1" * 5000, "integer of 5000 digits (at most 309)"),
            ("-" + "1" * 310, "integer of 310 digits (at most 309)"),
        ],
        ids=["deep", "long_integer", "negative_310_digits"],
    )
    def test_unreadable_json_names_the_file(self, tmp_path, text, cause):
        path = tmp_path / "c.json"
        path.write_text(text)
        message = f"{path}: invalid JSON: {cause}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as err:
            with read_json(path):
                pass
        assert err.value.line is None


class TestJsonObject:
    @pytest.mark.parametrize(
        "value,message",
        [
            ([], "x must be a JSON object"),
            ({"a": 1, "c": 2, "b": 3}, "x: unknown keys ['b', 'c']"),
            ({}, "x: missing keys ['a']"),
            (
                {f"k{i:02d}": i for i in range(12)},
                f"x: unknown keys [{', '.join(repr(f'k{i:02d}') for i in range(10))}, … (12 in all)]",
            ),
            ({"K" * 41: 1}, f"x: unknown keys ['{'K' * 40}…' (41 characters)]"),
        ],
        ids=["list", "unknown", "missing", "unknown_12", "unknown_41_characters"],
    )
    def test_error_texts(self, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            json_object(value, "x", ("a",), ("a",))

    def test_missing_keys_show_ten(self):
        keys = [f"k{i:02d}" for i in range(11)]
        message = f"x: missing keys [{', '.join(map(repr, keys[:10]))}, … (11 in all)]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            json_object({}, "x", keys, keys)

    def test_returns_the_value(self):
        value = {"a": 1}
        assert json_object(value, "x", ("a", "b")) is value


class TestParseNumber:
    @pytest.mark.parametrize(
        "text,kind,message",
        [
            ("x", float, "bad number 'x'"),
            ("1.5", int, "bad integer '1.5'"),
            ("", int, "bad integer ''"),
            pytest.param(
                "1" * 5000, int, f"bad integer '{'1' * 40}…' (5000 characters)", id="5000_digits"
            ),
            pytest.param(
                "1_" * 2500,
                float,
                f"bad number '{'1_' * 20}…' (5000 characters) (ASCII digits only, no underscores)",
                id="5000_characters_with_underscores",
            ),
        ],
    )
    def test_unreadable_text_is_named(self, text, kind, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_number(text, kind)


class TestQuoted:
    @pytest.mark.parametrize(
        "text", ["", "x", "A\nB", "it's", "7" * 40], ids=["empty", "x", "line_break", "quote", "40"]
    )
    def test_a_text_of_at_most_40_characters_is_its_repr(self, text):
        assert quoted(text) == repr(text)

    def test_a_longer_text_shows_its_first_40_characters_and_its_length(self):
        assert quoted("1" * 41) == f"'{'1' * 40}…' (41 characters)"
        assert quoted("\n" * 5000) == "'" + "\\n" * 40 + "…' (5000 characters)"


class TestNamedShownListed:
    def test_an_id_is_shown_as_it_is_up_to_40_characters(self):
        assert named("7" * 40) == "7" * 40
        assert named("7" * 41) == f"{'7' * 40}… (41 characters)"

    def test_a_json_value_is_its_repr_cut_at_40_characters(self):
        assert shown("x" * 41) == quoted("x" * 41)
        assert [shown(v) for v in (None, True, 2.5, [1])] == ["None", "True", "2.5", "[1]"]
        assert shown([1] * 20) == f"{str([1] * 20)[:40]}… (60 characters)"

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_a_list_of_at_most_10_items_is_shown_whole(self, n):
        items = [f"i{k}" for k in range(n)]
        assert listed(items, repr) == ", ".join(map(repr, items))

    def test_a_longer_list_shows_10_items_and_its_length(self):
        items = [f"i{k}" for k in range(11)]
        assert listed(items, str) == f"{', '.join(items[:10])}, … (11 in all)"

    def test_a_list_shows_items_up_to_200_characters_and_at_least_one(self):
        items = ["x" * 60] * 4
        assert listed(items, str) == f"{', '.join(items[:3])}, … (4 in all)"
        assert listed(["x" * 300] * 2, str) == f"{'x' * 300}, … (2 in all)"
        assert listed(["x" * 300], str) == "x" * 300


class TestWriteJson:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_names_the_path_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*not JSON compliant"):
            write_json(path, {"groups": [{"a": 1.0}] * 5000 + [{"mean": value}]})
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_number_leaves_an_earlier_file_as_it_was(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": 1})
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_json(path, {"a": float("nan")})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == '{\n  "a": 1\n}\n'

    @pytest.mark.parametrize(
        "payload",
        [
            {}, [], {"b": [1.5, None, True, "é\n"], "a": {"z": [], "y": {}}}, [{"x": -0.0, "y": 1e300}],
            {"rows": [{"k": k, "third": k / 3, "id": f"Q{k}"} for k in range(2000)]},
        ],
    )
    def test_bytes_are_json_dumps_text_and_a_line_end(self, tmp_path, payload):
        path = tmp_path / "out.json"
        write_json(path, payload)
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
        assert path.read_bytes() == text.encode("utf-8")

    def test_finite_payload_is_indented_sorted_and_ends_in_newline(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"b": 1.5, "a": [1]})
        assert path.read_text() == '{\n  "a": [\n    1\n  ],\n  "b": 1.5\n}\n'


# Cell texts the csv module quotes (a comma, a quote, a line break) and a
# carriage return, which it quotes in some Python versions.
TEXTS = st.text(st.sampled_from('Qa1 ,"\r\né'), max_size=6)
# A float field may hold an int or a Decimal, which format(v, spec) writes too.
NUMBERS = st.one_of(
    st.floats(), st.integers(-(10**9), 10**9), st.decimals(-(10**6), 10**6, places=8)
)
MAYBE = st.none() | NUMBERS
QUOTE_PRICES = st.floats(0.01, 1e6) | st.integers(1, 10**6)

RECORD_TABLES = [
    pytest.param(
        ComparisonRow, ".6f",
        st.builds(
            ComparisonRow, TEXTS, st.integers(1, 40), NUMBERS, MAYBE, NUMBERS, NUMBERS, NUMBERS,
            NUMBERS, MAYBE, NUMBERS,
        ),
        id="comparison_row",
    ),
    pytest.param(
        PlotGroup, ".6f",
        st.builds(PlotGroup, st.integers(), st.integers(0), MAYBE, NUMBERS, NUMBERS, NUMBERS, NUMBERS),
        id="plot_group",
    ),
    pytest.param(
        MarketQuote, "",
        st.builds(
            MarketQuote, TEXTS, QUOTE_PRICES, st.none() | QUOTE_PRICES, QUOTE_PRICES,
            st.integers(1, 40), st.floats(0.01, 100.0),
        ),
        id="market_quote",
    ),
    pytest.param(ComparisonError, "", st.builds(ComparisonError, TEXTS, TEXTS), id="comparison_error"),
]


@pytest.fixture(scope="module")
def records_dir(tmp_path_factory):
    """A directory whose file each example writes anew."""
    return tmp_path_factory.mktemp("records")


def csv_writer_bytes(header, rows) -> bytes:
    """The bytes csv.writer writes for `header` and the cell rows `rows`,
    each row's line as csv_writer_line gives it."""
    return "".join(map(csv_writer_line, (header, *rows))).encode("utf-8")


# Ids holding every text the csv module quotes, and `%`, which the
# cashflows writer escapes in its templates.
IDS = st.text(st.sampled_from('Qa1 ,"\r\n%é'), max_size=6) | st.just('""')
TABLES = [
    pytest.param(("a", "b", "c"), ("", "", ""), st.tuples(IDS, IDS, IDS), id="strings"),
    pytest.param(("asset_id", "dollar_age"), ("", ".6f"), st.tuples(IDS, MAYBE), id="assets"),
    pytest.param(
        SURFACE_HEADER, SURFACE_SPECS,
        st.tuples(st.integers(0, 40), st.integers(1, 40), st.floats(), st.floats(), st.integers(0)),
        id="surface",
    ),
    pytest.param(
        MULTIPLIERS_HEADER, ("", "", "g", ".6f"),
        st.tuples(st.integers(0, 40), st.integers(1, 40), st.floats(), NUMBERS),
        id="multipliers",
    ),
]


class TestWriteTable:
    """write_table against the csv module over the formatted cells."""

    @pytest.mark.parametrize("header,specs,rows", TABLES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_csv_writer_over_formatted_cells(self, records_dir, header, specs, rows, data):
        table = data.draw(st.lists(rows, max_size=8))
        write_table(records_dir / "lines.csv", header, iter(table), specs)
        cells = [["" if v is None else format(v, s) for v, s in zip(row, specs)] for row in table]
        assert (records_dir / "lines.csv").read_bytes() == csv_writer_bytes(header, cells)

    @given(asset_id=IDS)
    @settings(max_examples=60, deadline=None)
    def test_csv_cell_is_the_cell_of_the_id(self, records_dir, asset_id):
        write_table(records_dir / "lines.csv", ("asset_id", "x"), [(asset_id, 1)], ("", ""))
        text = (records_dir / "lines.csv").read_bytes().decode("utf-8")
        assert text == f"asset_id,x\n{csv_cell(asset_id)},1\n"

    def test_quoted_ids_and_specs(self, tmp_path):
        rows = [("a,b", 1.5), ('say "hi"', 2), ("x\ny", None), ('""', 0.25), ("%s", 3.0)]
        write_table(tmp_path / "t.csv", ("asset_id", "dollar_age"), rows, ("", ".6f"))
        assert (tmp_path / "t.csv").read_text() == (
            'asset_id,dollar_age\n"a,b",1.500000\n"say ""hi""",2.000000\n"x\ny",\n'
            '"""""",0.250000\n%s,3.000000\n'
        )

    def test_carriage_return_is_quoted_and_read_back(self, tmp_path):
        assert csv_cell("x\ry") == '"x\ry"'
        write_table(tmp_path / "t.csv", ("a", "b"), [("x\ry", 1)], ("", ""))
        assert (tmp_path / "t.csv").read_bytes() == b'a,b\n"x\ry",1\n'
        with read_table(tmp_path / "t.csv", ("a", "b")) as rows:
            assert [list(row) for row in rows] == [["x\ry", "1"]]


class TestWriteRecords:
    """write_records against the csv module over record_rows' cells."""

    @pytest.mark.parametrize("cls,spec,records", RECORD_TABLES)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_are_csv_writer_over_record_rows(self, records_dir, cls, spec, records, data):
        table = data.draw(st.lists(records, max_size=8))
        write_records(records_dir / "lines.csv", cls, table, spec)
        cells = record_rows(cls, table, spec)
        expected = csv_writer_bytes(record_header(cls), cells)
        assert (records_dir / "lines.csv").read_bytes() == expected

    def test_cells_are_written_by_declared_type(self, tmp_path):
        rows = [
            ComparisonRow("Q1", 3, 5, None, Decimal("2.0000005"), 1, 1, 1, None, float("nan")),
            ComparisonRow('Q"2', 3, 2.5, 1.0, 2.0, 1.0, 1.0, 1.0, float("inf"), 1.0),
        ]
        write_records(tmp_path / "c.csv", ComparisonRow, rows, ".6f")
        assert (tmp_path / "c.csv").read_text().splitlines()[1:] == [
            "Q1,3,5.000000,,2.000000,1.000000,1.000000,1.000000,,nan",
            '"Q""2",3,2.500000,1.000000,2.000000,1.000000,1.000000,1.000000,inf,1.000000',
        ]
