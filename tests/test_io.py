import csv
import io

import pytest

from royaltyval._io import ParseError, read_table

HEADER = ("a", "b")


def read_all(text: str) -> list[tuple[int, list[str]]]:
    with read_table(io.StringIO(text), HEADER) as (_, rows):
        return [(line, list(fields)) for line, fields in rows]


class TestReadTable:
    def test_lines_count_rows_not_physical_lines(self):
        # a quoted field spanning lines is one row, so one line number
        rows = read_all('a,b\n"x\ny",1\nz,2\n')
        assert rows == [(2, ["x\ny", "1"]), (3, ["z", "2"])]

    @pytest.mark.parametrize(
        "bad_row,message",
        [
            ("z\n", "expected 2 fields, got 1"),
            (f"z,{'1' * (csv.field_size_limit() + 1)}\n", "field larger than field limit"),
        ],
        ids=["field_count", "field_limit"],
    )
    def test_every_row_error_uses_the_row_count(self, bad_row, message):
        with pytest.raises(ParseError, match=f"^line 3: {message}"):
            read_all('a,b\n"x\ny",1\n' + bad_row)

    def test_unreadable_header_is_line_one(self):
        with pytest.raises(ParseError, match="^line 1: field larger"):
            read_all("a" * (csv.field_size_limit() + 1) + ",b\n")
