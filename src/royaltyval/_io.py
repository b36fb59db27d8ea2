"""File formats: every CSV and JSON file is read and written here.

Readers take file paths, never open streams, and raise ValueError for
malformed input; read_table and read_json turn one raised in their block
into ParseError naming the file and, for a table row, its 1-based line.
The CLI reports it with exit status 1. Input files are UTF-8 and may start
with a byte-order mark. Writers emit UTF-8 with ``\\n`` line ends and no
timestamps, so equal inputs give equal bytes on every Python from 3.10.
Every CSV table is written by write_table, and csv_cell is the one rule of
how a cell is quoted; the csv module only reads. This module knows the CSV
dialect, but ingest's _CANONICAL_ROWS, _add_block and write_cashflows_csv
split and join the canonical cashflows rows at "," and "\\n" themselves.
plain_number_text is the one rule of how a number in a file or a flag is
written, and shown the one form in which a message shows an input value.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from itertools import islice
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence, get_args, get_type_hints

_MAX_JSON_INT_DIGITS = len(str(int(sys.float_info.max)))  # 309
_QUOTED_CHARS = 40
_LISTED_ITEMS = 10
_LISTED_CHARS = 200
_JSON_BATCH = 1024  # encoder pieces joined per write


class ParseError(ValueError):
    """Malformed input; carries the 1-based line number when known."""

    def __init__(self, message: str, *, line: int | None = None, path: str | None = None):
        prefix = "" if path is None else f"{path}:"
        if line is not None:
            prefix += f"line {line}: "
        elif prefix:
            prefix += " "
        super().__init__(prefix + message)
        self.line = line
        self.path = path


def _cut(text: str, form) -> str:
    """form(text), or past 40 characters form of its first 40 and its length."""
    if len(text) <= _QUOTED_CHARS:
        return form(text)
    return f"{form(text[:_QUOTED_CHARS] + '…')} ({len(text)} characters)"


def shown(value) -> str:
    """An input value, a field's text or a decoded JSON value, as a message
    shows it: its repr. One longer than 40 characters shows its first 40
    and its length, such as ``'1111…' (5000 characters)``, so no value
    makes a long message."""
    return _cut(value, repr) if isinstance(value, str) else _cut(repr(value), str)


def named(asset_id: str) -> str:
    """An asset id as a message names it: as it is, or past 40 characters
    cut the way shown cuts a value, such as ``1111… (5000 characters)``."""
    return _cut(asset_id, str)


def listed(items: Sequence, form) -> str:
    """The items, each shown by `form`, joined by commas: the first one, and
    then more while there are at most 10 in at most 200 characters. A list
    cut short ends with how many there are, such as ``…, 'j', … (12 in all)``."""
    texts = []
    size = 0
    for text in map(form, items[:_LISTED_ITEMS]):
        size += len(text) + len(", ")
        if texts and size > _LISTED_CHARS:
            break
        texts.append(text)
    joined = ", ".join(texts)
    return joined if len(texts) == len(items) else f"{joined}, … ({len(items)} in all)"


def check_id(asset_id: str) -> None:
    """Raise ValueError unless `asset_id` is a non-empty printable text. A
    line break or other control character would split the one-line
    messages and report rows that name the asset."""
    if not asset_id:
        raise ValueError("empty asset_id")
    if not asset_id.isprintable():
        raise ValueError(f"asset_id must be printable, got {shown(asset_id)}")


def plain_number_text(text: str) -> bool:
    """Whether `text` is ASCII without underscores, as every number in an
    input file is written. float() and int() also read non-ASCII digits
    (``٣`` is 3) and digit group underscores (``1_0`` is 10)."""
    return text.isascii() and "_" not in text


def parse_number(text: str, kind: type = float):
    """kind(text), float or int, for a number written in ASCII without
    underscores; other text is a ValueError naming it."""
    if not plain_number_text(text):
        raise ValueError(f"bad number {shown(text)} (ASCII digits only, no underscores)")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"bad {'integer' if kind is int else 'number'} {shown(text)}") from None


def json_object(value, where: str, keys, required=()):
    """`value`, checked to be a decoded JSON object whose keys are all in
    `keys` and include every key in `required`; `where` names it in the
    error."""
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = set(value) - set(keys)
    if unknown:
        raise ValueError(f"{where}: unknown keys [{listed(sorted(unknown), shown)}]")
    missing = set(required) - set(value)
    if missing:
        raise ValueError(f"{where}: missing keys [{listed(sorted(missing), shown)}]")
    return value


def json_number(key: str, value, integral: bool = False):
    """A decoded JSON value checked as the number setting `key` needs:
    not a bool, string or null, finite, and for `integral` a whole number,
    returned as int."""
    kind = "an integer" if integral else "a number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be {kind}, got {shown(value)}")
    if integral and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{key} must be an integer, got {shown(value)}")
    # int-float comparison is exact, so this also rejects ints too large for a float
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{key} must be finite, got {shown(value)}")
    return int(value) if integral else value


def _not_utf8(exc: UnicodeDecodeError, path: str) -> ParseError:
    """ParseError at the line of the first byte of the file that is not
    UTF-8. The decoder works in chunks, so `exc` knows neither the line
    nor the file offset; a regular file's bytes are decoded again to find
    them, while a pipe, which cannot be read twice, gets no line."""
    line = None
    if Path(path).is_file():
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as again:
            exc, line = again, data.count(b"\n", 0, again.start) + 1
    bad = exc.object[exc.start : exc.end]
    return ParseError(f"not UTF-8: {bad!r} ({exc.reason})", line=line, path=path)


@contextmanager
def read_table(path: str | Path, header: tuple[str, ...]) -> Iterator[Iterator[Iterator[str]]]:
    """The rows, each an iterator of stripped fields, of a CSV file whose
    first row is `header`; the file is opened once, when the block is
    entered, and closed when it exits.

    Rows are numbered from the header, line 1, however many physical lines
    each spans. Header fields may be padded with spaces. A missing or wrong
    header, a row without one field per header column, a row the csv module
    cannot read and bytes that are not UTF-8 raise ParseError at their
    line, as does a ValueError raised in the block while a row is handled;
    one raised after the last row names only the file.
    """
    path = str(path)
    line = None  # of the row being handled; None before the first and after the last

    def rows(handle) -> Iterator[Iterator[str]]:
        nonlocal line
        reader = csv.reader(handle)
        line = 0
        try:
            first = next(reader, None)
            line = 1
            if first is None:
                raise ParseError("file is empty, expected a header row", line=1, path=path)
            if tuple(map(str.strip, first)) != header:
                given = listed(first, shown)
                raise ParseError(
                    f"bad header [{given}], expected {','.join(header)}", line=1, path=path
                )
            width = len(header)
            for line, row in enumerate(reader, start=2):
                if len(row) != width:
                    raise ParseError(
                        f"expected {width} fields, got {len(row)}", line=line, path=path
                    )
                yield map(str.strip, row)
        except csv.Error as exc:
            message = str(exc)
            if message.startswith("field larger than field limit"):
                limit = csv.field_size_limit()
                message = f"a field is longer than the csv limit of {limit} characters"
            raise ParseError(message, line=line + 1, path=path) from None
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, path) from None
        line = None

    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        try:
            yield rows(handle)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), line=line, path=path) from None


def _json_int(text: str) -> int:
    """int(text) for a JSON integer of at most 309 digits. Every longer one
    is past the float range, which json_number rejects anyway, and int()
    refuses one past 4300 digits in words that vary with the Python version."""
    digits = len(text.lstrip("-"))
    if digits > _MAX_JSON_INT_DIGITS:
        raise ValueError(f"integer of {digits} digits (at most {_MAX_JSON_INT_DIGITS})")
    return int(text)


@contextmanager
def read_json(path: str | Path) -> Iterator:
    """The decoded JSON value of a file, which may start with a BOM. A
    ValueError raised in the block becomes ParseError naming the file."""
    path = str(path)
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, path) from None
    try:
        value = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON: {exc.msg} at column {exc.colno}", line=exc.lineno, path=path
        ) from None
    except ValueError as exc:  # from _json_int
        raise ParseError(f"invalid JSON: {exc}", path=path) from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply", path=path) from None
    try:
        yield value
    except ValueError as exc:
        raise ParseError(str(exc), path=path) from None


def csv_cell(text: str) -> str:
    """`text` as a cell of a CSV row: as it is, or in quotes with its quotes
    doubled when it holds a comma, a quote, a carriage return or a line
    break, so that read_table reads it back."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(values: tuple, specs: tuple[str, ...]) -> list[str]:
    """A row's cells, each value formatted with its spec and None blank."""
    return ["" if v is None else format(v, s) for v, s in zip(values, specs)]


def write_table(path: str | Path, header: Sequence[str], rows: Iterable, specs: tuple) -> None:
    """Write `header` and then each row, a tuple of values, as it comes, so
    that an iterator of rows is never held whole. A cell is its value
    formatted with its column's spec in `specs`, or blank for None.

    A row's line is one str.format of its values. A row holding None, or
    whose line holds a quote, a carriage return, a line break or more
    commas than the separators between its cells, which covers every cell
    that csv_cell quotes, is joined from its cells, each through csv_cell.
    """
    line, commas = ",".join(f"{{:{s}}}" for s in specs) + "\n", len(specs) - 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(map(csv_cell, header)) + "\n")
        for values in rows:
            if None not in values:
                text = line.format(*values)
                if (text.count(",") == commas and text.count("\n") == 1
                        and '"' not in text and "\r" not in text):
                    handle.write(text)
                    continue
            handle.write(",".join(map(csv_cell, _cells(values, specs))) + "\n")


def write_json(path: str | Path, payload) -> None:
    """Write `payload` as json.dumps gives it, 1,024 encoder pieces at a
    time as they are encoded, to a file beside `path` that then takes its
    name. One holding NaN or an infinity, which JSON cannot represent,
    raises ValueError naming the path and leaves no file."""
    temp = Path(f"{path}.tmp")
    pieces = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(payload)
    try:
        with open(temp, "w", encoding="utf-8") as handle:
            while batch := "".join(islice(pieces, _JSON_BATCH)):
                handle.write(batch)
            handle.write("\n")
        os.replace(temp, path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    finally:
        temp.unlink(missing_ok=True)


def record_dict(record) -> dict:
    """The fields of dataclass `record` by name, as asdict gives them for a
    record holding no records, lists or dicts, without its deep copy."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def int_field_names(cls) -> set[str]:
    """The fields of dataclass `cls` declared int."""
    hints = get_type_hints(cls)
    return {f.name for f in fields(cls) if hints[f.name] is int}


def record_header(cls) -> tuple[str, ...]:
    """The CSV header of a table of dataclass `cls`: its field names, in order."""
    return tuple(f.name for f in fields(cls))


def _record_layout(cls, float_spec: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The field names of dataclass `cls` and the format spec of each field:
    `float_spec` for a float and "" for any other."""
    names, hints = record_header(cls), get_type_hints(cls)
    specs = tuple(float_spec if float in (hints[n], *get_args(hints[n])) else "" for n in names)
    return names, specs


def record_rows(cls, records: Iterable, float_spec: str) -> Iterator[tuple[str, ...]]:
    """CSV rows of dataclass `cls` records, made one at a time as they are
    read, a cell per field formatted by its declared type: a str as it is,
    an int with str, a float with `float_spec` ("" writes repr's text) and
    a float that is None blank."""
    names, specs = _record_layout(cls, float_spec)
    return (tuple(_cells(values, specs)) for values in map(attrgetter(*names), records))


def write_records(path: str | Path, cls, records: Iterable, float_spec: str) -> None:
    """Write a table of dataclass `cls` records, a row at a time, through
    write_table: the field names as its header, each field's values as a
    column formatted by its declared type, as record_rows formats it."""
    names, specs = _record_layout(cls, float_spec)
    write_table(path, names, map(attrgetter(*names), records), specs)
