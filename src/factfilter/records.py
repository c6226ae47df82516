"""The line-oriented file formats every pipeline stage reads and writes.

Inputs (corpus, scores, annotations, generated summaries) are JSONL: UTF-8,
one JSON object per line, with only JSON whitespace around it; lines of JSON
whitespace are ignored. `read_jsonl` reads such a file a block of lines at a
time, with one JSON decode for a block that is provably one object per line
and line by line otherwise, and names the `path:line` of any record that does
not load; `write_jsonl` writes one. The `json_*` helpers check a decoded
value's JSON type exactly and word a mistyped one alike for every file.
Result tables are CSV, written by `write_csv` and read back by `read_csv`.
"""

from __future__ import annotations

import csv
import json
from contextlib import closing
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

from .errors import DomainError, IntegrityError, ParseError

# On a stripped line, raw_decode plus an end-of-line check accepts and rejects
# exactly what json.loads does, without its per-call wrapper. A block of lines
# decodes through it too, as one JSON array.
_decode_json = json.JSONDecoder().raw_decode
# Every JSONL line is written through one encoder: `json.dumps` with a
# keyword argument builds a new encoder per call.
encode_json = json.JSONEncoder(ensure_ascii=False).encode

# The whitespace JSON allows around a value. `str.strip()` would also take
# Unicode spaces and separators (NBSP, U+2028, \x1c) that `json.loads` rejects.
JSON_WHITESPACE = " \t\r\n"

# About this many characters of lines are read and decoded at a time: the
# memory a read holds beyond the records it has handed on.
_BLOCK_CHARS = 2 ** 18


def _check_utf8(line: str, path: Path, lineno: int) -> None:
    """A `ParseError` naming `lineno` if `line`, read with surrogateescape and
    not ASCII, held a byte that is not UTF-8."""
    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate,
    # which no valid UTF-8 decodes to, so such a line fails to encode back.
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ParseError(f"not valid UTF-8: byte 0x{byte:02x}", path=str(path),
                         line=lineno) from exc


def utf8_lines(path: Path) -> Iterator[str]:
    """Yield a UTF-8 text file's lines, line ends untranslated (as `csv` reads
    them); a byte that is not UTF-8 is a `ParseError` naming its line."""
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                _check_utf8(line, path, lineno)
            yield line


def _read_block(handle: TextIO) -> list[str]:
    """The next whole lines of `handle`, about `_BLOCK_CHARS` characters of
    them (one line at least); `[]` at the end of the file."""
    return handle.readlines(_BLOCK_CHARS)


def _one_object_per_line(lines: list[str]) -> list | None:
    """The records of `lines` from one decode, or None unless each line is
    provably one JSON object, all of them valid UTF-8.

    The rule: joined by commas in brackets, the lines start with `[{`, end
    with `}]` or `}\n]`, hold one `{` per line and `}\n,{` at each of the
    joins. So every line starts with its only `{` and ends with `}` before its
    newline. Strict JSON allows no raw newline in a string, so that `}` is no
    string's, and no object reaches across a join (after a comma an object
    needs a key, not the next line's `{`): the `}` can only close the object
    its own line opened, which holds no other object. The array then decodes
    to one object per line, each equal to its line decoded alone, or fails.
    Counting alone proves nothing: `{"a": ["}", {}` / `{"b": "{"}]}` /
    `{"c": 1},{"d": 2}` decodes to three objects for three lines.
    """
    if lines[0].count("{") != 1:  # nested objects, most likely on every line: spare the join
        return None
    n = len(lines)
    text = ",".join([f"[{lines[0]}", *lines[1:-1], f"{lines[-1]}]"] if n > 1
                    else [f"[{lines[0]}]"])
    if not (text.startswith("[{") and text.endswith(("}\n]", "}]"))
            and text.count("{") == n and text.count("}\n,{") == n - 1):
        return None
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            return None
    try:
        records, end = _decode_json(text)
    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer
        return None
    return records if end == len(text) else None


def _located(exc: Exception, path: Path, lineno: int) -> Exception:
    """`exc`, raised reading or consuming line `lineno`, as the error reported
    for it: a `ParseError` naming the line, or a `DomainError` or
    `IntegrityError` of the same class with a `path:line: ` prefix."""
    if isinstance(exc, json.JSONDecodeError):
        return ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=lineno)
    if isinstance(exc, KeyError):
        return ParseError(f"missing field {exc}", path=str(path), line=lineno)
    if isinstance(exc, (DomainError, IntegrityError)):
        return type(exc)(f"{path}:{lineno}: {exc}")
    return ParseError(str(exc), path=str(path), line=lineno)


# What `_located` reports; any other exception propagates unchanged.
_LOCATED = (ValueError, KeyError, TypeError, OverflowError, DomainError, IntegrityError)


def _read_lines(path: Path, lines: list[str], first: int,
                consume: Callable[[dict[str, Any]], None]) -> None:
    """Decode and consume `lines`, numbered from `first`, one at a time."""
    for lineno, line in enumerate(lines, start=first):
        if not line.isascii():
            _check_utf8(line, path, lineno)
        line = line.strip(JSON_WHITESPACE)
        if not line:
            continue
        try:
            record, end = _decode_json(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if not isinstance(record, dict):
                raise TypeError("record is not an object")
            consume(record)
        except _LOCATED as exc:
            raise _located(exc, path, lineno) from exc


def read_jsonl(path: str | Path, consume: Callable[[dict[str, Any]], None],
               consume_block: Callable[[list[dict[str, Any]]], bool] | None = None) -> None:
    """Pass each record of a JSONL file, in file order, to `consume`.

    The file is read a block of lines at a time, so memory is bounded by one
    block (`_BLOCK_CHARS` characters, or one longer line). A block whose every
    line is provably one JSON object (`_one_object_per_line`) is decoded at
    once and handed whole to `consume_block`, if given, which takes all of it
    and returns True or takes none and returns False; otherwise its records go
    to `consume` one by one. Any other block is read line by line. Both ways
    give the same records and the same first error: a line that is not valid
    UTF-8, invalid JSON, a second value on a line, a record that is not an
    object, and a `KeyError`, `TypeError`, `ValueError` or `OverflowError` (a
    JSON integer beyond float range) raised by `consume` become a `ParseError`
    naming the line. A `DomainError` or `IntegrityError` raised by `consume`
    keeps its class and gains a `path:line: ` prefix.
    """
    p = Path(path)
    first = 1
    with p.open("r", encoding="utf-8", errors="surrogateescape") as handle:
        while lines := _read_block(handle):
            records = _one_object_per_line(lines)
            if records is None:
                _read_lines(p, lines, first, consume)
            elif consume_block is None or not consume_block(records):
                for lineno, record in enumerate(records, start=first):
                    try:
                        consume(record)
                    except _LOCATED as exc:
                        raise _located(exc, p, lineno) from exc
            first += len(lines)


def read_csv(path: str | Path, header: Sequence[str],
             consume: Callable[[list[str]], None]) -> None:
    """Pass each row after the header of a CSV file to `consume`, as a list of
    strings. A first row other than `header` is a `ParseError` naming the path;
    a row `csv` cannot read (a field over its size limit), a row of another
    width, and what `consume` raises are reported as `read_jsonl` reports
    them, naming the row's last line."""
    p = Path(path)
    with closing(utf8_lines(p)) as lines:
        rows = csv.reader(lines)
        if next(rows, None) != list(header):
            raise ParseError(f"the header is not {','.join(header)}", path=str(p))
        width = len(header)
        try:
            for row in rows:
                if len(row) != width:
                    raise ValueError(f"expected {width} fields, got {len(row)}")
                consume(row)
        except (*_LOCATED, csv.Error) as exc:
            raise _located(exc, p, rows.line_num) from exc


# JSON types compared exactly, `type(value) in kinds`: a bool is an int
# subclass but no JSON number. `_JSON_NAMES` words each kind.
JSON_STRINGS = frozenset({str})
JSON_NUMBERS = frozenset({int, float})
JSON_INTEGERS = frozenset({int})
JSON_BOOLS = frozenset({bool})
JSON_OBJECTS = frozenset({dict})
_JSON_NAMES = {JSON_STRINGS: "a string", JSON_NUMBERS: "a number", JSON_INTEGERS: "an integer",
               JSON_BOOLS: "true or false", JSON_OBJECTS: "an object"}


def json_field(obj: dict[str, Any], key: str, kinds: frozenset[type]) -> Any:
    """`obj[key]`, checked by `json_value`."""
    return json_value(obj[key], key, kinds)


def json_fields(obj: dict[str, Any], keys: Sequence[str], kinds: frozenset[type]) -> list:
    """`obj[key]` for each of `keys`, in order, checked by `json_value` with one
    type test for all of them."""
    values = [obj[key] for key in keys]
    if not kinds.issuperset(map(type, values)):
        for key, value in zip(keys, values):
            json_value(value, key, kinds)
    return values


def json_value(value: Any, name: str, kinds: frozenset[type]) -> Any:
    """`value`, whose type must be one of `kinds`; else a `TypeError` naming
    `name`, such as `'document' must be a string, got 5`."""
    if type(value) not in kinds:
        raise TypeError(f"{name!r} must be {_JSON_NAMES[kinds]}, got {value!r}")
    return value


def json_items(items: Any, name: str, kinds: frozenset[type]) -> list:
    """`items`, which must be a JSON list of items of `kinds`, else a
    `TypeError` naming `name`: a string or an object would decode item by item."""
    if type(items) is not list:
        raise TypeError(f"{name!r} must be a list, got {items!r}")
    if not kinds.issuperset(map(type, items)):
        bad = next(item for item in items if type(item) not in kinds)
        raise TypeError(f"{name!r} has an item of the wrong type: {bad!r}")
    return items


def write_jsonl(path: str | Path, records: Iterable[dict[str, Any]], append: bool = False) -> None:
    """Write each record as one JSON line (`encode_json`): UTF-8, LF line
    ends, after the file's existing lines if `append`."""
    with Path(path).open("a" if append else "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(encode_json(record) + "\n")


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Write `header` then `rows` as CSV: UTF-8, LF line ends, a float cell
    (numpy's `float64` too) as `repr(float(cell))` whatever numpy's print
    options, `None` as an empty cell and any other cell as `str(cell)`."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(float(cell)) if isinstance(cell, float) else cell
                          for cell in row] for row in rows)
