"""The line-oriented file formats every pipeline stage reads and writes.

Inputs (corpus, scores, annotations, generated summaries) are JSONL: UTF-8,
one JSON object per line, with only JSON whitespace around it; lines of JSON
whitespace are ignored. `read_jsonl` reads such a file a block of lines at a
time, with one JSON decode for a block that is provably one object per line
and line by line otherwise, and names the `path:line` of any record that does
not load; `json_field` and `json_list` check a decoded field's JSON type
exactly, `json_value` and `json_items` a decoded value's. `encode_json`
encodes a record for its line. Result tables are CSV, written by `write_csv`
as UTF-8 with LF line ends.
"""

from __future__ import annotations

import csv
import json
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


def utf8_lines(path: Path, newline: str | None = None) -> Iterator[str]:
    """Yield a UTF-8 text file's lines; a byte that is not UTF-8 is a `ParseError`
    naming its line. The file closes when the generator finishes or is discarded."""
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
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


# JSON types compared exactly, `type(value) in kinds`: a bool is an int
# subclass but no JSON number.
JSON_STRINGS = frozenset({str})
JSON_NUMBERS = frozenset({int, float})
JSON_OBJECTS = frozenset({dict})


def json_field(obj: dict[str, Any], key: str, kinds: frozenset[type]) -> Any:
    """`obj[key]`, checked by `json_value`."""
    return json_value(obj[key], key, kinds)


def json_value(value: Any, name: str, kinds: frozenset[type]) -> Any:
    """`value`, whose type must be one of `kinds`; else a `TypeError` naming `name`."""
    if type(value) not in kinds:
        names = " or ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"{name!r} must be of type {names}, got {value!r}")
    return value


def json_list(obj: dict[str, Any], key: str, kinds: frozenset[type]) -> list:
    """`obj[key]`, checked by `json_items`."""
    return json_items(obj[key], key, kinds)


def json_items(items: Any, name: str, kinds: frozenset[type]) -> list:
    """`items`, which must be a JSON list of items of `kinds`, else a
    `TypeError` naming `name`: a string or an object would decode item by item."""
    if type(items) is not list:
        raise TypeError(f"{name!r} must be a list, got {items!r}")
    if not kinds.issuperset(map(type, items)):
        bad = next(item for item in items if type(item) not in kinds)
        raise TypeError(f"{name!r} has an item of the wrong type: {bad!r}")
    return items


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Write `header` then `rows` as CSV: UTF-8, LF line ends."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
