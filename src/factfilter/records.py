"""The line-oriented file formats every pipeline stage reads and writes.

Inputs (corpus, scores, annotations, generated summaries) are JSONL: UTF-8,
one JSON object per line, blank lines ignored. `read_jsonl` streams such a
file and names the `path:line` of any record that does not load;
`json_field` and `json_list` check a decoded field's JSON type exactly. Result
tables are CSV, written by `write_csv` as UTF-8 with LF line ends.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import DomainError, IntegrityError, ParseError

# On a stripped line, raw_decode plus an end-of-line check accepts and rejects
# exactly what json.loads does, without its per-call wrapper.
_decode_json = json.JSONDecoder().raw_decode


def utf8_lines(path: Path, newline: str | None = None) -> Iterator[str]:
    """Yield a UTF-8 text file's lines; a byte that is not UTF-8 is a `ParseError`
    naming its line. The file closes when the generator finishes or is discarded."""
    # surrogateescape turns each byte that is not UTF-8 into a lone surrogate,
    # which no valid UTF-8 decodes to, so such a line fails to encode back.
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline=newline) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise ParseError(f"not valid UTF-8: byte 0x{byte:02x}", path=str(path),
                                     line=lineno) from exc
            yield line


def read_jsonl(path: str | Path, consume: Callable[[dict[str, Any]], None]) -> None:
    """Pass each record of a JSONL file, in file order, to `consume`.

    Only the current line is held in memory. A line that is not valid UTF-8,
    invalid JSON, a second value on a line, a record that is not an object,
    and a `KeyError`, `TypeError`, `ValueError` or `OverflowError` (a JSON
    integer beyond float range) raised by `consume` become a `ParseError`
    naming the line. A `DomainError` or `IntegrityError` raised by `consume`
    keeps its class and gains a `path:line: ` prefix.
    """
    p = Path(path)
    for lineno, line in enumerate(utf8_lines(p), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record, end = _decode_json(line)
            if end != len(line):
                raise json.JSONDecodeError("Extra data", line, end)
            if not isinstance(record, dict):
                raise TypeError("record is not an object")
            consume(record)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", path=str(p), line=lineno) from exc
        except KeyError as exc:
            raise ParseError(f"missing field {exc}", path=str(p), line=lineno) from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(str(exc), path=str(p), line=lineno) from exc
        except (DomainError, IntegrityError) as exc:
            raise type(exc)(f"{p}:{lineno}: {exc}") from exc


# JSON types compared exactly, `type(value) in kinds`: a bool is an int
# subclass but no JSON number.
JSON_STRINGS = frozenset({str})
JSON_NUMBERS = frozenset({int, float})
JSON_OBJECTS = frozenset({dict})


def json_field(obj: dict[str, Any], key: str, kinds: frozenset[type]) -> Any:
    """`obj[key]`, whose type must be one of `kinds`; else a `TypeError` naming `key`."""
    value = obj[key]
    if type(value) not in kinds:
        names = " or ".join(sorted(kind.__name__ for kind in kinds))
        raise TypeError(f"{key!r} must be of type {names}, got {value!r}")
    return value


def json_list(obj: dict[str, Any], key: str, kinds: frozenset[type]) -> list:
    """`obj[key]`, which must be a JSON list of items of `kinds`: a string
    or an object would decode item by item."""
    items = obj[key]
    if type(items) is not list:
        raise TypeError(f"{key!r} must be a list, got {items!r}")
    if not kinds.issuperset(map(type, items)):
        bad = next(item for item in items if type(item) not in kinds)
        raise TypeError(f"{key!r} has an item of the wrong type: {bad!r}")
    return items


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence[Any]]) -> None:
    """Write `header` then `rows` as CSV: UTF-8, LF line ends."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
