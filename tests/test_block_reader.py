"""Reading a JSONL file a block of lines at a time (`records.read_jsonl`, with
`ScoreTable.add_rows` for scores files) gives what reading it one line at a
time gives: the same table or records, or the same first error.

The per-line reader is `read_jsonl` with its block rule switched off, so that
every block goes through the line-by-line path.
"""

from __future__ import annotations

import json
import tempfile
from contextlib import ExitStack
from itertools import islice
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfilter import ScoreTable, load_scores, records
from factfilter.errors import DomainError, IntegrityError, ParseError

# Lines per block: one, two, or about `records._BLOCK_CHARS` characters.
BLOCK_SIZES = [1, 2, None]


def _reading(block_lines: int | None, per_line: bool = False) -> ExitStack:
    """A context in which `read_jsonl` reads `block_lines` lines at a time (its
    own block size for None), and every block line by line if `per_line`."""
    stack = ExitStack()
    if block_lines is not None:
        stack.enter_context(mock.patch.object(
            records, "_read_block", lambda handle: list(islice(handle, block_lines))))
    if per_line:
        stack.enter_context(mock.patch.object(records, "_one_object_per_line",
                                              lambda lines: None))
    return stack


def _table_outcome(path: Path):
    try:
        table = load_scores(path, "c")
    except (ParseError, DomainError, IntegrityError) as exc:
        return "error", type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None)
    return "table", table.scorers, {
        scorer: (column.ids, column._values.tobytes(), column.reasons, column.provenance)
        for scorer, column in table._columns.items()}


def _records_outcome(path: Path):
    seen = []
    try:
        records.read_jsonl(path, seen.append)
    except ParseError as exc:
        return "error", str(exc), exc.path, exc.line, seen
    return "records", seen


def assert_block_reads_equal_line_reads(path: Path) -> tuple:
    """The per-line outcome of `load_scores` on `path`, after checking that the
    block reader gives it too, and the same records to a plain consumer, at
    each of `BLOCK_SIZES`."""
    with _reading(None, per_line=True):
        table, plain = _table_outcome(path), _records_outcome(path)
    for size in BLOCK_SIZES:
        with _reading(size):
            assert _table_outcome(path) == table, size
            assert _records_outcome(path) == plain, size
    return table


# Pair ids, then ids and reasons holding the brace and join texts the block
# rule looks at: a line holding one is read line by line.
_IDS = ["a", "b", "c", "é"]
_BRACED_IDS = [*_IDS, "p},{q", "{", "}", "}\n,{", 'x"}', "{}"]
_REASONS = ["NoArcsError: no arcs", "x }{ y", "x },{ y"]


def _row(pair_id: str, scorer: str, value: float | None, truncated: bool,
         reason: str = "NoArcsError: no arcs") -> dict:
    row = {"pair_id": pair_id, "scorer": scorer, "backend_name": "mock",
           "backend_version": "1", "value": value, "truncated": truncated}
    if value is None:
        row["error"] = reason
    return row


_VALUES = st.one_of(st.none(), st.sampled_from([0.0, 0.5, 1, -0.25, 1e-300]),
                    st.floats(0.0, 1.0))

# Changes to one row that one of the table's checks rejects.
_ROW_FAULTS = {
    "out-of-range": lambda row: {**row, "value": 1.5},
    "nan": lambda row: {**row, "value": float("nan")},
    "huge-integer": lambda row: {**row, "value": 10 ** 400},
    "string-value": lambda row: {**row, "value": "0.5"},
    "bool-value": lambda row: {**row, "value": True},
    "second-provenance": lambda row: {**row, "backend_version": "2"},
    "missing-scorer": lambda row: {k: v for k, v in row.items() if k != "scorer"},
    "integer-id": lambda row: {**row, "pair_id": 7},
    "list-id": lambda row: {**row, "pair_id": ["a"]},
    "null-error": lambda row: {**row, "error": None},
    "string-truncated": lambda row: {**row, "truncated": "no"},
    "missing-truncated": lambda row: {k: v for k, v in row.items() if k != "truncated"},
}


@st.composite
def scores_files(draw) -> bytes:
    """A valid scores file, then some of: rows changed to fail a check,
    duplicated or moved, and lines torn, joined, split, doubled, padded,
    blanked or given a byte that is not UTF-8, with LF, CRLF or lone-CR ends."""
    braced = draw(st.booleans())
    ids = draw(st.lists(st.sampled_from(_BRACED_IDS if braced else _IDS), min_size=1,
                        max_size=5, unique=True))
    scorers = draw(st.lists(st.sampled_from(["greedy", "dae", "custom"]), min_size=1,
                            max_size=3, unique=True))
    rows = [_row(pair_id, scorer, draw(_VALUES), draw(st.booleans()),
                 draw(st.sampled_from(_REASONS if braced else _REASONS[:1])))
            for scorer in scorers for pair_id in ids]
    if draw(st.booleans()):  # pair-major: a scorer's rows are not one run
        rows.sort(key=lambda row: row["pair_id"])
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from([*_ROW_FAULTS, *["duplicate"] * 4]))
        if fault == "duplicate":
            rows.insert(draw(st.one_of(st.just(len(rows)), st.integers(i + 1, len(rows)))),
                        rows[i])
        else:
            rows[i] = _ROW_FAULTS[fault](rows[i])
    lines = [json.dumps(row, ensure_ascii=draw(st.booleans())) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(lines) - 1))
        cut = draw(st.integers(0, len(lines[i])))
        fault = draw(st.sampled_from(["torn", "joined", "split", "two-values", "padded",
                                      "blank", "bad-byte"]))
        if fault == "torn":
            lines[i] = lines[i][:cut]
        elif fault == "joined" and i + 1 < len(lines):
            lines[i:i + 2] = [lines[i] + draw(st.sampled_from(["", ",", " "])) + lines[i + 1]]
        elif fault == "split":
            lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
        elif fault == "two-values":
            lines[i] += draw(st.sampled_from([" {}", ",{}", " 1", "}"]))
        elif fault == "padded":  # JSON whitespace, or Unicode whitespace JSON rejects
            pads = st.sampled_from([" ", "\t", "\xa0", "\u2028", "\x1c"])
            lines[i] = draw(pads) + lines[i] + draw(pads)
        elif fault == "blank":
            lines.insert(i, draw(st.sampled_from(["", "  "])))
        elif fault == "bad-byte":
            lines[i] = lines[i][:cut] + "\udcff" + lines[i][cut:]
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(map(str.__add__, lines, ends)).encode("utf-8", "surrogateescape")


@given(scores_files())
@settings(max_examples=300)
def test_block_and_line_reads_agree(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scores.jsonl"
        path.write_bytes(data)
        assert_block_reads_equal_line_reads(path)


def _lines(*lines: str | bytes) -> bytes:
    return b"".join((line if isinstance(line, bytes) else line.encode()) + b"\n"
                    for line in lines)


def _good(pair_id: str, value: float = 0.5) -> str:
    return json.dumps(_row(pair_id, "greedy", value, False))


@pytest.mark.parametrize("data, error, line, part", [
    # A count of lines against decoded values passes these three lines.
    (_lines('{"a": [1', '2]}', '{"b": 1}, {"c": 2}'), ParseError, 1, "invalid JSON"),
    # So does any count of braces, balanced on each line.
    (_lines('{"a": ["}", {}', '{"b": "{"}]}', '{"c": 1},{"d": 2}'), ParseError, 1,
     "invalid JSON"),
    # The first error in file order: a bad value on line 3, not the bad byte on line 5.
    (_lines(_good("a"), _good("b"), _good("c", 1.5), _good("d"),
            _good("e").encode().replace(b'"e"', b'"e\xff"')),
     DomainError, 3, "outside the valid range"),
    (_lines(_good("a"), _good("b"), _good("a")), IntegrityError, 3, "duplicate score"),
    # A scorer's second run in one block: a duplicate, then a second provenance.
    (_lines(_good("a"), json.dumps(_row("a", "dae", 0.5, False)), _good("a")), IntegrityError,
     3, "duplicate score"),
    (_lines(_good("a"), json.dumps({**_row("b", "greedy", 0.5, False), "backend_version": "2"})),
     IntegrityError, 2, "mixes backends"),
], ids=["count-hazard", "balanced-braces", "value-before-byte", "duplicate",
        "duplicate-in-a-second-run", "second-provenance"])
def test_pinned_files_fail_at_the_first_bad_line(tmp_path, data, error, line, part):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(data)
    outcome = assert_block_reads_equal_line_reads(path)
    assert outcome[:2] == ("error", error)
    assert outcome[2].startswith(f"{path}:{line}: ") and part in outcome[2]


def test_a_clean_file_loads_a_block_at_a_time(tmp_path):
    path = tmp_path / "scores.jsonl"
    path.write_bytes(_lines(*(
        json.dumps(_row(f"p{i}", scorer, None if (scorer, i) == ("dae", 3) else 0.5, True))
        for scorer in ("greedy", "dae") for i in range(50))))
    with mock.patch.object(ScoreTable, "add_row", side_effect=AssertionError):
        table = load_scores(path, "c")
    assert table.failures("dae") == {"p3": "NoArcsError: no arcs"}
    assert len(table.values("greedy")) == 50
    assert assert_block_reads_equal_line_reads(path)[0] == "table"


@pytest.mark.parametrize("last", [
    _row("b", "greedy", 1.5, False),
    _row("a", "greedy", 0.5, False),
    {**_row("b", "greedy", 0.5, False), "backend_version": "2"},
    _row("b", "greedy", "0.5", False),
    _row("c", "dae", 0.5, False),
    {**_row("e", "dae", 0.5, False), "backend_version": "2"},
], ids=["out-of-range", "duplicate", "second-provenance", "mistyped", "duplicate-in-block",
        "second-provenance-in-block"])
def test_a_refused_block_changes_nothing(last):
    table = ScoreTable("c")
    assert table.add_rows([_row("a", "greedy", 0.5, False)])
    before = {scorer: (column.ids, column._values.tobytes(), dict(column.reasons))
              for scorer, column in table._columns.items()}
    assert not table.add_rows([_row("c", "dae", 0.25, False), _row("c", "greedy", None, False),
                               _row("d", "greedy", 0.25, False), last])
    assert {scorer: (column.ids, column._values.tobytes(), dict(column.reasons))
            for scorer, column in table._columns.items()} == before


def test_a_refused_block_leaves_each_index_as_it_was():
    # The block repeats only known ids, so its update leaves the index as long
    # as it was and gives both ids new rows.
    table = ScoreTable("c")
    assert table.add_rows([_row("a", "greedy", 0.5, False), _row("b", "greedy", 0.25, False)])
    assert not table.add_rows([_row("c", "dae", 0.5, False), _row("b", "greedy", 0.75, False),
                               _row("a", "greedy", 0.75, False)])
    assert table.scorers == ["greedy"]
    assert table.column("greedy").index == {"a": 0, "b": 1}
    assert dict(table.column("greedy")) == {"a": 0.5, "b": 0.25}
