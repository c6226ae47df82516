"""One module (`factfilter.records`) reads and writes every file format.

Each JSONL loader, and the evaluation report's CSV reader, reports each kind
of bad record with one exception class, names its `path:line`, and maps to
exit code 2 on the command line; every loader words a mistyped field the same
way, and every CSV writer writes a number the same way.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from factfilter import load_annotations, load_corpus, load_scores
from factfilter.cli import _load_generated, main
from factfilter.corpus import Corpus, Pair, save_corpus, toy_corpus_path
from factfilter.errors import DomainError, IntegrityError, ParseError, TransportError
from factfilter.filtration import FilterManifest
from factfilter.metrics import EvalReport
from factfilter.records import (JSON_STRINGS, json_fields, read_csv, read_jsonl, write_csv,
                                write_jsonl)
from factfilter.remote import PROTOCOL, _decode
from factfilter.scorers import FactualityScore, ScoreFailure, write_scores
from factfilter.validation import CATEGORIES

SRC = Path(__file__).resolve().parent.parent / "src" / "factfilter"

GOOD = {
    "corpus": lambda i: {"id": i, "document": "the mayor opened the bridge",
                         "summary": "the mayor opened it", "split": "test", "meta": {}},
    "scores": lambda i: {"pair_id": i, "scorer": "dae", "backend_name": "mock",
                         "backend_version": "1", "value": 0.5, "truncated": False},
    "annotations": lambda i: {"summary_id": i, "dataset": "cnndm", "system": "sysA",
                              "factuality": 1.0, "errors": dict.fromkeys(CATEGORIES, False)},
    "generated": lambda i: {"id": i, "summary": "the mayor opened it"},
}

LOADERS = {
    "corpus": load_corpus,
    "scores": lambda path: load_scores(path, "c"),
    "annotations": load_annotations,
    "generated": _load_generated,
    "report": EvalReport.from_csv,
}

# An evaluation report is CSV: its header, then one row per line.
REPORT_HEADER = "record,pair_id,metric,value,n,headline,note"


def _report_row(pair_id):
    return f"pair,{pair_id},rouge2,0.5,,,"


def _cli_argv(loader: str, path: Path, tmp_path: Path) -> list[str]:
    """A command whose first file read is `path`, loaded by `loader`."""
    if loader == "corpus":
        return ["ingest", "--in", str(path), "--out", str(tmp_path / "out.jsonl")]
    if loader == "report":
        return ["compare", "--report-a", str(path), "--report-b", str(path),
                "--out", str(tmp_path / "c.csv")]
    if loader == "scores":
        return ["filter", "--scores", str(path), "--out", str(tmp_path / "m.json"),
                "--corpus-name", "c"]
    scores = tmp_path / "good_scores.jsonl"
    scores.write_text(json.dumps(GOOD["scores"]("a")) + "\n", encoding="utf-8")
    if loader == "annotations":
        return ["validate-frank", "--annotations", str(path), "--scores", str(scores),
                "--out", str(tmp_path / "v.csv")]
    return ["evaluate", "--in", str(toy_corpus_path()), "--generated", str(path),
            "--out", str(tmp_path / "r.csv"), "--backend", "mock"]


def _without(field):
    return lambda record: json.dumps({k: v for k, v in record.items() if k != field})


def _with(**change):
    return lambda record: json.dumps({**record, **change})


def _flag(category, value):
    return lambda record: json.dumps({**record, "errors": {**record["errors"],
                                                           category: value}})


def _same_as_first(loader):
    return lambda record: json.dumps(GOOD[loader]("a"))


# (loader, kind, bad line from a good record with id "b", error class, message part)
CASES = [
    *[(loader, kind, make, ParseError, part)
      for loader in GOOD
      for kind, make, part in (
          ("bad-json", lambda record: "{not json", "invalid JSON"),
          ("two-values", lambda record: json.dumps(record) + " {}", "Extra data"),
          ("non-object", lambda record: json.dumps([record]), "not an object"))],
    ("corpus", "missing-field", _without("summary"), ParseError, "'summary'"),
    ("corpus", "mistyped-field", _with(document=5), ParseError, "'document'"),
    ("corpus", "empty-document", _with(document="  "), ParseError, "document is empty"),
    ("corpus", "unknown-split", _with(split="dev"), ParseError, "split 'dev'"),
    ("corpus", "duplicate", _same_as_first("corpus"), IntegrityError, "duplicate id 'a'"),
    ("scores", "missing-field", _without("scorer"), ParseError, "'scorer'"),
    ("scores", "mistyped-field", _with(value="0.5"), ParseError, "'value'"),
    ("scores", "non-string-id", _with(pair_id=7), ParseError, "'pair_id'"),
    ("scores", "out-of-range", _with(value=1.5), DomainError, "outside the valid range"),
    ("scores", "duplicate", _same_as_first("scores"), IntegrityError,
     "duplicate score for pair 'a'"),
    ("annotations", "missing-field", _without("system"), ParseError, "'system'"),
    ("annotations", "mistyped-field", _flag("discourse", "false"), ParseError,
     "'discourse'"),
    ("annotations", "unknown-dataset", _with(dataset="nyt"), DomainError, "'nyt'"),
    ("annotations", "null-id", _with(summary_id=None), ParseError, "'summary_id'"),
    ("annotations", "integer-id", _with(summary_id=7), ParseError, "'summary_id'"),
    ("annotations", "integer-dataset", _with(dataset=1), ParseError, "'dataset'"),
    ("annotations", "list-system", _with(system=["a"]), ParseError, "'system'"),
    ("annotations", "duplicate", _same_as_first("annotations"), IntegrityError,
     "duplicate annotation for summary 'a'"),
    ("generated", "missing-field", _without("summary"), ParseError, "'summary'"),
    ("generated", "mistyped-field", _with(summary=7), ParseError, "'summary'"),
    ("generated", "duplicate", _same_as_first("generated"), IntegrityError,
     "duplicate generated summary for id 'a'"),
    ("report", "duplicate", lambda row: _report_row("a"), IntegrityError,
     "a second row for pair 'a', metric 'rouge2'"),
    ("report", "failure-after-pair", lambda row: "failure,a,rouge2,,,,boom", IntegrityError,
     "a second row for pair 'a', metric 'rouge2'"),
    ("report", "nan", lambda row: row.replace("0.5", "nan"), DomainError, "is not finite"),
    ("report", "infinite", lambda row: row.replace("0.5", "inf"), DomainError,
     "is not finite"),
    ("report", "unknown-kind", lambda row: row.replace("pair", "pairs", 1), ParseError,
     "unknown record kind 'pairs'"),
    ("report", "capitalised-kind", lambda row: row.replace("pair", "Pair", 1), ParseError,
     "unknown record kind 'Pair'"),
    ("report", "short-row", lambda row: "pair,b,rouge2", ParseError, "expected 7 fields, got 3"),
]
# A generated summary has no domain of its own: an empty one or an id outside
# the corpus is judged later, by `evaluate`, so that loader has no such case.


def _bad_file(tmp_path: Path, loader: str, make_bad) -> Path:
    """Line 1 a good record, line 2 blank, line 3 the bad record; for a report,
    line 1 its header and line 2 a good row."""
    if loader == "report":
        path = tmp_path / "report.csv"
        path.write_text(f"{REPORT_HEADER}\n{_report_row('a')}\n{make_bad(_report_row('b'))}\n",
                        encoding="utf-8")
        return path
    path = tmp_path / f"{loader}.jsonl"
    path.write_text(json.dumps(GOOD[loader]("a")) + "\n\n" + make_bad(GOOD[loader]("b"))
                    + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("loader, kind, make_bad, error, part", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
class TestLoaderMatrix:
    def test_library_error_names_path_and_line(self, tmp_path, loader, kind, make_bad,
                                               error, part):
        path = _bad_file(tmp_path, loader, make_bad)
        with pytest.raises(error) as excinfo:
            LOADERS[loader](path)
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"{path}:3: ")
        assert part in str(excinfo.value)
        if error is ParseError:
            assert (excinfo.value.path, excinfo.value.line) == (str(path), 3)

    def test_cli_exits_two_naming_path_and_line(self, tmp_path, capsys, loader, kind,
                                                make_bad, error, part):
        path = _bad_file(tmp_path, loader, make_bad)
        assert main(_cli_argv(loader, path, tmp_path)) == 2
        assert f"data error: {path}:3: " in capsys.readouterr().err


@pytest.mark.parametrize("second", ["pair,a,rouge2,0.5,,,", "failure,a,rouge2,,,,again"],
                         ids=["pair", "failure"])
def test_report_row_after_a_failure_row_is_a_second_row(tmp_path, second):
    path = tmp_path / "report.csv"
    path.write_text(f"{REPORT_HEADER}\nfailure,a,rouge2,,,,boom\n{second}\n", encoding="utf-8")
    with pytest.raises(IntegrityError, match=f"^{path}:3: a second row for pair 'a'"):
        EvalReport.from_csv(path)


@pytest.mark.parametrize("header", ["record,x", REPORT_HEADER.removesuffix(",note"),
                                    REPORT_HEADER + ",extra", REPORT_HEADER.upper(), ""],
                         ids=["two-columns", "six-columns", "eight-columns", "upper-case",
                              "empty-file"])
def test_report_header_must_be_the_seven_columns(tmp_path, capsys, header):
    path = tmp_path / "report.csv"
    path.write_text(f"{header}\n{_report_row('a')}\n" if header else "", encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        EvalReport.from_csv(path)
    assert str(excinfo.value) == f"{path}: the header is not {REPORT_HEADER}"
    assert (excinfo.value.path, excinfo.value.line) == (str(path), None)
    assert main(_cli_argv("report", path, tmp_path)) == 2
    assert f"data error: {path}: the header is not" in capsys.readouterr().err


def _manifest_error(tmp_path: Path, **change) -> str:
    path = tmp_path / "manifest.json"
    FilterManifest(corpus_name="c", scorer_names=(), q=0.25, per_scorer_thresholds={},
                   kept_ids=("a",), n_pairs=1, selection_ratio=1.0, created_with={}).save(path)
    path.write_text(json.dumps({**json.loads(path.read_text(encoding="utf-8")), **change}),
                    encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        FilterManifest.load(path)
    return str(excinfo.value).removeprefix(f"{path}: ")


def _handshake_error(**change) -> str:
    info = {"name": "mock", "version": "1", "deterministic": True, "max_tokens": 512,
            "protocol": PROTOCOL, **change}
    with pytest.raises(TransportError) as excinfo:
        _decode("descriptor", {"result": info})
    return str(excinfo.value)


def _load_error(tmp_path: Path, loader: str, make_bad) -> str:
    path = _bad_file(tmp_path, loader, make_bad)
    with pytest.raises(ParseError) as excinfo:
        LOADERS[loader](path)
    return str(excinfo.value).removeprefix(f"{path}:3: ")


# (file, what goes wrong, the error's text, its expected text)
WORDING = [
    ("corpus", "document", lambda tmp: _load_error(tmp, "corpus", _with(document=5)),
     "'document' must be a string, got 5"),
    ("corpus", "split", lambda tmp: _load_error(tmp, "corpus", _with(split=None)),
     "'split' must be a string, got None"),
    ("corpus", "meta", lambda tmp: _load_error(tmp, "corpus", _with(meta=[])),
     "'meta' must be an object, got []"),
    ("scores", "pair_id", lambda tmp: _load_error(tmp, "scores", _with(pair_id=7)),
     "'pair_id' must be a string, got 7"),
    ("scores", "error", lambda tmp: _load_error(tmp, "scores", _with(error=3)),
     "'error' must be a string, got 3"),
    ("scores", "truncated", lambda tmp: _load_error(tmp, "scores", _with(truncated=1)),
     "'truncated' must be true or false, got 1"),
    ("annotations", "flag",
     lambda tmp: _load_error(tmp, "annotations", _flag("discourse", "false")),
     "'discourse' must be true or false, got 'false'"),
    ("annotations", "errors",
     lambda tmp: _load_error(tmp, "annotations", _with(errors=["discourse"])),
     "'errors' must be an object, got ['discourse']"),
    ("annotations", "factuality",
     lambda tmp: _load_error(tmp, "annotations", _with(factuality=True)),
     "'factuality' must be a number, got True"),
    ("annotations", "system", lambda tmp: _load_error(tmp, "annotations", _with(system=7)),
     "'system' must be a string, got 7"),
    ("generated", "summary", lambda tmp: _load_error(tmp, "generated", _with(summary=7)),
     "'summary' must be a string, got 7"),
    ("manifest", "n_pairs", lambda tmp: _manifest_error(tmp, n_pairs="1"),
     "malformed manifest: 'n_pairs' must be an integer, got '1'"),
    ("manifest", "created_with", lambda tmp: _manifest_error(tmp, created_with={"g": []}),
     "malformed manifest: 'g' must be an object, got []"),
    ("handshake", "max_tokens", lambda tmp: _handshake_error(max_tokens="512"),
     "reply to 'descriptor' has a missing or mistyped field: "
     "TypeError: 'max_tokens' must be an integer, got '512'"),
]


@pytest.mark.parametrize("error, expected", [(case[2], case[3]) for case in WORDING],
                         ids=[f"{case[0]}-{case[1]}" for case in WORDING])
def test_one_wording_for_a_mistyped_field(tmp_path, error, expected):
    assert error(tmp_path) == expected


class TestJsonFields:
    def test_returns_the_values_in_key_order(self):
        assert json_fields({"b": "y", "a": "x"}, ("a", "b"), JSON_STRINGS) == ["x", "y"]

    @pytest.mark.parametrize("obj, message", [
        ({"a": 1, "b": 2}, "'a' must be a string, got 1"),
        ({"a": "x", "b": 2}, "'b' must be a string, got 2"),
    ], ids=["first", "last"])
    def test_names_the_first_mistyped_key(self, obj, message):
        with pytest.raises(TypeError) as excinfo:
            json_fields(obj, ("a", "b"), JSON_STRINGS)
        assert str(excinfo.value) == message

    def test_a_missing_key_is_a_key_error(self):
        with pytest.raises(KeyError, match="'b'"):
            json_fields({"a": 1}, ("a", "b"), JSON_STRINGS)


class TestAnnotationTypes:
    @pytest.mark.parametrize("make_bad, field", [
        (_flag("semantic_frame", "false"), "'semantic_frame'"),
        (_flag("semantic_frame", 0), "'semantic_frame'"),
        (_flag("content_verifiability", None), "'content_verifiability'"),
        (_with(factuality=True), "factuality"),
        (_with(factuality="0.5"), "factuality"),
        (_with(factuality=None), "factuality"),
    ], ids=["flag-string", "flag-int", "flag-null", "factuality-bool",
            "factuality-string", "factuality-null"])
    def test_wrong_json_type_is_parse_error(self, tmp_path, make_bad, field):
        path = _bad_file(tmp_path, "annotations", make_bad)
        with pytest.raises(ParseError, match=field) as excinfo:
            load_annotations(path)
        assert excinfo.value.line == 3

    def test_integer_factuality_loads_as_float(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({**GOOD["annotations"]("a"), "factuality": 1}) + "\n",
                        encoding="utf-8")
        (annotation,) = load_annotations(path)
        assert annotation.factuality == 1.0 and type(annotation.factuality) is float

    def test_no_flags_implies_factual_stays_aggregated(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rows = [{**GOOD["annotations"](i), "factuality": 0.5} for i in ("s2", "s1")]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(IntegrityError) as excinfo:
            load_annotations(path)
        assert str(excinfo.value) == ("2 annotations violate no-flags-implies-factual: "
                                      "['s1', 's2']")


class TestScoreValueType:
    @pytest.mark.parametrize("value", ["0.5", "nan", [0.5], {"v": 0.5}])
    def test_non_number_value_is_parse_error(self, tmp_path, value):
        path = _bad_file(tmp_path, "scores", _with(value=value))
        with pytest.raises(ParseError, match="'value'") as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 3

    def test_integer_value_loads_as_float(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({**GOOD["scores"]("a"), "value": 1}) + "\n",
                        encoding="utf-8")
        assert load_scores(path, "c").values("dae") == {"a": 1.0}


# An evaluation report CSV's first two lines, and a good pair row for id "b".
REPORT_HEAD = b"record,pair_id,metric,value,n,headline,note\nmeta,,corpus_name,,,,toy\n"
REPORT_ROW = b'pair,"b",rouge2,0.5,,,'


@pytest.mark.parametrize("loader", [*sorted(GOOD), "report"])
class TestUndecodableInput:
    """A byte that is not UTF-8 is a `ParseError` naming its line, as any bad record."""

    @staticmethod
    def _file(tmp_path, loader, bad_line: bytes) -> Path:
        if loader == "report":
            path = tmp_path / "report.csv"
            path.write_bytes(REPORT_HEAD + bad_line + b"\n")
            return path
        path = tmp_path / f"{loader}.jsonl"
        path.write_bytes(json.dumps(GOOD[loader]("a")).encode() + b"\n\n" + bad_line + b"\n")
        return path

    def test_library_error_names_path_and_line(self, tmp_path, loader):
        path = self._file(tmp_path, loader, b"\xff")
        with pytest.raises(ParseError, match="not valid UTF-8: byte 0xff") as excinfo:
            LOADERS[loader](path)
        assert (excinfo.value.path, excinfo.value.line) == (str(path), 3)

    def test_bad_byte_inside_a_string_is_caught(self, tmp_path, loader):
        good = REPORT_ROW if loader == "report" else json.dumps(GOOD[loader]("b")).encode()
        path = self._file(tmp_path, loader, good.replace(b'"b"', b'"b\xc3"'))
        with pytest.raises(ParseError, match="byte 0xc3") as excinfo:
            LOADERS[loader](path)
        assert excinfo.value.line == 3

    def test_cli_exits_two_naming_path_and_line(self, tmp_path, capsys, loader):
        path = self._file(tmp_path, loader, b"\xff")
        assert main(_cli_argv(loader, path, tmp_path)) == 2
        assert f"data error: {path}:3: not valid UTF-8" in capsys.readouterr().err


class TestIntegerBeyondFloatRange:
    @pytest.mark.parametrize("loader, field", [("scores", "value"),
                                               ("annotations", "factuality")])
    def test_is_parse_error_naming_the_line(self, tmp_path, capsys, loader, field):
        path = _bad_file(tmp_path, loader, _with(**{field: 10 ** 400}))
        with pytest.raises(ParseError, match="too large") as excinfo:
            LOADERS[loader](path)
        assert excinfo.value.line == 3
        assert main(_cli_argv(loader, path, tmp_path)) == 2
        assert f"data error: {path}:3: " in capsys.readouterr().err


class TestReadJsonl:
    def test_streams_objects_in_order_skipping_blank_lines(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n\n  \n {"n": 2} \n{"n": 3}', encoding="utf-8")
        seen = []
        read_jsonl(path, seen.append)
        assert seen == [{"n": 1}, {"n": 2}, {"n": 3}]

    def test_crlf_and_lone_cr_end_lines_as_in_text_mode(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes('{"n": 1}\r\n\r\n{"s": "é"}\r{"n": 3}\r\n{bad\r\n'.encode())
        seen = []
        with pytest.raises(ParseError) as excinfo:
            read_jsonl(path, seen.append)
        assert seen == [{"n": 1}, {"s": "é"}, {"n": 3}]
        assert excinfo.value.line == 5

    @pytest.mark.parametrize("text, line", [
        ('\xa0{"n": 1} \n\x1c{"n": 2}\n', 1),
        ('{"n": 0}\n\u2028{"n": 1}\n', 2),
        ('{"n": 0}\n{"n": 1}\x1c\n', 2),
        ('{"n": 0}\n\u3000{"n": 1}\t\n', 2),
    ], ids=["nbsp-and-separator", "line-separator", "trailing-separator", "ideographic-space"])
    def test_only_json_whitespace_may_pad_a_line(self, tmp_path, text, line):
        """`json.loads` rejects a line padded with other Unicode whitespace, and
        so does the reader, though `str.strip()` would take it off."""
        path = tmp_path / "r.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="invalid JSON") as excinfo:
            read_jsonl(path, lambda record: None)
        assert excinfo.value.line == line

    @pytest.mark.parametrize("error", [DomainError, IntegrityError])
    def test_domain_and_integrity_errors_keep_their_class(self, tmp_path, error):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n{"n": 2}\n', encoding="utf-8")

        def consume(record):
            if record["n"] == 2:
                raise error("boom")

        with pytest.raises(error) as excinfo:
            read_jsonl(path, consume)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == f"{path}:2: boom"

    def test_other_errors_propagate_unchanged(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"n": 1}\n', encoding="utf-8")

        def consume(record):
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="^boom$"):
            read_jsonl(path, consume)


class TestReadCsv:
    def test_passes_each_row_after_the_header_in_order(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes('a,b\r\n1,"x\ny"\n"é",\n'.encode())
        rows = []
        read_csv(path, ("a", "b"), rows.append)
        assert rows == [["1", "x\ny"], ["é", ""]]

    @pytest.mark.parametrize("text, line, message", [
        ("a,b\n1,2\n1,2,3\n", 3, "expected 2 fields, got 3"),
        ("a,b\n1,2\n\n", 3, "expected 2 fields, got 0"),
        ('a,b\n"1\n2",3\n4\n', 4, "expected 2 fields, got 1"),
    ], ids=["long-row", "blank-line", "after-a-two-line-row"])
    def test_a_row_of_another_width_names_its_line(self, tmp_path, text, line, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_csv(path, ("a", "b"), lambda row: None)
        assert str(excinfo.value) == f"{path}:{line}: {message}"

    def test_a_field_over_the_csv_size_limit_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "report.csv"
        path.write_text(f"{REPORT_HEADER}\n{_report_row('a')}\nfailure,b,rouge2,,,,"
                        f"{'x' * (2 ** 17 + 1)}\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            EvalReport.from_csv(path)
        assert str(excinfo.value) == f"{path}:3: field larger than field limit (131072)"
        assert main(_cli_argv("report", path, tmp_path)) == 2
        assert f"data error: {path}:3: field larger" in capsys.readouterr().err

    def test_the_header_must_match_exactly(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,B\n1,2\n", encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            read_csv(path, ("a", "b"), lambda row: None)
        assert str(excinfo.value) == f"{path}: the header is not a,b"

    @pytest.mark.parametrize("error", [DomainError, IntegrityError, ValueError])
    def test_consume_errors_are_located_as_in_read_jsonl(self, tmp_path, error):
        """A `DomainError` or `IntegrityError` keeps its class, a `ValueError`
        is a `ParseError`; each names the row's line."""
        path = tmp_path / "t.csv"
        path.write_text("a\n1\n2\n", encoding="utf-8")

        def consume(row):
            if row == ["2"]:
                raise error("boom")

        reported = ParseError if error is ValueError else error
        with pytest.raises(reported) as excinfo:
            read_csv(path, ("a",), consume)
        assert type(excinfo.value) is reported and str(excinfo.value) == f"{path}:3: boom"


def test_write_csv_is_utf8_with_lf_line_ends(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [["x,y", "é"], ["line\nbreak", ""]])
    assert path.read_bytes() == 'a,b\n"x,y",é\n"line\nbreak",\n'.encode("utf-8")


class TestWriters:
    def test_write_csv_writes_each_number_one_way(self, tmp_path):
        """A float as `repr(float(x))`, numpy's float64 too; an int as
        `str(n)`; None as an empty cell."""
        row = [0.1, np.float64(1e-05), -0.0, 1e16, 5, None, "x,y"]
        written, expected = tmp_path / "written.csv", tmp_path / "expected.csv"
        write_csv(written, list("abcdefg"), [row])
        write_csv(expected, list("abcdefg"), [[repr(float(row[0])), repr(float(row[1])),
                                              repr(float(row[2])), repr(float(row[3])),
                                              str(row[4]), "", row[6]]])
        assert written.read_bytes() == expected.read_bytes()
        assert written.read_bytes() == b'a,b,c,d,e,f,g\n0.1,1e-05,-0.0,1e+16,5,,"x,y"\n'

    def test_write_csv_ignores_numpy_print_options(self, tmp_path):
        """Under numpy's 1.13 print options, `str` of a float64 keeps 12 digits."""
        path = tmp_path / "t.csv"
        with np.printoptions(legacy="1.13"):
            write_csv(path, ["x"], [[np.float64(0.1) + np.float64(0.2)]])
        assert path.read_bytes() == b"x\n0.30000000000000004\n"

    @staticmethod
    def _old_loop(path: Path, records, mode: str) -> None:
        """How `save_corpus` and `write_scores` each wrote their lines."""
        encode = json.JSONEncoder(ensure_ascii=False).encode
        with path.open(mode, encoding="utf-8", newline="\n") as handle:
            for record in records:
                handle.write(encode(record) + "\n")

    @pytest.mark.parametrize("append", [False, True], ids=["write", "append"])
    def test_write_jsonl_writes_what_the_old_loops_wrote(self, tmp_path, append):
        corpus = Corpus(name="c", pairs=(
            Pair(id="pé-1 ✓", document="a\u2028b", summary="s\r\n", split="test"),
            Pair(id="p2", document="d", summary="s", split="train", meta={"k": [1, None]})))
        cells = [FactualityScore("pé-1 ✓", "greedy", "mock", "v1", 0.1, True),
                 ScoreFailure("p2\u2028", "dae", "mock", "v1", "NoArcsError: é")]
        rows = [{"pair_id": "pé-1 ✓", "scorer": "greedy", "backend_name": "mock",
                 "backend_version": "v1", "value": 0.1, "truncated": True},
                {"pair_id": "p2\u2028", "scorer": "dae", "backend_name": "mock",
                 "backend_version": "v1", "value": None, "truncated": False,
                 "error": "NoArcsError: é"}]
        records = [{"id": p.id, "document": p.document, "summary": p.summary,
                    "split": p.split, "meta": dict(p.meta)} for p in corpus]
        old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
        for path in (old, new):
            path.write_bytes(b'{"first": "line"}\n')
        self._old_loop(old, rows + records, "a" if append else "w")
        write_jsonl(new, rows, append)
        write_jsonl(new, records, append=True)
        assert new.read_bytes() == old.read_bytes()
        assert "\u2028".encode() in new.read_bytes()
        for path in (old, new):
            path.write_bytes(b'{"first": "line"}\n')
        self._old_loop(old, rows, "a" if append else "w")
        write_scores(cells, new, append)
        assert new.read_bytes() == old.read_bytes()
        self._old_loop(old, records, "w")
        save_corpus(corpus, new)
        assert new.read_bytes() == old.read_bytes()


def _format_sites() -> dict[str, set[str]]:
    """Modules of src/factfilter that name each file-format API, import
    `csv`, or call `repr(float(...))`."""
    sites: dict[str, set[str]] = {api: set() for api in
                                  ("writer", "DictWriter", "JSONDecoder", "raw_decode",
                                   "JSONEncoder", "encode_json", "import csv",
                                   "repr(float(...))")}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("csv", "json"):
                sites.setdefault(f"from {node.module} import", set()).add(path.stem)
            if isinstance(node, ast.Import) and "csv" in (alias.name for alias in node.names):
                sites["import csv"].add(path.stem)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "repr" and node.args
                    and isinstance(node.args[0], ast.Call)
                    and isinstance(node.args[0].func, ast.Name)
                    and node.args[0].func.id == "float"):
                sites["repr(float(...))"].add(path.stem)
            name = node.attr if isinstance(node, ast.Attribute) \
                else node.id if isinstance(node, ast.Name) else None
            if name in sites:
                sites[name].add(path.stem)
    return sites


def test_only_records_knows_a_file_format():
    """`records` alone reads and writes CSV, decodes and encodes JSONL, and
    formats a number cell; `remote` has its own encoder for the wire."""
    assert _format_sites() == {"writer": {"records"}, "DictWriter": set(),
                               "JSONDecoder": {"records"}, "raw_decode": {"records"},
                               "JSONEncoder": {"records", "remote"},
                               "encode_json": {"records"}, "import csv": {"records"},
                               "repr(float(...))": {"records"}}
