from __future__ import annotations

from collections import Counter
import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from factfilter import (
    SCORERS,
    evaluate_outputs,
    Corpus,
    MockBackend,
    ScoreTable,
    load_scores,
    score_corpus,
    write_scores,
)
import reference
from factfilter.backend import TokenEmbeddings
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.errors import (
    ConfigurationError,
    DomainError,
    EmptySummaryError,
    IntegrityError,
    NoArcsError,
    ParseError,
)
from factfilter import chunkmath, scorers
from factfilter.scorers import (
    FactualityScore,
    ScoreFailure,
    score_corpus_to_file,
)
from faults import FaultBackend

from conftest import make_corpus, make_pair, score_one


class TestScoreTable:
    def _score(self, pair_id="p", scorer="greedy", backend_name="mock",
               backend_version="1", value=0.5) -> FactualityScore:
        return FactualityScore(pair_id=pair_id, scorer=scorer, backend_name=backend_name,
                               backend_version=backend_version, value=value, truncated=False)

    def test_rejects_mixed_backends_in_column(self):
        table = ScoreTable("c")
        table.add(self._score(pair_id="a"))
        with pytest.raises(IntegrityError):
            table.add(self._score(pair_id="b", backend_version="2"))

    def test_rejects_duplicate_cell(self):
        table = ScoreTable("c")
        table.add(self._score())
        with pytest.raises(IntegrityError):
            table.add(self._score())

    def test_values_excludes_sentinels(self):
        table = ScoreTable("c")
        table.add(self._score(pair_id="a"))
        table.add(ScoreFailure(pair_id="b", scorer="greedy", backend_name="mock",
                               backend_version="1", reason="boom"))
        assert set(table.values("greedy")) == {"a"}
        assert table.failures("greedy") == {"b": "boom"}

    def test_value_range_validated(self):
        with pytest.raises(DomainError):
            self._score(scorer="dae", value=1.5)
        with pytest.raises(DomainError):
            self._score(scorer="condll", value=0.25)


class TestScoresFile:
    def test_lines_are_the_bytes_json_dumps_writes(self, tmp_path):
        rows = [{"pair_id": "pé-1 ✓", "scorer": "greedy", "backend_name": "mock",
                 "backend_version": "v1", "value": 0.1, "truncated": True},
                {"pair_id": "東京-2", "scorer": "dae", "backend_name": "mock",
                 "backend_version": "v\u2028", "value": None, "truncated": False,
                 "error": "NoArcsError: «no arcs» in \"ид\" ½"}]
        cells = [FactualityScore("pé-1 ✓", "greedy", "mock", "v1", 0.1, True),
                 ScoreFailure("東京-2", "dae", "mock", "v\u2028", rows[1]["error"])]
        write_scores(cells, tmp_path / "s.jsonl")
        assert (tmp_path / "s.jsonl").read_bytes() == "".join(
            json.dumps(row, ensure_ascii=False) + "\n" for row in rows).encode()

    def test_round_trip(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
            make_pair("p2", "storm harbor", "storm"),
        )
        cells = score_corpus(corpus, ["greedy", "dae"], mock_backend)
        path = tmp_path / "scores.jsonl"
        write_scores(cells, path)
        table = load_scores(path, "c")
        assert set(table.scorers) == {"greedy", "dae"}
        assert table.values("greedy")["p1"] == 1.0
        assert "p2" in table.failures("dae")

    def test_resume_skips_done_cells(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
            make_pair("p2", "storm harbor town", "storm harbor"),
        )
        path = tmp_path / "scores.jsonl"
        added_first = score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        assert added_first == 2
        before = path.read_bytes()
        added_again = score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        assert added_again == 0
        assert path.read_bytes() == before
        added_new_scorer = score_corpus_to_file(corpus, ["greedy", "condll"],
                                                mock_backend, path)
        assert added_new_scorer == 2
        table = load_scores(path, "c")
        assert set(table.scorers) == {"greedy", "condll"}

    def test_resume_with_different_backend_rejected(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
        )
        path = tmp_path / "scores.jsonl"
        score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        bigger = make_corpus("c", corpus.pairs[0],
                             make_pair("p2", "storm harbor", "storm harbor"))

        class OtherVersion(MockBackend):
            @property
            def descriptor(self):
                from dataclasses import replace
                return replace(super().descriptor, version="2")

        before = path.read_bytes()
        with pytest.raises(IntegrityError):
            score_corpus_to_file(bigger, ["greedy"], OtherVersion(), path)
        assert path.read_bytes() == before

    def test_a_column_of_another_backend_is_refused_before_any_scoring(self, tmp_path):
        corpus = make_corpus("c", make_pair("p1", "alpha beta gamma", "alpha beta"),
                             make_pair("p2", "storm harbor town", "storm harbor"))
        path = tmp_path / "scores.jsonl"
        score_corpus_to_file(corpus, ["greedy", "dae"], MockBackend(), path)
        path.write_text("".join(line for line in path.read_text().splitlines(keepends=True)
                                if json.loads(line)["scorer"] == "greedy"
                                or json.loads(line)["pair_id"] == "p1"))
        before = path.read_bytes()
        other = FaultBackend()
        other._descriptor = dataclasses.replace(other.descriptor, version="2")
        # The complete greedy column takes no new cell, so its provenance is no obstacle.
        assert score_corpus_to_file(corpus, ["greedy"], other, path) == 0
        with pytest.raises(IntegrityError, match="column 'dae' mixes backends mock:1 and mock:2"):
            score_corpus_to_file(corpus, ["greedy", "dae"], other, path)
        assert other.requests == []
        assert path.read_bytes() == before


def reference_cell_from_row(row):
    """The per-row cell builder as it was before the positional rewrite."""
    common = dict(
        pair_id=row["pair_id"],
        scorer=row["scorer"],
        backend_name=row["backend_name"],
        backend_version=row["backend_version"],
    )
    if row.get("value") is None:
        return ScoreFailure(reason=str(row.get("error", "unknown failure")), **common)
    return FactualityScore(value=float(row["value"]),
                           truncated=bool(row.get("truncated", False)), **common)


def reference_load_scores(path, corpus_name):
    """The json.loads-per-line loader as it was before the raw_decode rewrite."""
    table = ScoreTable(corpus_name)
    p = Path(path)
    with p.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                cell = reference_cell_from_row(row)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad score row: {exc}", path=str(p), line=lineno) from exc
            table.add(cell)
    return table


def _table_cells(table):
    """Each column in load order, with exact value bits, and its provenance."""
    return [(scorer,
             [(pair_id, type(v), v.hex() if isinstance(v, float) else v)
              for pair_id, v in table.column(scorer).items()],
             table.backend_descriptors()[scorer])
            for scorer in table.scorers]


def _cells_as_columns(cells):
    """What `_table_cells` gives for a table holding `cells`, added in order."""
    columns = {}
    for c in cells:
        entries, _ = columns.setdefault(
            c.scorer, ([], {"name": c.backend_name, "version": c.backend_version}))
        if isinstance(c, FactualityScore):
            entries.append((c.pair_id, float, c.value.hex()))
        else:
            entries.append((c.pair_id, str, c.reason))
    return [(scorer, *column) for scorer, column in columns.items()]


def _generated_cells(seed: int, n_pairs: int):
    rng = random.Random(seed)
    ranges = {"greedy": (-1.0, 1.0), "condll": (-30.0, 0.0), "dae": (0.0, 1.0)}
    edges = {"greedy": [-1.0, 1.0, 0.0, -0.0, 5e-324], "condll": [0.0, -0.0, -1e300],
             "dae": [0.0, 1.0, 1e-310]}
    cells = []
    for scorer, (low, high) in ranges.items():
        for i in range(n_pairs):
            pair_id = f"p{i:04d}-\u00e9\u4e2d" if i % 7 == 0 else f"p{i:04d}"
            if rng.random() < 0.1:
                reason = rng.choice(['NoArcsError: summary yields "no" arcs',
                                     "DomainError: r\u00e9sum\u00e9 \\ tab\t"])
                cells.append(ScoreFailure(pair_id, scorer, "mock", "1", reason))
                continue
            value = edges[scorer][i] if i < len(edges[scorer]) else rng.uniform(low, high)
            cells.append(FactualityScore(pair_id, scorer, "mock", "1", value,
                                         rng.random() < 0.2))
    return cells


class TestLoaderMatchesReference:
    def test_rows_the_writer_never_writes_take_the_schema_defaults(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        # Padding, blank lines, a missing 'truncated' or 'error', an integer
        # value and a field the schema does not name.
        head = '"pair_id": "x1", "backend_name": "mock", "backend_version": "1"'
        path.write_text(f'\n   \n {{{head}, "scorer": "greedy", "value": 1}} \t\n'
                        f'{{{head}, "scorer": "dae", "value": null}}\n'
                        f'{{{head}, "scorer": "condll", "value": -2.5e-3, "truncated": true, '
                        '"extra": [1, {"k": null}]}', encoding="utf-8")
        assert _table_cells(load_scores(path, "c")) == [
            (scorer, [("x1", type(v), v.hex() if isinstance(v, float) else v)],
             {"name": "mock", "version": "1"})
            for scorer, v in (("greedy", 1.0), ("dae", "unknown failure"), ("condll", -2.5e-3))]

    def _assert_same(self, path):
        assert _table_cells(load_scores(path, "c")) == _table_cells(
            reference_load_scores(path, "c"))

    def test_toy_scores_file(self, tmp_path):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        path = tmp_path / "toy_scores.jsonl"
        # A 40-token limit truncates the longer toy documents.
        cells = score_corpus(corpus, ["greedy", "condll", "dae"], MockBackend(max_tokens=40))
        assert any(isinstance(c, FactualityScore) and c.truncated for c in cells)
        write_scores(cells, path)
        table = load_scores(path, "toy")
        assert sum(len(table.column(s)) for s in table.scorers) == 3 * len(corpus)
        self._assert_same(path)

    def test_generated_file_with_sentinels_and_truncation(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=5, n_pairs=400), path)
        # Rows write_scores never produces but the schema allows: padding,
        # blank lines, a missing 'truncated' or 'error', an integer value.
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n   \n")
            handle.write(' {"pair_id": "x1", "scorer": "greedy", "backend_name": "mock", '
                         '"backend_version": "1", "value": 1} \t\n')
            handle.write('{"pair_id": "x1", "scorer": "dae", "backend_name": "mock", '
                         '"backend_version": "1", "value": null}\n')
            handle.write('{"pair_id": "x1", "scorer": "condll", "backend_name": "mock", '
                         '"backend_version": "1", "value": -2.5e-3, "truncated": true, '
                         '"extra": [1, {"k": null}]}')
        self._assert_same(path)

    def test_round_trip_equals_written_cells(self, tmp_path):
        cells = _generated_cells(seed=6, n_pairs=200)
        path = tmp_path / "scores.jsonl"
        write_scores(cells, path)
        assert _table_cells(load_scores(path, "c")) == _cells_as_columns(cells)

    def test_columns_hold_exact_floats_and_reasons_that_values_and_failures_split(
            self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=8, n_pairs=300), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({**_GOOD_ROW, "pair_id": "int", "value": 1}) + "\n")
        table = load_scores(path, "c")
        table.add(FactualityScore("x", "dae", "mock", "1", 0, False))
        for scorer in table.scorers:
            column = table.column(scorer)
            assert {type(v) for v in column.values()} == {float, str}
            values, failures = table.values(scorer), table.failures(scorer)
            assert values.keys().isdisjoint(failures)
            assert {**values, **failures} == column

    @pytest.mark.parametrize("second", ['{"a": 1}', "{}", "1", "null"])
    def test_two_json_values_on_one_line_rejected(self, tmp_path, second):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=7, n_pairs=2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = f"{lines[1]} {second}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="Extra data") as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith(f"{path}:2: ")
        with pytest.raises(ParseError, match="Extra data"):
            reference_load_scores(path, "c")


_GOOD_ROW = {"pair_id": "a", "scorer": "greedy", "backend_name": "mock",
             "backend_version": "1", "value": 0.5, "truncated": False}


def _write_rows(path, *rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestScoreRowErrors:
    @pytest.mark.parametrize("bad_row, error, message", [
        (_GOOD_ROW, IntegrityError, "duplicate score for pair 'a'"),
        ({**_GOOD_ROW, "pair_id": "b", "backend_version": "2"}, IntegrityError,
         "mixes backends mock:1 and mock:2"),
        ({**_GOOD_ROW, "pair_id": "b", "scorer": "dae", "value": 1.5}, DomainError,
         "outside the valid range"),
        ({**_GOOD_ROW, "pair_id": "b", "value": float("nan")}, DomainError, "not finite"),
        ({**_GOOD_ROW, "pair_id": "b", "value": float("inf")}, DomainError, "not finite"),
        ({**_GOOD_ROW, "pair_id": 7}, ParseError, "'pair_id' must be a string, got 7"),
        ({**_GOOD_ROW, "pair_id": "b", "value": None, "error": 3}, ParseError,
         "'error' must be a string, got 3"),
    ], ids=["duplicate", "mixed-provenance", "out-of-range", "nan", "infinite",
            "integer-pair-id", "integer-error"])
    def test_error_names_its_line(self, tmp_path, bad_row, error, message):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, _GOOD_ROW, {**_GOOD_ROW, "pair_id": "c"}, bad_row)
        with pytest.raises(error, match=message) as excinfo:
            load_scores(path, "c")
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("field, value", [
        ("truncated", "false"), ("truncated", "true"), ("truncated", 0),
        ("truncated", 1), ("truncated", None), ("value", True), ("value", False),
        ("pair_id", 7), ("scorer", None), ("backend_name", 1), ("backend_version", 1.0),
        ("error", 3), ("error", None),
    ])
    def test_wrongly_typed_field_is_parse_error(self, tmp_path, field, value):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, {**_GOOD_ROW, "pair_id": "c"}, {**_GOOD_ROW, field: value})
        with pytest.raises(ParseError, match=repr(field)) as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 2

    def test_wrongly_typed_truncated_on_sentinel_is_parse_error(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, {**_GOOD_ROW, "value": None, "truncated": "false", "error": "x"})
        with pytest.raises(ParseError, match="'truncated'") as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 1


ALL_SCORERS = ["greedy", "condll", "dae"]


class TestChunkedOutcomes:
    """Chunked scoring asks the backend for what it must and no more (the
    outcomes themselves are `test_oracle.py`'s)."""

    def test_two_tokenize_calls_per_pair_that_needs_a_cell(self):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        done = {pair.id for pair in corpus.pairs[:10]}
        for skip, needing in ((None, len(corpus)),
                              (lambda pid, scorer: scorer == "greedy" or pid in done,
                               len(corpus) - len(done))):
            backend = FaultBackend()
            score_corpus(corpus, ALL_SCORERS, backend, skip=skip)
            assert sum(call[0] == "tokenize" for call in backend.calls) == 2 * needing


class TestScoreCorpus:
    def _corpus(self) -> Corpus:
        return make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma delta", "alpha beta"),
            make_pair("p2", "storm hit the harbor", "storm comet"),
            make_pair("p3", "one two three four", "two three four"),
        )

    def test_shape(self, mock_backend):
        cells = score_corpus(self._corpus(), ["greedy", "condll", "dae"], mock_backend)
        assert len(cells) == 9

    def test_single_token_summary_gets_sentinel_for_dae_only(self, mock_backend):
        corpus = make_corpus("c", make_pair("p1", "the mayor opened the bridge", "mayor"))
        cells = score_corpus(corpus, ["greedy", "condll", "dae"], mock_backend)
        by_scorer = {c.scorer: c for c in cells}
        assert isinstance(by_scorer["greedy"], FactualityScore)
        assert isinstance(by_scorer["condll"], FactualityScore)
        assert isinstance(by_scorer["dae"], ScoreFailure)
        assert "NoArcsError" in by_scorer["dae"].reason

    def test_out_of_range_value_becomes_sentinel(self, mock_backend, monkeypatch):
        monkeypatch.setitem(SCORERS, "dae", lambda pairs, backend: [1.5] * len(pairs))
        (cell,) = score_corpus(self._corpus().subset(["p1"]), ["dae"], mock_backend)
        assert isinstance(cell, ScoreFailure)
        assert cell.reason == "DomainError: score 1.5 outside the valid range for scorer 'dae'"

    def test_unknown_scorer_rejected_before_scoring(self, mock_backend):
        with pytest.raises(ConfigurationError):
            score_corpus(self._corpus(), ["greedy", "nope"], mock_backend)

    def test_repeated_scorer_rejected_before_scoring(self):
        backend = FaultBackend()
        with pytest.raises(ConfigurationError, match="scorers repeat"):
            score_corpus(self._corpus(), ["greedy", "dae", "greedy"], backend)
        assert backend.requests == []

    def test_empty_corpus_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            score_corpus(Corpus(name="c", pairs=()), ["greedy"], mock_backend)


class TestGreedyPrecision:
    def test_copied_summary_scores_exactly_one(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge on friday", "mayor opened the bridge")
        assert score_one("greedy", pair.document, pair.summary, mock_backend).value == 1.0

    def test_mixed_case_matches_oracle(self, mock_backend):
        pair = make_pair("p", "alpha beta gamma", "alpha beta zzzz")
        value = score_one("greedy", pair.document, pair.summary, mock_backend).value
        assert value < 1.0
        expected = reference.greedy(pair.document, pair.summary, mock_backend)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_document_order_irrelevant(self, mock_backend):
        a = make_pair("p", "alpha beta gamma delta", "beta zzzz")
        b = make_pair("p", "delta gamma beta alpha", "beta zzzz")
        assert score_one("greedy", a.document, a.summary, mock_backend).value == \
            score_one("greedy", b.document, b.summary, mock_backend).value

    def test_superset_document_never_decreases(self, mock_backend):
        small = make_pair("p", "alpha beta", "alpha zzzz qqqq")
        large = make_pair("p", "alpha beta extra words here", "alpha zzzz qqqq")
        assert score_one("greedy", large.document, large.summary, mock_backend).value >= \
            score_one("greedy", small.document, small.summary, mock_backend).value

    def test_document_truncation_sets_flag(self):
        backend = MockBackend(max_tokens=3)
        pair = make_pair("p", "alpha beta gamma delta epsilon", "alpha beta")
        cell = score_one("greedy", pair.document, pair.summary, backend)
        assert cell.truncated
        assert cell.value == 1.0  # kept prefix still contains the summary tokens


class TableMock(MockBackend):
    """Embeds token `t<i>` as row i of `table`, at the table's width."""

    def __init__(self, table: np.ndarray):
        super().__init__()
        self._table = table

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        tokens = tuple(text.split())
        return TokenEmbeddings(tokens=tokens, vectors=self._table[[int(t[1:]) for t in tokens]])


class ScaledMock(TableMock):
    """Table rows scaled off the unit sphere by their position in the text, so
    normalising the rows does real work and a repeated token's rows become
    near-copies of each other."""

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        emb = super().embed_tokens(text)
        scales = 0.3 + 0.7 * np.arange(1, len(emb.tokens) + 1)[:, None] / 3.0
        return TokenEmbeddings(tokens=emb.tokens, vectors=emb.vectors * scales)


class SplitWidthMock(MockBackend):
    """Embeds texts of up to two tokens 8-wide and longer texts 16-wide."""

    def __init__(self):
        super().__init__(dim=16)
        self._narrow = MockBackend(dim=8)

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        if len(text.split()) <= 2:
            return self._narrow.embed_tokens(text)
        return super().embed_tokens(text)


def _tokens(indices) -> str:
    return " ".join(f"t{i}" for i in indices)


def _unit(vectors: np.ndarray) -> np.ndarray:
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _gram_argmax_loses(doc: np.ndarray, summary_row: np.ndarray) -> bool:
    """Whether the Gram form's best document row is not the difference form's."""
    doc, row = _unit(doc), _unit(summary_row[None])
    similarity = 1.0 - np.sum((doc - row) ** 2, axis=1) / 2.0
    return similarity[np.argmax(row @ doc.T)] < similarity.max()


class TestGreedyScreen:
    """The Gram screen keeps every column the difference form could pick, so
    the score is the per-row reference's bit for bit."""

    def _assert_reference(self, backend, document, summary):
        cell = score_one("greedy", document, summary, backend)
        assert not cell.truncated
        assert cell.value == reference.greedy(document, summary, backend)
        return cell.value

    def test_scaled_rows_in_a_short_pair(self):
        rng = np.random.default_rng(8)
        backend = ScaledMock(rng.standard_normal((40, 16)))
        document, summary = _tokens(rng.integers(0, 30, 60)), _tokens(rng.integers(20, 40, 12))
        self._assert_reference(backend, document, summary)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_document_tokens_tie_exactly(self, seed):
        rng = np.random.default_rng(seed)
        document = " ".join(f"w{i}" for i in rng.integers(0, 12, 512))
        summary = " ".join(f"w{i}" for i in rng.integers(0, 24, 40))
        self._assert_reference(MockBackend(), document, summary)

    def test_scaled_rows_at_dim_768(self):
        rng = np.random.default_rng(7)
        table = rng.standard_normal((300, 768))
        table[200:] = table[:100]  # duplicate table rows, apart from scale
        backend = ScaledMock(table)
        document = _tokens(rng.integers(0, 250, 512))
        summary = _tokens(np.concatenate([rng.integers(0, 250, 30), rng.integers(250, 300, 10)]))
        self._assert_reference(backend, document, summary)

    @pytest.mark.parametrize("backend", [
        MockBackend(), TableMock(np.random.default_rng(3).standard_normal((600, 768)))],
        ids=["mock", "dim768"])
    def test_copied_summary_scores_exactly_one(self, backend):
        document = _tokens(np.random.default_rng(4).permutation(600)[:512])
        summary = " ".join(document.split()[100:140])
        assert self._assert_reference(backend, document, summary) == 1.0

    @pytest.mark.parametrize("dim", [16, 768])
    def test_searched_near_ties_where_the_gram_argmax_loses(self, dim):
        # Eight document rows, each a near-copy of one row at 1e-15 relative
        # noise, and one unrelated summary row: the two forms' roundings
        # then often disagree on which document row is best.
        rng = np.random.default_rng(dim)
        cases = []
        for _ in range(200):
            doc = rng.standard_normal(dim) + 1e-15 * rng.standard_normal((8, dim))
            summary_row = rng.standard_normal(dim)
            if _gram_argmax_loses(doc, summary_row):
                cases.append(np.vstack([doc, summary_row]))
        assert len(cases) >= 10
        backend = TableMock(np.vstack(cases))
        pairs = [make_pair(f"p{k}", _tokens(range(9 * k, 9 * k + 8)), f"t{9 * k + 8}")
                 for k in range(len(cases))]
        cells = score_corpus(make_corpus("c", *pairs), ["greedy"], backend)
        for pair, cell in zip(pairs, cells):
            assert cell.value == reference.greedy(pair.document, pair.summary, backend)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_norm_turns_the_screen_off(self):
        # t0's norm overflows, so `_unit_rows` makes it a zero row: its Gram
        # entry is 0.0 but its difference form 0.5, above t1's 0.28.
        table = np.zeros((3, 16))
        table[0] = 1e200
        table[1, :2] = (0.28, 0.96)
        table[2, 0] = 1.0
        assert self._assert_reference(TableMock(table), "t0 t1", "t2") == 0.5

    def test_width_mismatch_becomes_sentinel(self):
        corpus = make_corpus("c", make_pair("p1", "alpha beta gamma delta", "alpha beta"))
        (cell,) = score_corpus(corpus, ["greedy"], SplitWidthMock())
        assert isinstance(cell, ScoreFailure)
        assert cell.reason.startswith("BackendError:")
        assert "16-wide" in cell.reason and "8-wide" in cell.reason

    def test_all_ties_stay_within_the_gather_budget(self):
        backend = TableMock(np.ones((1, 768)))
        text = " ".join(["t0"] * 512)
        tracemalloc.start()
        try:
            cell = score_one("greedy", text, text, backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cell.value == 1.0
        # 512 x 512 candidates gathered at once would need 1.6 GB.
        assert peak < 32 * 2 ** 20
        # So does a chunk of such pairs, one group of whose embeddings it holds at once.
        corpus = make_corpus("c", *(make_pair(f"p{k}", text, " ".join(["t0"] * n))
                                    for k, n in enumerate([512, 3, 511])))
        tracemalloc.start()
        try:
            with mock.patch.object(scorers, "_CHUNK_CHARS", 10 ** 9):
                cells = score_corpus(corpus, ["greedy"], backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [cell.value for cell in cells] == [1.0] * len(corpus)
        assert peak < 32 * 2 ** 20

    def test_embeddings_held_at_once_are_bounded_by_token_rows_not_the_chunk(self):
        dim, doc_rows, summary_rows = 768, 512, 8
        rng = np.random.default_rng(27)
        table = rng.standard_normal((2048, dim))
        backend = TableMock(table / np.linalg.norm(table, axis=1)[:, None])

        def tokens(k, n, step):
            return " ".join(f"t{(37 * k + step * j) % len(table)}" for j in range(n))

        # One group's embeddings and one more pair's (the group's arithmetic
        # copies a pair's rows), whatever the chunk holds.
        bound = (scorers._EMBED_ROWS + 2 * (doc_rows + summary_rows)) * dim * 8
        peaks = []
        for n in (12, 40):
            corpus = make_corpus("c", *(make_pair(f"p{k}", tokens(k, doc_rows, 1),
                                                  tokens(k, summary_rows, 3)) for k in range(n)))
            tracemalloc.start()
            try:
                with mock.patch.object(scorers, "_CHUNK_CHARS", 10 ** 9):
                    cells = score_corpus(corpus, ["greedy"], backend)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(isinstance(cell, FactualityScore) for cell in cells)
            assert peaks[-1] < bound, n
        assert peaks[1] <= 1.1 * peaks[0]


class RequestLog(FaultBackend):
    """A `FaultBackend` that also records the texts of each `embed_tokens` request."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.embed_requests: list[list[str]] = []

    def map(self, op, calls):
        calls = list(calls)
        if op == "embed_tokens":
            self.embed_requests.append([text for text, in calls])
        return super().map(op, calls)


class TestGreedyGroups:
    """Greedy embeds a chunk in consecutive groups of at most `_EMBED_ROWS`
    token rows (clipped document tokens plus summary tokens), or one pair."""

    @pytest.mark.parametrize("embed_rows", [1, 12, 30, 10 ** 9])
    def test_embed_requests_follow_the_row_groups(self, embed_rows):
        limit, rng = 6, random.Random(27)
        texts = [(" ".join([f"d{k}", *["alpha"] * rng.randint(0, 9)]),
                  " ".join([f"s{k}", *["beta"] * rng.randint(0, 5)])) for k in range(24)]
        texts[7] = ("d7 EMBFAIL alpha", "s7 beta")  # its summary is not asked for
        rows = [min(len(doc.split()), limit) + len(summary.split()) for doc, summary in texts]
        corpus = make_corpus("c", *(make_pair(f"p{k}", *pair) for k, pair in enumerate(texts)))
        backend, oracle = RequestLog(max_tokens=limit), FaultBackend(max_tokens=limit)
        with mock.patch.object(scorers, "_EMBED_ROWS", embed_rows), \
                mock.patch.object(scorers, "_CHUNK_CHARS", 10 ** 9):
            cells = score_corpus(corpus, ["greedy"], backend)
        assert reference.as_cells(cells) == reference.score_corpus(corpus, ["greedy"], oracle)
        assert Counter(backend.calls) == Counter(oracle.calls)
        # A group's document request, then the summaries of its live pairs.
        groups = [[int(text.split()[0][1:]) for text in request]
                  for request in backend.embed_requests[::2]]
        assert [k for group in groups for k in group] == list(range(len(texts)))
        assert backend.embed_requests[1::2] == [[texts[k][1] for k in group if k != 7]
                                                for group in groups]
        for group, after in zip(groups, [*groups[1:], None]):
            size = sum(rows[k] for k in group)
            assert size <= embed_rows or len(group) == 1
            # No group ends while the next pair would still fit.
            assert after is None or size + rows[after[0]] > embed_rows
        if embed_rows == 10 ** 9:
            assert len(groups) == 1


class TableFaultBackend(FaultBackend):
    """A `FaultBackend` that embeds a text of `t<i>` tokens as rows i of `table`."""

    def __init__(self, table: np.ndarray):
        super().__init__()
        self._table = table

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        tokens = tuple(text.split())
        if not all(token[0] == "t" and token[1:].isdigit() for token in tokens):
            return super().embed_tokens(text)
        self._record("embed_tokens", text)
        return TokenEmbeddings(tokens=tokens, vectors=self._table[[int(t[1:]) for t in tokens]])


def _composed_corpus() -> tuple[Corpus, np.ndarray]:
    """Pairs that put every edge of the chunk arithmetic in one chunk: near
    ties where the Gram argmax loses, over- and underflowing norms and
    all-negative cosines next to longer documents, summaries at numpy's
    pairwise-sum block edges (two pairs each, with documents of other
    lengths), and fault markers between them. The embedding table covers
    the `t<i>` tokens."""
    rng = np.random.default_rng(16)
    cases = []
    while len(cases) < 10:
        doc = rng.standard_normal(16) + 1e-15 * rng.standard_normal((8, 16))
        summary_row = rng.standard_normal(16)
        if _gram_argmax_loses(doc, summary_row):
            cases.append(np.vstack([doc, summary_row]))
    # An overflowing and an underflowing norm (delta = inf), and documents
    # that only point away from their summary: a padded column (Gram 0.0,
    # difference form 0.5) would beat each of their rows.
    edges = np.zeros((6, 16))
    edges[0], edges[1, :2], edges[2, 0] = 1e200, (0.28, 0.96), 1.0
    edges[3, 0], edges[4, :2], edges[5, :2] = -1.0, (-0.96, 0.28), (-0.96e-160, 0.28e-160)
    table = np.vstack([*cases, edges])
    texts = [(_tokens(range(9 * k, 9 * k + 8)), f"t{9 * k + 8}") for k in range(len(cases))]
    base = 9 * len(cases)
    texts += [(f"t{base} t{base + 1}", f"t{base + 2}"),
              (f"t{base + 3} t{base + 4}", f"t{base + 2}"),
              (f"t{base + 4} t{base + 5}", f"t{base + 2}")]
    words = [f"w{i}" for i in range(40)]
    markers = [("alpha beta gamma", "alpha NARROW"), ("alpha beta", "alpha LPFAIL"),
               ("alpha beta", "beta POSLP gamma"), ("SHORTENT alpha beta", "alpha beta"),
               ("NANENT alpha beta", "alpha beta gamma")]
    for k, length in enumerate([1, 7, 8, 9, 127, 128, 129, 300]):
        for doc_length in (3 + length % 50, min(600, 40 + 3 * length)):
            texts.append((" ".join(rng.choice(words, doc_length)),
                          " ".join(rng.choice(words, length))))
        texts.append(markers[k % len(markers)])
    pairs = [make_pair(f"p{k}", *pair, split="test") for k, pair in enumerate(texts)]
    return make_corpus("c", *pairs), table


def _bits(cells):
    return [(pair_id, scorer, value.hex() if isinstance(value, float) else value, truncated)
            for pair_id, scorer, value, truncated in cells]


class TestChunkComposition:
    """However pairs share a chunk or a greedy group, each cell is its one-pair
    outcome, bit for bit."""

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_score_and_evaluate_give_the_one_pair_outcomes_at_any_chunk_size(self):
        corpus, table = _composed_corpus()
        oracle = TableFaultBackend(table)
        expected = _bits(reference.score_corpus(corpus, ALL_SCORERS, oracle))
        generated = {pair.id: pair.summary for pair in corpus}
        expected_report = reference.evaluate(generated, corpus, ALL_SCORERS, oracle)
        reasons = {value.split(":")[0] for _, _, value, _ in expected if " " in value}
        assert reasons == {"BackendError", "DomainError", "NoArcsError"}
        blocks = []
        means = chunkmath.greedy_means

        def recorded(docs, sums):
            blocks.append([(len(summ), len(doc)) for doc, summ in zip(docs, sums)])
            return means(docs, sums)

        for bounds in itertools.product((1, scorers._CHUNK_CHARS, 10 ** 9),
                                        (1, scorers._EMBED_ROWS, 10 ** 9)):
            backend = TableFaultBackend(table)
            with mock.patch.object(scorers, "_CHUNK_CHARS", bounds[0]), \
                    mock.patch.object(scorers, "_EMBED_ROWS", bounds[1]), \
                    mock.patch.object(chunkmath, "greedy_means", recorded):
                assert _bits(reference.as_cells(
                    score_corpus(corpus, ALL_SCORERS, backend))) == expected, bounds
                report = evaluate_outputs(generated, corpus, backend, metrics=ALL_SCORERS)
            assert (report.per_pair, report.failures) == expected_report, bounds
        # The three edge pairs (one summary row, two document rows) were
        # screened next to longer documents, so with padding.
        assert any(lengths.count((1, 2)) == 3 and max(d for _, d in lengths) > 2
                   for lengths in blocks)


class NestedLogprobMock(MockBackend):
    """Answers each log-prob as a one-item list."""

    def conditional_token_logprobs(self, source, target):
        return [[lp] for lp in super().conditional_token_logprobs(source, target)]


class TestConditionalLikelihood:
    def test_all_present_is_log_point_nine(self, mock_backend):
        pair = make_pair("p", "storm hit the harbor town", "storm hit the harbor")
        value = score_one("condll", pair.document, pair.summary, mock_backend).value
        assert value == pytest.approx(math.log(0.9), abs=1e-15)

    def test_half_present(self, mock_backend):
        pair = make_pair("p", "storm hit", "storm hit comet meteor")
        expected = (2 * math.log(0.9) + 2 * math.log(0.1)) / 4
        value = score_one("condll", pair.document, pair.summary, mock_backend).value
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(-1.2040, abs=5e-5)

    def test_value_nonpositive_always(self, mock_backend):
        pair = make_pair("p", "a b c", "q w e r t y")
        assert score_one("condll", pair.document, pair.summary, mock_backend).value <= 0.0

    def test_nested_logprob_lists_get_the_reference_value(self):
        """Replies that are no flat lists of numbers skip the chunk arithmetic
        and each take the per-pair check."""
        backend = NestedLogprobMock()
        corpus = make_corpus("c", make_pair("a", "storm hit the harbor", "storm comet"),
                             make_pair("b", "mayor opened the bridge", "mayor bridge"))
        cells = score_corpus(corpus, ["condll"], backend)
        assert [cell.value for cell in cells] == [
            reference.condll(pair.document, pair.summary, backend) for pair in corpus]


class TestArcEntailment:
    def test_all_supported(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge", "mayor opened bridge")
        assert score_one("dae", pair.document, pair.summary, mock_backend).value == 1.0

    def test_one_of_two_supported(self, mock_backend):
        # parse of "mayor opened comet": head "opened", children "mayor", "comet"
        pair = make_pair("p", "the mayor opened the bridge", "mayor opened comet")
        assert score_one("dae", pair.document, pair.summary, mock_backend).value == 0.5

    def test_mean_matches_explicit_enumeration(self, mock_backend):
        pair = make_pair("p", "alpha beta gamma", "alpha comet beta meteor gamma")
        arcs = mock_backend.parse_dependencies(pair.summary)
        probs = mock_backend.arc_entailment_probs(pair.document, arcs)
        expected = sum(probs) / len(probs)
        assert score_one("dae", pair.document, pair.summary, mock_backend).value == \
            pytest.approx(expected)

    def test_single_token_summary_distinct_error(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge", "mayor")
        cell = score_one("dae", pair.document, pair.summary, mock_backend)
        assert cell.reason.startswith(f"{NoArcsError.__name__}: ")
        assert not issubclass(EmptySummaryError, NoArcsError)


class RowlessMock(MockBackend):
    """Returns zero embedding rows for any text that mentions 'void'."""

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        if "void" in text.split():
            return TokenEmbeddings(tokens=(), vectors=np.zeros((0, 16)))
        return super().embed_tokens(text)


class TestZeroRowEmbeddings:
    def test_zero_rows_become_sentinel(self):
        corpus = make_corpus("c", make_pair("p1", "void of stars", "stars"),
                             make_pair("p2", "alpha beta gamma", "alpha beta"))
        cells = score_corpus(corpus, ["greedy"], RowlessMock())
        assert isinstance(cells[0], ScoreFailure)
        assert cells[0].reason.startswith("DomainError:")
        assert isinstance(cells[1], FactualityScore) and cells[1].value == 1.0
