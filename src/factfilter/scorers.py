"""The three factual-consistency scorers and the corpus-scale scoring driver.

Scorers (all reference-free; they compare a summary to its source document):

  greedy  - mean over summary tokens of the best embedding similarity to any
            document token (precision-style greedy matching).
  condll  - mean log-probability of summary tokens conditioned on the
            document under a sequence model.
  dae     - mean entailment probability over the summary's dependency arcs.

Documents longer than the backend's token limit are truncated (summaries
never are) and the truncation is recorded on the score. Per-pair failures at
corpus scale become explicit sentinel rows instead of aborting the run.
`score_texts` scores BLANC (defined in `metrics`) in the same loop.
"""

from __future__ import annotations

import json
import logging
import math
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .backend import Backend, BackendDescriptor
from .chunkmath import greedy_precisions, row_means
from .corpus import Corpus
from .errors import (
    PER_PAIR_ERRORS,
    BackendError,
    ConfigurationError,
    DomainError,
    EmptySummaryError,
    IntegrityError,
    NoArcsError,
    failure_reason,
)
from .records import read_jsonl

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class FactualityScore:
    """One scorer's value for one pair, as `score_corpus` yields and `write_scores` takes it."""

    pair_id: str
    scorer: str
    backend_name: str
    backend_version: str
    value: float
    truncated: bool

    def __post_init__(self) -> None:
        _check_value(self.scorer, self.value)


@dataclass(frozen=True, slots=True)
class ScoreFailure:
    """Sentinel cell recording that a pair could not be scored."""

    pair_id: str
    scorer: str
    backend_name: str
    backend_version: str
    reason: str


ScoreCell = Union[FactualityScore, ScoreFailure]
_TEXT_FIELDS = ("pair_id", "scorer", "backend_name", "backend_version", "error")
_PAIR_ID = itemgetter("pair_id")
# A run of rows for one column: its scorer and backend provenance.
_RUN_KEYS = itemgetter("scorer", "backend_name", "backend_version")
# A sentinel row's reason when it gives none.
_NO_REASON = "unknown failure"

# The closed value range of each built-in scorer and of BLANC; other scorers
# take any finite value. Every end is finite, so one chained comparison also
# rejects inf and NaN.
_FLOAT_MAX = sys.float_info.max
_VALUE_RANGES: dict[str, tuple[float, float]] = {
    "greedy": (-1.0, 1.0),
    "condll": (-_FLOAT_MAX, 0.0),
    "dae": (0.0, 1.0),
    "blanc": (-1.0, 1.0),
}
_ANY_FINITE = (-_FLOAT_MAX, _FLOAT_MAX)


def _check_value(scorer: str, value: float) -> float:
    """`value`; a `DomainError` unless it is finite and in `scorer`'s range."""
    low, high = _VALUE_RANGES.get(scorer, _ANY_FINITE)
    if not low <= value <= high:
        if not math.isfinite(value):
            raise DomainError(f"score {value} for scorer {scorer!r} is not finite")
        raise DomainError(f"score {value} outside the valid range for scorer {scorer!r}")
    return value


@dataclass(frozen=True, slots=True)
class PreparedPair:
    """A pair as every scorer reads it: the document clipped to the backend's
    token limit (summaries are never clipped), and whether it was clipped."""

    document: str
    summary: str
    truncated: bool


def prepare_pairs(texts: Sequence[tuple[str, str]],
                  backend: Backend) -> list[PreparedPair | Exception]:
    """Tokenize each `(document, summary)` once: the one place a document is clipped.

    The i-th item is the prepared pair, or the per-pair error that stopped it:
    the document's tokenize error, then the summary's, then an
    `EmptySummaryError`. A pair whose document failed is not asked about its
    summary.
    """
    limit = backend.descriptor.max_tokens
    out = list(backend.map("tokenize", [(document,) for document, _ in texts]))
    live = _alive(out)
    summaries = backend.map("tokenize", [(texts[i][1],) for i in live])
    for i, summary_tokens in zip(live, summaries):
        document, summary = texts[i]
        doc_tokens = out[i]
        if isinstance(summary_tokens, Exception):
            out[i] = summary_tokens
        elif not summary_tokens:
            out[i] = EmptySummaryError("summary tokenizes to nothing")
        elif len(doc_tokens) > limit:
            out[i] = PreparedPair(" ".join(doc_tokens[:limit]), summary, True)
        else:
            out[i] = PreparedPair(document, summary, False)
    return out


def _alive(outcomes: Sequence[Any]) -> list[int]:
    """Indices of the items that are not a per-pair error."""
    return [i for i, outcome in enumerate(outcomes) if not isinstance(outcome, Exception)]


def _per_pair(compute: Callable[..., float], *inputs: Any) -> float | Exception:
    """`compute(*inputs)`; an input that is already a per-pair error, or the
    per-pair error `compute` raises, is returned instead."""
    for item in inputs:
        if isinstance(item, Exception):
            return item
    try:
        return compute(*inputs)
    except PER_PAIR_ERRORS as exc:
        return exc


def greedy_precision_values(pairs: Sequence[PreparedPair],
                            backend: Backend) -> list[float | Exception]:
    """Mean over summary tokens of max similarity to any document token.

    Similarity of unit vectors u, v is computed as 1 - |u - v|^2 / 2, which
    equals their cosine up to rounding and is exactly 1.0 when the embeddings
    are bitwise identical (so a summary copied from the document scores 1.0).
    A batched product of cosines screens each summary token's candidate
    document tokens and only those get the difference form; the score stays
    bit-equal to the difference form over every document token (see
    `chunkmath.greedy_means`). A pair whose document and summary embeddings
    differ in width gets a `BackendError`.
    """
    out = list(backend.map("embed_tokens", [(pair.document,) for pair in pairs]))
    live = _alive(out)
    ready: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for i, summary in zip(live, backend.map("embed_tokens", [(pairs[i].summary,) for i in live])):
        if isinstance(summary, Exception):
            out[i] = summary
        elif out[i].vectors.shape[1] != summary.vectors.shape[1]:
            out[i] = BackendError(f"document embeddings are {out[i].vectors.shape[1]}-wide, "
                                  f"summary embeddings {summary.vectors.shape[1]}-wide")
        else:
            ready[i] = (out[i].vectors, summary.vectors)
    for i, value in zip(ready, greedy_precisions(list(ready.values()))):
        out[i] = value
    return out


def _means(items: Sequence[Any], check: Callable[..., float],
           bad: Callable[[np.ndarray], np.ndarray],
           counts: Sequence[int] | None = None) -> list[float | Exception]:
    """Each item's mean, or its per-pair error: the item when it is one, else
    what `check(item)` (with `counts`, `check(item, counts[k])`) raises.

    Items of a right length (not 0; `counts[k]` if given) are read as one
    float64 array, shortest first, and averaged in equal-length runs
    (`chunkmath.row_means`). An item of another length or holding a value
    that `bad` flags goes through `check` alone, as every item does if one is
    no flat sequence of numbers.
    """
    out = list(items)
    args = {k: (out[k],) if counts is None else (out[k], counts[k]) for k in _alive(out)}
    flat = np.empty(0)
    try:
        order = sorted((k for k in args if len(out[k]) and (
            counts is None or len(out[k]) == counts[k])), key=lambda k: len(out[k]))
        flat = np.fromiter(chain.from_iterable(out[k] for k in order), np.float64)
        ends = list(accumulate(len(out[k]) for k in order))
        rejected = {order[bisect_right(ends, row)] for row in np.flatnonzero(bad(flat)).tolist()}
        if rejected:
            order = [k for k in order if k not in rejected]
            flat = np.fromiter(chain.from_iterable(out[k] for k in order), np.float64)
    except (TypeError, ValueError):  # an item is no flat sequence of numbers
        order = []
    for k, mean in zip(order, row_means(flat, [len(out[k]) for k in order])):
        out[k] = mean
        del args[k]
    for k, arg in args.items():
        out[k] = _per_pair(check, *arg)
    return out


def conditional_likelihood_values(pairs: Sequence[PreparedPair],
                                  backend: Backend) -> list[float | Exception]:
    """Mean token log-probability of the summary conditioned on the document.

    The mean (not the sum) removes the length confound, so the downstream
    filter does not mechanically favor short summaries.
    """
    logprobs = backend.map("conditional_token_logprobs",
                           [(pair.document, pair.summary) for pair in pairs])
    return _means(logprobs, _condll_value, lambda lp: ~np.isfinite(lp) | (lp > 0.0))


def _condll_value(logprobs: Sequence[float]) -> float:
    arr = np.asarray(logprobs, dtype=np.float64)
    if arr.size == 0:
        raise EmptySummaryError("backend produced no target token log-probabilities")
    if not np.all(np.isfinite(arr)) or np.any(arr > 0.0):
        raise BackendError("token log-probabilities must be finite and <= 0")
    return float(np.mean(arr))


def arc_entailment_values(pairs: Sequence[PreparedPair],
                          backend: Backend) -> list[float | Exception]:
    """Mean entailment probability over the summary's dependency arcs."""
    out = list(backend.map("parse_dependencies", [(pair.summary,) for pair in pairs]))
    for i in _alive(out):
        if not out[i]:
            out[i] = NoArcsError("summary yields no dependency arcs (single token)")
    live = _alive(out)
    probs = backend.map("arc_entailment_probs", [(pairs[i].document, out[i]) for i in live])
    means = _means(probs, _dae_value, lambda p: (p < 0.0) | (p > 1.0),
                   [len(out[i]) for i in live])
    for i, mean in zip(live, means):
        out[i] = mean
    return out


def _dae_value(probs: Sequence[float], n_arcs: int) -> float:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape[0] != n_arcs:
        raise BackendError("entailment output length does not match arc count")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise BackendError("arc entailment probabilities must lie in [0, 1]")
    return float(np.mean(arr))


# The one name -> scorer map. Each entry scores a chunk of prepared pairs,
# asking the backend for one op over the whole chunk at a time; the i-th item
# of its result is pair i's value or the per-pair error that stopped it.
ChunkScorer = Callable[[Sequence[PreparedPair], Backend], list[Union[float, Exception]]]
SCORERS: dict[str, ChunkScorer] = {
    "greedy": greedy_precision_values,
    "condll": conditional_likelihood_values,
    "dae": arc_entailment_values,
}


class ScoreColumn(Mapping[str, Union[float, str]]):
    """One scorer's cells, read as a mapping: pair id -> float score, or the
    str failure reason of a sentinel row.

    Its table (`ScoreTable`) owns the ids and the one id -> row index; the
    column holds a value per table row up to its last cell (NaN at a sentinel
    row and at a row it has no cell for), the sentinel `reasons` by table row
    and its backend `provenance` `(name, version)`. It iterates in table-row
    order, and `len` counts its cells, sentinels included. `array` is a
    float64 copy of the values.
    """

    __slots__ = ("reasons", "provenance", "_table", "_values")

    def __init__(self, table: ScoreTable, provenance: tuple[str, str]):
        self.reasons: dict[int, str] = {}
        self.provenance = provenance
        self._table = table
        self._values = array("d")

    def __getitem__(self, pair_id: str) -> float | str:
        values = self._values
        row = self._table._index.get(pair_id, len(values))
        if row < len(values):
            value = values[row]
            if value == value:
                return value
            if row in self.reasons:
                return self.reasons[row]
        raise KeyError(pair_id)

    def __contains__(self, pair_id: object) -> bool:
        row = self._table._index.get(pair_id, len(self._values))
        return row < len(self._values) and (self._values[row] == self._values[row]
                                            or row in self.reasons)

    def __iter__(self) -> Iterator[str]:
        cells = ~np.isnan(self.array)
        cells[list(self.reasons)] = True
        return map(self._table._ids.__getitem__, np.flatnonzero(cells).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.array))) + len(self.reasons)

    @property
    def array(self) -> np.ndarray:
        return np.array(self._values)


class ScoreTable:
    """Per-pair, per-scorer score columns (`ScoreColumn`), each from one
    backend provenance, over one id index: the pair ids in the order they
    first came (for a file `score` writes, its first column's order), each
    id's place in that order being its table row. Every cell enters through
    `add_row`, or a block of rows at a time through `add_rows`."""

    def __init__(self, corpus_name: str):
        self.corpus_name = corpus_name
        self._columns: dict[str, ScoreColumn] = {}
        self._index: dict[str, int] = {}
        self._ids: list[str] = []

    @property
    def scorers(self) -> list[str]:
        return list(self._columns)

    def add_row(self, row: Mapping[str, Any]) -> None:
        """Check one scores-file row (see the README schema) and add its cell.

        A missing or mistyped field raises `KeyError` or `TypeError`, which
        `read_jsonl` reports as a `ParseError`; a non-finite or out-of-range
        value raises `DomainError`; a duplicate cell or a second provenance in
        a column raises `IntegrityError`.
        """
        pair_id = row["pair_id"]
        scorer = row["scorer"]
        provenance = (row["backend_name"], row["backend_version"])
        reason = row.get("error", _NO_REASON)
        if not (type(pair_id) is type(scorer) is type(provenance[0])
                is type(provenance[1]) is type(reason) is str):
            key = next(k for k in _TEXT_FIELDS if not isinstance(row.get(k, ""), str))
            raise TypeError(f"{key!r} must be a string, got {row[key]!r}")
        value = row.get("value")
        truncated = row.get("truncated", False)
        if not isinstance(truncated, bool):
            raise TypeError(f"'truncated' must be true or false, got {truncated!r}")
        if value is not None:
            if type(value) is not float:
                if type(value) is not int:  # rejects bool, an int subclass
                    raise TypeError(f"'value' must be a number or null, got {value!r}")
                value = float(value)
            _check_value(scorer, value)
        column = self._columns.get(scorer)
        if column is None:
            column = self._columns[scorer] = ScoreColumn(self, provenance)
        if pair_id in column:
            raise IntegrityError(f"duplicate score for pair {pair_id!r}, scorer {scorer!r}")
        if column.provenance != provenance:
            raise _mixed_backends(scorer, column.provenance, provenance)
        row = self._index.setdefault(pair_id, len(self._ids))
        if row == len(self._ids):
            self._ids.append(pair_id)
        if value is None:
            column.reasons[row] = reason
            value = math.nan
        column._values.extend(repeat(math.nan, row + 1 - len(column._values)))
        column._values[row] = value

    def add_rows(self, rows: Sequence[dict[str, Any]]) -> bool:
        """Check a block of decoded scores-file rows as `add_row` would and add
        all of their cells, or add none and return False.

        The checks run a field at a time over the whole block. A block is also
        refused where one scorer's rows are not one run of one provenance, and
        where a run's ids are neither the table's ids from its column's end
        on, nor, at a column that ends where the table does, ids new to the
        table: one `update` adds those to the index, which grows by the run's
        length exactly when the run repeats none. A refused block takes back
        the ids its earlier runs added. After False nothing has changed, and
        adding the rows one by one through `add_row` raises the first bad
        row's error.
        """
        n = len(rows)
        try:
            runs, start = [], 0  # (scorer, provenance, first row, row after the last)
            for (scorer, *provenance), run in groupby(map(_RUN_KEYS, rows)):
                stop = start + len(list(run))
                runs.append((scorer, tuple(provenance), start, stop))
                start = stop
            pair_ids = list(map(_PAIR_ID, rows))
            reasons = list(map(dict.get, rows, repeat("error", n), repeat(_NO_REASON, n)))
            truncated = map(dict.get, rows, repeat("truncated", n), repeat(False, n))
            values = list(map(dict.get, rows, repeat("value", n)))
            if {*map(type, pair_ids), *map(type, reasons)} != {str} \
                    or {*map(type, truncated)} != {bool}:
                return False
            kinds = {*map(type, values)}
            if not kinds <= {float, type(None)}:
                if not kinds <= {float, int, type(None)}:
                    return False
                values = [float(v) if type(v) is int else v for v in values]
            # A sentinel's None reads as NaN, which no range holds, and so
            # does a NaN value: every row not in range must be a sentinel.
            block_values = np.array(values, dtype=np.float64)
            in_range = 0
            columns = []
            for scorer, provenance, start, stop in runs:
                column = self._columns.get(scorer)
                if not (type(scorer) is type(provenance[0]) is type(provenance[1]) is str
                        and (column is None or column.provenance == provenance)):
                    return False
                columns.append(ScoreColumn(self, provenance) if column is None else column)
                low, high = _VALUE_RANGES.get(scorer, _ANY_FINITE)
                run_values = block_values[start:stop]
                in_range += np.count_nonzero((run_values >= low) & (run_values <= high))
        except (KeyError, TypeError, OverflowError):  # a missing key, a list scorer, 10 ** 400
            return False
        if len({run[0] for run in runs}) != len(runs) or in_range + values.count(None) != n:
            return False
        index, ids = self._index, self._ids
        known = len(ids)
        for column, (_, _, start, stop) in zip(columns, runs):
            run_ids, end = pair_ids[start:stop], len(column._values)
            if ids[end:end + stop - start] == run_ids:
                continue
            if end == len(ids) and index.keys().isdisjoint(run_ids):
                index.update(zip(run_ids, range(end, end + stop - start)))
                ids.extend(run_ids)
                if len(index) == len(ids):
                    continue
            for pair_id in ids[known:]:
                index.pop(pair_id, None)
            del ids[known:]
            return False
        for column, (scorer, _, start, stop) in zip(columns, runs):
            self._columns[scorer] = column
            run_values = block_values[start:stop]
            end = len(column._values)
            for row in np.flatnonzero(run_values != run_values).tolist():
                column.reasons[end + row] = reasons[start + row]
            column._values.frombytes(run_values.tobytes())
        return True

    def add(self, cell: ScoreCell) -> None:
        self.add_row(_cell_to_row(cell))

    def has(self, pair_id: str, scorer: str) -> bool:
        return scorer in self._columns and pair_id in self._columns[scorer]

    def column(self, scorer: str) -> ScoreColumn:
        try:
            return self._columns[scorer]
        except KeyError:
            raise ConfigurationError(f"no scores for scorer {scorer!r}") from None

    def values(self, scorer: str) -> dict[str, float]:
        """Successful scores only; sentinel rows are excluded."""
        column = self.column(scorer)
        return {pid: v for pid, v in zip(self._ids, column._values) if v == v}

    def failures(self, scorer: str) -> dict[str, str]:
        return {self._ids[row]: reason for row, reason in self.column(scorer).reasons.items()}

    def ids(self) -> set[str]:
        return set(self._index)

    def backend_descriptors(self) -> dict[str, dict[str, str]]:
        return {scorer: {"name": column.provenance[0], "version": column.provenance[1]}
                for scorer, column in self._columns.items()}

    def ensure_aligned(self) -> None:
        """Check that every column covers the same pair id set: every id of
        the table."""
        if not self._columns:
            raise IntegrityError("score table has no columns")
        if any(len(column) != len(self._ids) for column in self._columns.values()):
            reference = set(next(iter(self._columns.values())))
            scorer = next(scorer for scorer, column in self._columns.items()
                          if set(column) != reference)
            raise IntegrityError(f"scorer column {scorer!r} covers a different pair id set")

    def aligned(self, scorers: Sequence[str]) -> tuple[list[str], np.ndarray]:
        """The table's ids in row order, and one float64 row per scorer holding
        its value for each of those ids, NaN at a sentinel. Every column must
        cover every id (see `ensure_aligned`)."""
        return self._ids, np.stack([self.column(scorer).array for scorer in scorers])

    def ensure_complete(self, pair_ids: Iterable[str]) -> None:
        wanted = set(pair_ids)
        for scorer, column in self._columns.items():
            missing = wanted.difference(column)
            if missing:
                raise IntegrityError(
                    f"scorer column {scorer!r} missing {len(missing)} pairs "
                    f"(e.g. {sorted(missing)[:5]})"
                )


def _mixed_backends(scorer: str, existing: tuple[str, str],
                    provenance: tuple[str, str]) -> IntegrityError:
    return IntegrityError(f"column {scorer!r} mixes backends "
                          f"{existing[0]}:{existing[1]} and {provenance[0]}:{provenance[1]}")


def _cell_to_row(cell: ScoreCell) -> dict:
    row = {
        "pair_id": cell.pair_id,
        "scorer": cell.scorer,
        "backend_name": cell.backend_name,
        "backend_version": cell.backend_version,
    }
    if isinstance(cell, FactualityScore):
        row["value"] = cell.value
        row["truncated"] = cell.truncated
    else:
        row["value"] = None
        row["truncated"] = False
        row["error"] = cell.reason
    return row


def write_scores(cells: Iterable[ScoreCell], path: str | Path, append: bool = False) -> None:
    """Append-only JSONL score rows; see the scores-file schema in the README."""
    mode = "a" if append else "w"
    with Path(path).open(mode, encoding="utf-8", newline="\n") as handle:
        for cell in cells:
            handle.write(json.dumps(_cell_to_row(cell), ensure_ascii=False) + "\n")


def load_scores(path: str | Path, corpus_name: str) -> ScoreTable:
    """Read a scores file into a ScoreTable, a block of lines at a time
    (`read_jsonl`): a block that is provably one row per line goes to
    `ScoreTable.add_rows`, any other block, or one that method refuses, row by
    row to `ScoreTable.add_row`, with the same checks and errors.

    Every row is checked as it is read: its JSON and field types (`ParseError`),
    the value's finiteness and scorer range (`DomainError`), and duplicate
    cells and mixed backend provenance within a column (`IntegrityError`).
    Each error names the offending `path:line`.
    """
    table = ScoreTable(corpus_name)
    read_jsonl(path, table.add_row, table.add_rows)
    return table


# Pairs are scored in consecutive chunks of at most this many characters of
# document and summary text (a longer pair is a chunk alone): one backend
# round trip per op per chunk, while a chunk's prepared texts and replies stay
# small next to the corpus.
_CHUNK_CHARS = 2 ** 14

# One item to score: its `(document, summary)` texts and the metrics it needs.
ScoringItem = tuple[tuple[str, str], Sequence[str]]


def _chunks(todo: Sequence[ScoringItem]) -> Iterator[Sequence[ScoringItem]]:
    chunk: list[ScoringItem] = []
    size = 0
    for item in todo:
        document, summary = item[0]
        length = len(document) + len(summary)
        if chunk and size + length > _CHUNK_CHARS:
            yield chunk
            chunk, size = [], 0
        chunk.append(item)
        size += length
    if chunk:
        yield chunk


def score_texts(todo: Sequence[ScoringItem], backend: Backend,
                ) -> Iterator[tuple[PreparedPair | Exception | None,
                                    dict[str, float | Exception]]]:
    """Score each `((document, summary), names)` item of `todo`, in order; a
    name is a `SCORERS` entry or "blanc".

    Yields, per item, its prepared pair (None if it names no scorer) or the
    per-pair error that stopped it, and each name's value or per-pair error (a
    scorer's is that preparation error, if there was one); a value that is not
    finite or outside the metric's range is a `DomainError`. Items go in
    chunks of at most `_CHUNK_CHARS` characters of text: a chunk's pairs are
    prepared (tokenized and truncated) once for all their scorers, and each
    scorer asks the backend for one op over the chunk at a time. BLANC reads
    the untruncated texts, one pair at a time (`metrics.blanc_help`).
    """
    from . import metrics  # it imports this module; `blanc_help` is looked up per call

    for chunk in _chunks(todo):
        scoring = [k for k, (_, names) in enumerate(chunk) if set(names) - {"blanc"}]
        prepared = dict(zip(scoring, prepare_pairs([chunk[k][0] for k in scoring], backend)
                            if scoring else []))
        outcomes: list[dict[str, Any]] = [{} for _ in chunk]
        for scorer in dict.fromkeys(name for k in scoring for name in chunk[k][1]
                                    if name != "blanc"):
            ready = [k for k in scoring
                     if scorer in chunk[k][1] and not isinstance(prepared[k], Exception)]
            values = SCORERS[scorer]([prepared[k] for k in ready], backend)
            for k, value in zip(ready, values, strict=True):
                outcomes[k][scorer] = value
        for k, ((document, summary), names) in enumerate(chunk):
            if "blanc" in names:
                outcomes[k]["blanc"] = _per_pair(
                    lambda: metrics.blanc_help(document, summary, backend).value)
            yield prepared.get(k), {
                name: _per_pair(_check_value, name, outcomes[k].get(name, prepared.get(k)))
                for name in names}


def _cell(scorer: str, pair_id: str, d: BackendDescriptor,
          prepared: PreparedPair | Exception, outcome: float | Exception) -> ScoreCell:
    if isinstance(outcome, Exception):
        return ScoreFailure(pair_id, scorer, d.name, d.version, failure_reason(outcome))
    return FactualityScore(pair_id, scorer, d.name, d.version, outcome, prepared.truncated)


def score_corpus(corpus: Corpus, scorer_names: Sequence[str], backend: Backend,
                 skip: Callable[[str, str], bool] | None = None) -> list[ScoreCell]:
    """Score every (pair, scorer) cell; failures become sentinel rows.

    Results come back in canonical order (scorer-major, corpus pair order).
    `skip(pair_id, scorer)` filters out already-scored cells for resumable
    runs. The pairs that still need a cell are scored in chunks
    (`score_texts`).
    """
    if len(corpus) == 0:
        raise DomainError(f"corpus {corpus.name!r} is empty")
    unknown = [s for s in scorer_names if s not in SCORERS]
    if unknown:
        raise ConfigurationError(
            f"unknown scorers {unknown}; available: {sorted(SCORERS)}"
        )
    if len(set(scorer_names)) != len(scorer_names):
        raise ConfigurationError(f"scorers repeat: {list(scorer_names)}")
    descriptor = backend.descriptor
    cells: dict[str, list[ScoreCell]] = {scorer: [] for scorer in scorer_names}
    todo = [(pair, needed) for pair in corpus
            if (needed := [scorer for scorer in cells
                           if skip is None or not skip(pair.id, scorer)])]
    scored = score_texts([((pair.document, pair.summary), needed) for pair, needed in todo],
                         backend)
    for (pair, _), (prepared, outcomes) in zip(todo, scored):
        for scorer, outcome in outcomes.items():
            cells[scorer].append(_cell(scorer, pair.id, descriptor, prepared, outcome))
    return [cell for scorer in scorer_names for cell in cells[scorer]]


def score_corpus_to_file(corpus: Corpus, scorer_names: Sequence[str], backend: Backend,
                         path: str | Path) -> int:
    """Resumable scoring: skip (pair, scorer) keys already present in `path`.

    Before any pair is scored, a column of `path` that lacks a pair of
    `corpus` must carry the backend's `(name, version)`: an `IntegrityError`
    otherwise. Returns the number of newly scored cells appended.
    """
    p = Path(path)
    existing = ScoreTable(corpus.name)
    if p.exists():
        existing = load_scores(p, corpus.name)
        done = sum(len(existing.column(s)) for s in existing.scorers)
        logger.info("resuming: %d cells already scored in %s", done, p)
    d = backend.descriptor
    for scorer in existing.scorers:
        column = existing.column(scorer)
        if scorer in scorer_names and column.provenance != (d.name, d.version) and \
                any(pair.id not in column for pair in corpus):
            raise _mixed_backends(scorer, column.provenance, (d.name, d.version))
    cells = score_corpus(corpus, scorer_names, backend, skip=existing.has)
    write_scores(cells, p, append=p.exists())
    logger.info("scored %d new cells for corpus %s", len(cells), corpus.name)
    return len(cells)
