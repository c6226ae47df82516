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
"""

from __future__ import annotations

import json
import logging
import math
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

from .backend import Backend, BackendDescriptor, TokenEmbeddings
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

# The closed value range of each built-in scorer; other scorers take any finite
# value. Every end is finite, so one chained comparison also rejects inf and NaN.
_FLOAT_MAX = sys.float_info.max
_VALUE_RANGES: dict[str, tuple[float, float]] = {
    "greedy": (-1.0, 1.0),
    "condll": (-_FLOAT_MAX, 0.0),
    "dae": (0.0, 1.0),
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


# Most float64 elements one gather of greedy candidates holds (256 KiB).
_GREEDY_BLOCK_ELEMENTS = 2 ** 15


def greedy_precision_values(pairs: Sequence[PreparedPair],
                            backend: Backend) -> list[float | Exception]:
    """Mean over summary tokens of max similarity to any document token.

    Similarity of unit vectors u, v is computed as 1 - |u - v|^2 / 2, which
    equals their cosine up to rounding and is exactly 1.0 when the embeddings
    are bitwise identical (so a summary copied from the document scores 1.0).
    One matrix product of cosines screens each summary token's candidate
    document tokens and only those get the difference form; the score stays
    bit-equal to the difference form over every document token (see
    `_greedy_value`).
    """
    out = list(backend.map("embed_tokens", [(pair.document,) for pair in pairs]))
    live = _alive(out)
    summaries = backend.map("embed_tokens", [(pairs[i].summary,) for i in live])
    for i, summary in zip(live, summaries):
        out[i] = _per_pair(_greedy_value, out[i], summary)
    return out


def _greedy_value(doc_emb: TokenEmbeddings, sum_emb: TokenEmbeddings) -> float:
    """One pair's greedy precision: the clipped mean over summary rows u of
    the largest difference form 1 - |v - u|^2 / 2 over document rows v. The
    Gram form u·v screens the candidates, the difference form decides.

    Why each row's best is bit-equal to the difference form over every
    document row. Let n = dim and eps = `finfo(float64).eps`. A row that
    `_unit_rows` normalised has |u|^2 within (n/2 + 2) eps of 1, and the
    check below lets through rows with |u|^2 - 1 up to (3n/2 + 2) eps. For
    such rows the computed difference form f = 1 - sum((v - u)**2) / 2
    and the computed Gram entry g = u·v differ by at most
    delta = 4 (n + 2) eps, whatever order the matrix product sums in:
      * exactly, 1 - |v - u|^2 / 2 = u·v - (|u|^2 - 1 + |v|^2 - 1) / 2,
        at most (3n/2 + 2) eps from u·v;
      * rounding moves u·v by at most n eps / 2, and the difference form
        by at most (n + 5/2) eps;
    (3n + 9/2) eps in all. For one summary row, let g* be its largest
    Gram entry and f* its largest difference form. The column that gives
    f* has g >= f* - delta >= f(column of g*) - delta >= g* - 2 delta,
    so the columns with g >= g* - 2 delta include it. Each candidate's f
    is computed as the per-row form computes it (the same differences and
    squares, the same contiguous sum over `dim`), so the row's maximum is
    the same float.

    A row whose computed |u|^2 is more than (n + 2) eps from 1 (its norm
    over- or underflowed) is outside that bound; then every column is a
    candidate. Candidates are evaluated at most
    `_GREEDY_BLOCK_ELEMENTS // dim` at a time, which bounds the memory even
    when every column ties.
    """
    doc_vecs = _unit_rows(doc_emb.vectors)
    sum_vecs = _unit_rows(sum_emb.vectors)
    dim = doc_vecs.shape[1]
    if dim != sum_vecs.shape[1]:
        raise BackendError(f"document embeddings are {dim}-wide, "
                           f"summary embeddings {sum_vecs.shape[1]}-wide")
    eps = np.finfo(np.float64).eps
    delta = 4.0 * (dim + 2) * eps
    for vecs in (doc_vecs, sum_vecs):
        if np.abs(np.einsum("ij,ij->i", vecs, vecs) - 1.0).max() > (dim + 2) * eps:
            delta = np.inf
    gram = sum_vecs @ doc_vecs.T
    rows, cols = np.nonzero(gram >= gram.max(axis=1, keepdims=True) - 2.0 * delta)
    best = np.full(sum_vecs.shape[0], -np.inf)
    step = max(1, _GREEDY_BLOCK_ELEMENTS // dim)
    for i in range(0, rows.size, step):
        r, c = rows[i:i + step], cols[i:i + step]
        diff = doc_vecs.take(c, axis=0)
        diff -= sum_vecs.take(r, axis=0)
        diff *= diff
        np.maximum.at(best, r, 1.0 - diff.sum(axis=1) / 2.0)
    return float(np.mean(np.clip(best, -1.0, 1.0)))


def conditional_likelihood_values(pairs: Sequence[PreparedPair],
                                  backend: Backend) -> list[float | Exception]:
    """Mean token log-probability of the summary conditioned on the document.

    The mean (not the sum) removes the length confound, so the downstream
    filter does not mechanically favor short summaries.
    """
    logprobs = backend.map("conditional_token_logprobs",
                           [(pair.document, pair.summary) for pair in pairs])
    return [_per_pair(_condll_value, logprob) for logprob in logprobs]


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
    for i, prob in zip(live, probs):
        out[i] = _per_pair(_dae_value, prob, len(out[i]))
    return out


def _dae_value(probs: Sequence[float], n_arcs: int) -> float:
    arr = np.asarray(probs, dtype=np.float64)
    if arr.shape[0] != n_arcs:
        raise BackendError("entailment output length does not match arc count")
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise BackendError("arc entailment probabilities must lie in [0, 1]")
    return float(np.mean(arr))


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / norms


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
    """One scorer's cells in file order, read as a mapping: pair id -> float
    score, or the str failure reason of a sentinel row.

    It holds the id -> row `index` (which also gives the ids in file order,
    `ids`), each row's value (NaN at a sentinel row), the sentinel `reasons`
    by row and the column's backend `provenance` `(name, version)`. `ids` and
    `array`, the values as a read-only float64 array, are built when first
    read after a row was added.
    """

    __slots__ = ("index", "reasons", "provenance", "_values", "_ids", "_array")

    def __init__(self, provenance: tuple[str, str]):
        self.index: dict[str, int] = {}
        self.reasons: dict[int, str] = {}
        self.provenance = provenance
        self._values = array("d")
        self._ids: list[str] = []
        self._array = np.empty(0)

    def __getitem__(self, pair_id: str) -> float | str:
        row = self.index[pair_id]
        value = self._values[row]
        return self.reasons[row] if value != value else value

    def __contains__(self, pair_id: object) -> bool:
        return pair_id in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)

    @property
    def ids(self) -> list[str]:
        if len(self._ids) != len(self.index):
            self._ids = list(self.index)
        return self._ids

    @property
    def array(self) -> np.ndarray:
        if len(self._array) != len(self._values):
            self._array = np.array(self._values, dtype=np.float64)
            self._array.flags.writeable = False
        return self._array


class ScoreTable:
    """Per-pair, per-scorer score columns (`ScoreColumn`), each from one
    backend provenance. Every cell enters through `add_row`."""

    def __init__(self, corpus_name: str):
        self.corpus_name = corpus_name
        self._columns: dict[str, ScoreColumn] = {}

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
        reason = row.get("error", "unknown failure")
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
            column = self._columns[scorer] = ScoreColumn(provenance)
        index = column.index
        if pair_id in index:
            raise IntegrityError(f"duplicate score for pair {pair_id!r}, scorer {scorer!r}")
        if column.provenance != provenance:
            existing = column.provenance
            raise IntegrityError(
                f"column {scorer!r} mixes backends "
                f"{existing[0]}:{existing[1]} and {provenance[0]}:{provenance[1]}"
            )
        if value is None:
            column.reasons[len(index)] = reason
            value = math.nan
        index[pair_id] = len(index)
        column._values.append(value)

    def add(self, cell: ScoreCell) -> None:
        self.add_row(_cell_to_row(cell))

    def has(self, pair_id: str, scorer: str) -> bool:
        column = self._columns.get(scorer)
        return column is not None and pair_id in column.index

    def column(self, scorer: str) -> ScoreColumn:
        try:
            return self._columns[scorer]
        except KeyError:
            raise ConfigurationError(f"no scores for scorer {scorer!r}") from None

    def values(self, scorer: str) -> dict[str, float]:
        """Successful scores only; sentinel rows are excluded."""
        column = self.column(scorer)
        return {pid: v for pid, v in zip(column.index, column._values) if v == v}

    def failures(self, scorer: str) -> dict[str, str]:
        column = self.column(scorer)
        return {column.ids[row]: reason for row, reason in column.reasons.items()}

    def ids(self) -> set[str]:
        return set().union(*(column.index for column in self._columns.values()))

    def backend_descriptors(self) -> dict[str, dict[str, str]]:
        return {scorer: {"name": column.provenance[0], "version": column.provenance[1]}
                for scorer, column in self._columns.items()}

    def ensure_aligned(self) -> None:
        """Check that every column covers the same pair id set."""
        if not self._columns:
            raise IntegrityError("score table has no columns")
        reference = next(iter(self._columns.values()))
        for scorer, column in self._columns.items():
            if column is not reference and column.ids != reference.ids and (
                    len(column) != len(reference)
                    or not all(map(reference.index.__contains__, column.ids))):
                raise IntegrityError(
                    f"scorer column {scorer!r} covers a different pair id set"
                )

    def aligned(self, scorers: Sequence[str]) -> tuple[list[str], np.ndarray]:
        """The first scorer's ids in file order, and one float64 row per scorer
        holding its value for each of those ids, NaN at a sentinel. Every
        column must cover the first one's ids (see `ensure_aligned`)."""
        columns = [self.column(scorer) for scorer in scorers]
        ids = columns[0].ids
        out = np.empty((len(columns), len(ids)))
        for row, column in zip(out, columns):
            row[:] = column.array if column.ids == ids else \
                column.array[[column.index[pair_id] for pair_id in ids]]
        return ids, out

    def ensure_complete(self, pair_ids: Iterable[str]) -> None:
        wanted = set(pair_ids)
        for scorer, column in self._columns.items():
            missing = wanted.difference(column.index)
            if missing:
                raise IntegrityError(
                    f"scorer column {scorer!r} missing {len(missing)} pairs "
                    f"(e.g. {sorted(missing)[:5]})"
                )


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
    """Read a scores file into a ScoreTable, streaming it one row at a time.

    Every row is checked as it is read: its JSON and field types (`ParseError`),
    the value's finiteness and scorer range (`DomainError`), and duplicate
    cells and mixed backend provenance within a column (`IntegrityError`).
    Each error names the offending `path:line`.
    """
    table = ScoreTable(corpus_name)
    read_jsonl(path, table.add_row)
    return table


# Pairs are scored in consecutive chunks of at most this many characters of
# document and summary text (a longer pair is a chunk alone): one backend
# round trip per op per chunk, while a chunk's prepared texts and replies stay
# small next to the corpus.
_CHUNK_CHARS = 2 ** 14

# One item to score: its `(document, summary)` texts and the scorers it needs.
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
                ) -> Iterator[tuple[PreparedPair | Exception, dict[str, float | Exception]]]:
    """Score each `((document, summary), scorer_names)` item of `todo`, in order.

    Yields, per item, its prepared pair or the per-pair error that stopped its
    preparation, and each named scorer's value or per-pair error (the
    preparation error, if there was one); a value that is not finite or lies
    outside the scorer's range is a `DomainError`. The items are scored in
    chunks of at most `_CHUNK_CHARS` characters of text: each pair of a chunk
    is prepared (tokenized and truncated) once for all its scorers, and each
    scorer asks the backend for one op over the chunk at a time.
    """
    for chunk in _chunks(todo):
        prepared = prepare_pairs([texts for texts, _ in chunk], backend)
        outcomes: list[dict[str, float | Exception]] = [{} for _ in chunk]
        for scorer in dict.fromkeys(name for _, names in chunk for name in names):
            ready = [k for k, (_, names) in enumerate(chunk)
                     if scorer in names and not isinstance(prepared[k], Exception)]
            values = SCORERS[scorer]([prepared[k] for k in ready], backend)
            for k, value in zip(ready, values, strict=True):
                outcomes[k][scorer] = _per_pair(_check_value, scorer, value)
        for k, (_, names) in enumerate(chunk):
            yield prepared[k], {name: outcomes[k].get(name, prepared[k]) for name in names}


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

    Returns the number of newly scored cells appended.
    """
    p = Path(path)
    existing = ScoreTable(corpus.name)
    if p.exists():
        existing = load_scores(p, corpus.name)
        done = sum(len(existing.column(s)) for s in existing.scorers)
        logger.info("resuming: %d cells already scored in %s", done, p)
    cells = score_corpus(corpus, scorer_names, backend, skip=existing.has)
    for cell in cells:  # refuses duplicates and mixed backend provenance
        existing.add(cell)
    write_scores(cells, p, append=p.exists())
    logger.info("scored %d new cells for corpus %s", len(cells), corpus.name)
    return len(cells)
