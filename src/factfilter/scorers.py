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
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .backend import Backend
from .corpus import Corpus, Pair
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
        _check_value(self.scorer, self.pair_id, self.value)


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

# The closed value range of each built-in scorer; other scorers take any finite value.
_VALUE_RANGES: dict[str, tuple[float, float]] = {
    "greedy": (-1.0, 1.0),
    "condll": (-math.inf, 0.0),
    "dae": (0.0, 1.0),
}


def _check_value(scorer: str, pair_id: str, value: float) -> None:
    """Raise `DomainError` unless `value` is finite and in `scorer`'s range."""
    if not math.isfinite(value):
        raise DomainError(f"score for pair {pair_id!r} is not finite")
    low, high = _VALUE_RANGES.get(scorer, (-math.inf, math.inf))
    if not low <= value <= high:
        raise DomainError(f"score {value} outside the valid range for scorer {scorer!r}")


def truncate_document(backend: Backend, document: str) -> tuple[str, bool]:
    """Clip a document to the backend's token limit; summaries are never clipped."""
    limit = backend.descriptor.max_tokens
    tokens = backend.tokenize(document)
    if len(tokens) <= limit:
        return document, False
    return " ".join(tokens[:limit]), True


_GREEDY_BLOCK_ELEMENTS = 2 ** 15


def greedy_precision_value(document: str, summary: str, backend: Backend) -> tuple[float, bool]:
    """Mean over summary tokens of max similarity to any document token.

    Similarity of unit vectors u, v is computed as 1 - |u - v|^2 / 2, which
    equals their cosine up to rounding and is exactly 1.0 when the embeddings
    are bitwise identical (so a summary copied from the document scores 1.0).
    """
    document, truncated = truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    doc_emb = backend.embed_tokens(document)
    sum_emb = backend.embed_tokens(summary)
    doc_vecs = _unit_rows(doc_emb.vectors)
    sum_vecs = _unit_rows(sum_emb.vectors)
    if doc_vecs.shape[1] != sum_vecs.shape[1]:
        raise BackendError(f"document embeddings are {doc_vecs.shape[1]}-wide, "
                           f"summary embeddings {sum_vecs.shape[1]}-wide")
    # Blocks of summary rows bound the (rows, n_doc, dim) difference array.
    rows = max(1, _GREEDY_BLOCK_ELEMENTS // max(1, doc_vecs.size))
    best = np.empty(sum_vecs.shape[0], dtype=np.float64)
    for i in range(0, sum_vecs.shape[0], rows):
        d2 = np.sum((doc_vecs - sum_vecs[i:i + rows, None]) ** 2, axis=2)
        best[i:i + rows] = np.max(1.0 - d2 / 2.0, axis=1)
    value = float(np.mean(np.clip(best, -1.0, 1.0)))
    return value, truncated


def conditional_likelihood_value(document: str, summary: str,
                                 backend: Backend) -> tuple[float, bool]:
    """Mean token log-probability of the summary conditioned on the document.

    The mean (not the sum) removes the length confound, so the downstream
    filter does not mechanically favor short summaries.
    """
    document, truncated = truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    logprobs = backend.conditional_token_logprobs(document, summary)
    arr = np.asarray(logprobs, dtype=np.float64)
    if arr.size == 0:
        raise EmptySummaryError("backend produced no target token log-probabilities")
    if not np.all(np.isfinite(arr)) or np.any(arr > 0.0):
        raise BackendError("token log-probabilities must be finite and <= 0")
    return float(np.mean(arr)), truncated


def arc_entailment_value(document: str, summary: str, backend: Backend) -> tuple[float, bool]:
    """Mean entailment probability over the summary's dependency arcs."""
    document, truncated = truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    arcs = backend.parse_dependencies(summary)
    if not arcs:
        raise NoArcsError("summary yields no dependency arcs (single token)")
    probs = np.asarray(backend.arc_entailment_probs(document, arcs), dtype=np.float64)
    if probs.shape[0] != len(arcs):
        raise BackendError("entailment output length does not match arc count")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise BackendError("arc entailment probabilities must lie in [0, 1]")
    return float(np.mean(probs)), truncated


def _unit_rows(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    return vectors / norms


# The one name -> scorer map: (document, summary, backend) -> (value, truncated).
SCORERS: dict[str, Callable[[str, str, Backend], tuple[float, bool]]] = {
    "greedy": greedy_precision_value,
    "condll": conditional_likelihood_value,
    "dae": arc_entailment_value,
}


class ScoreTable:
    """Per-pair, per-scorer score columns with provenance checks.

    A column maps each pair id to a float, its score, or to a str, the failure
    reason of a sentinel row. Next to each column the table keeps the
    column's backend provenance `(name, version)` and the ids of the scores
    computed on a truncated document. Every cell enters through `add_row`.
    """

    def __init__(self, corpus_name: str):
        self.corpus_name = corpus_name
        self._columns: dict[str, dict[str, float | str]] = {}
        self._provenance: dict[str, tuple[str, str]] = {}
        self._truncated: dict[str, set[str]] = {}

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
            if type(value) not in (float, int):  # rejects bool, an int subclass
                raise TypeError(f"'value' must be a number or null, got {value!r}")
            value = float(value)
            _check_value(scorer, pair_id, value)
        column = self._columns.setdefault(scorer, {})
        if pair_id in column:
            raise IntegrityError(f"duplicate score for pair {pair_id!r}, scorer {scorer!r}")
        existing = self._provenance.setdefault(scorer, provenance)
        if existing != provenance:
            raise IntegrityError(
                f"column {scorer!r} mixes backends "
                f"{existing[0]}:{existing[1]} and {provenance[0]}:{provenance[1]}"
            )
        column[pair_id] = reason if value is None else value
        if truncated and value is not None:
            self._truncated.setdefault(scorer, set()).add(pair_id)

    def add(self, cell: ScoreCell) -> None:
        self.add_row(_cell_to_row(cell))

    def has(self, pair_id: str, scorer: str) -> bool:
        return pair_id in self._columns.get(scorer, {})

    def column(self, scorer: str) -> Mapping[str, float | str]:
        try:
            return self._columns[scorer]
        except KeyError:
            raise ConfigurationError(f"no scores for scorer {scorer!r}") from None

    def values(self, scorer: str) -> dict[str, float]:
        """Successful scores only; sentinel rows are excluded."""
        return {pid: v for pid, v in self.column(scorer).items() if not isinstance(v, str)}

    def failures(self, scorer: str) -> dict[str, str]:
        return {pid: v for pid, v in self.column(scorer).items() if isinstance(v, str)}

    def truncated_ids(self, scorer: str) -> set[str]:
        """Ids whose score in `scorer`'s column was computed on a truncated document."""
        return set(self._truncated.get(scorer, ()))

    def ids(self) -> set[str]:
        out: set[str] = set()
        for column in self._columns.values():
            out.update(column)
        return out

    def backend_descriptors(self) -> dict[str, dict[str, str]]:
        return {scorer: {"name": name, "version": version}
                for scorer, (name, version) in self._provenance.items()}

    def ensure_aligned(self) -> None:
        """Check that every column covers the same pair id set."""
        if not self._columns:
            raise IntegrityError("score table has no columns")
        reference: set[str] | None = None
        for scorer, column in self._columns.items():
            if not column:
                raise IntegrityError(f"scorer column {scorer!r} is empty")
            ids = set(column)
            if reference is None:
                reference = ids
            elif ids != reference:
                raise IntegrityError(
                    f"scorer column {scorer!r} covers a different pair id set"
                )

    def ensure_complete(self, pair_ids: Iterable[str]) -> None:
        wanted = set(pair_ids)
        for scorer, column in self._columns.items():
            missing = wanted - set(column)
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


def _score_one(scorer: str, pair: Pair, backend: Backend) -> ScoreCell:
    d = backend.descriptor
    try:
        value, truncated = SCORERS[scorer](pair.document, pair.summary, backend)
        return FactualityScore(pair.id, scorer, d.name, d.version, value, truncated)
    except PER_PAIR_ERRORS as exc:  # includes an out-of-range value's DomainError
        return ScoreFailure(pair.id, scorer, d.name, d.version, failure_reason(exc))


def score_corpus(corpus: Corpus, scorer_names: Sequence[str], backend: Backend,
                 skip: Callable[[str, str], bool] | None = None) -> list[ScoreCell]:
    """Score every (pair, scorer) cell; failures become sentinel rows.

    Results come back in canonical order (scorer-major, corpus pair order).
    `skip(pair_id, scorer)` filters out already-scored cells for resumable
    runs.
    """
    if len(corpus) == 0:
        raise DomainError(f"corpus {corpus.name!r} is empty")
    unknown = [s for s in scorer_names if s not in SCORERS]
    if unknown:
        raise ConfigurationError(
            f"unknown scorers {unknown}; available: {sorted(SCORERS)}"
        )
    return [_score_one(scorer, pair, backend) for scorer in scorer_names for pair in corpus
            if skip is None or not skip(pair.id, scorer)]


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
