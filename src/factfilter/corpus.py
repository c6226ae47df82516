"""Document-summary corpus model: ingestion, persistence and descriptive stats.

A corpus is an ordered, immutable sequence of document-summary pairs loaded
from JSONL. Record schema (UTF-8, one record per line, LF terminators):

    {"id": str, "document": str, "summary": str,
     "split": "train"|"validation"|"test", "meta": object}
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

from .errors import DomainError, IntegrityError
from .records import JSON_OBJECTS, JSON_STRINGS, json_fields, json_value, read_jsonl, write_jsonl

SPLITS = ("train", "validation", "test")

_REQUIRED_FIELDS = ("id", "document", "summary", "split")


@dataclass(frozen=True)
class Pair:
    """One document-summary sample; the atomic unit of every pipeline stage."""

    id: str
    document: str
    summary: str
    split: str
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise DomainError("pair id must be non-empty")
        # `isspace` tests the whitespace `strip` removes, without copying the text.
        if not self.document or self.document.isspace():
            raise DomainError(f"pair {self.id!r}: document is empty")
        if not self.summary or self.summary.isspace():
            raise DomainError(f"pair {self.id!r}: summary is empty")
        if self.split not in SPLITS:
            raise DomainError(
                f"pair {self.id!r}: split {self.split!r} not one of {SPLITS}"
            )


@dataclass(frozen=True)
class Corpus:
    """Ordered collection of pairs with unique ids; immutable once built."""

    name: str
    pairs: tuple[Pair, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for pair in self.pairs:
            if pair.id in seen:
                raise IntegrityError(f"duplicate pair id {pair.id!r} in corpus {self.name!r}")
            seen.add(pair.id)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def ids(self) -> tuple[str, ...]:
        return tuple(pair.id for pair in self.pairs)

    def subset(self, ids: Iterable[str]) -> "Corpus":
        """Sub-corpus restricted to `ids`, preserving original relative order."""
        wanted = set(ids)
        unknown = wanted - set(self.ids())
        if unknown:
            raise IntegrityError(
                f"ids not in corpus {self.name!r}: {sorted(unknown)[:10]}"
            )
        kept = tuple(pair for pair in self.pairs if pair.id in wanted)
        return Corpus(name=self.name, pairs=kept)

    def split_pairs(self, split: str) -> tuple[Pair, ...]:
        if split not in SPLITS:
            raise DomainError(f"unknown split {split!r}")
        return tuple(pair for pair in self.pairs if pair.split == split)


@dataclass(frozen=True)
class CorpusStats:
    """Descriptive statistics of a corpus; lengths are whitespace word counts."""

    n_pairs: int
    mean_doc_words: float
    mean_sum_words: float
    per_split_counts: Mapping[str, int]


def word_count(text: str) -> int:
    """Number of maximal non-whitespace runs (Unicode whitespace splitting)."""
    return len(text.split())


def toy_corpus_path() -> Path:
    """Path of the bundled 50-pair synthetic corpus used for smoke runs."""
    return Path(__file__).parent / "data" / "toy_corpus.jsonl"


def _pair_from_record(record: Mapping[str, Any]) -> Pair:
    pair_id, document, summary, split = (record["id"], record["document"], record["summary"],
                                         record["split"])
    meta = record.get("meta", {})
    if not (type(pair_id) is type(document) is type(summary) is type(split) is str
            and type(meta) is dict):
        json_fields(record, _REQUIRED_FIELDS, JSON_STRINGS)
        json_value(meta, "meta", JSON_OBJECTS)
    try:
        return Pair(id=pair_id, document=document, summary=summary, split=split, meta=meta)
    except DomainError as exc:  # a bad record, so a parse error, not a bad argument
        raise ValueError(str(exc)) from exc


def load_corpus(path: str | Path, name: str | None = None) -> Corpus:
    """Load a corpus from JSONL, preserving file order.

    Raises ParseError naming `path:line` on a malformed record (bad JSON, a
    missing or mistyped field, an empty text or unknown split) and
    IntegrityError naming it on a duplicate id.
    """
    pairs: list[Pair] = []
    seen: set[str] = set()

    def consume(record: Mapping[str, Any]) -> None:
        pair = _pair_from_record(record)
        if pair.id in seen:
            raise IntegrityError(f"duplicate id {pair.id!r}")
        seen.add(pair.id)
        pairs.append(pair)

    read_jsonl(path, consume)
    return Corpus(name=name if name is not None else Path(path).stem, pairs=tuple(pairs))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write a corpus as JSONL with canonical field ordering."""
    write_jsonl(path, ({"id": pair.id, "document": pair.document, "summary": pair.summary,
                        "split": pair.split, "meta": dict(pair.meta)} for pair in corpus))


def corpus_stats(corpus: Corpus) -> CorpusStats:
    """Mean document/summary word counts plus per-split sample counts.

    The per_split_counts map records exactly which splits contributed,
    so reports are unambiguous about what was averaged.
    """
    if len(corpus) == 0:
        raise DomainError(f"corpus {corpus.name!r} is empty")
    doc_total = 0
    sum_total = 0
    split_counts: dict[str, int] = {}
    for pair in corpus:
        doc_total += word_count(pair.document)
        sum_total += word_count(pair.summary)
        split_counts[pair.split] = split_counts.get(pair.split, 0) + 1
    n = len(corpus)
    return CorpusStats(
        n_pairs=n,
        mean_doc_words=doc_total / n,
        mean_sum_words=sum_total / n,
        per_split_counts=dict(sorted(split_counts.items())),
    )
