"""Summary-quality evaluation: bigram overlap (ROUGE-2) and BLANC-help.

ROUGE-2 preprocessing is deliberately minimal and documented: lowercase,
Unicode-whitespace tokenization, no stemming, no stopword removal. BLANC-help
measures how much a summary (versus a neutral filler) improves a model's
masked-token reconstruction on each document sentence; the mask schedule is
deterministic so regression tests are byte-stable.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .backend import Backend
from .corpus import Corpus
from .errors import (
    BackendError,
    ConfigurationError,
    CoverageError,
    DomainError,
    IntegrityError,
    failure_reason,
)
from .filtration import FilterManifest
from .records import read_csv, write_csv
from .scorers import SCORERS, score_texts

# Mask token positions 0, 4, 8, ... but only tokens long enough to carry
# content; the filler is shorter than any maskable token, so it can never
# leak an answer to a token-identity backend.
MASK_STRIDE = 4
MIN_MASK_TOKEN_CHARS = 4
FILLER_TOKEN = "the"

_SENTENCE_BOUNDARY = re.compile(r"([.!?])\s+")

_REPORT_COLUMNS = ("record", "pair_id", "metric", "value", "n", "headline", "note")

REFERENCE_FREE_METRICS = (*SCORERS, "blanc")
REFERENCE_BASED_METRICS = ("rouge2",)
ALL_METRICS = REFERENCE_BASED_METRICS + REFERENCE_FREE_METRICS


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    def __post_init__(self) -> None:
        for name, v in (("precision", self.precision), ("recall", self.recall),
                        ("f1", self.f1)):
            if not 0.0 <= v <= 1.0:
                raise DomainError(f"rouge {name} {v} outside [0, 1]")


@dataclass(frozen=True)
class BlancScore:
    value: float
    n_sentences: int
    n_masked_tokens: int

    def __post_init__(self) -> None:
        if abs(self.value) > 1.0:
            raise DomainError(f"blanc value {self.value} outside [-1, 1]")


def _tokenize(text: str) -> list[str]:
    return text.lower().split()


def _bigrams(tokens: Sequence[str]) -> Counter:
    return Counter(zip(tokens, tokens[1:]))


def rouge2(candidate: str, reference: str) -> RougeScore:
    """Clipped bigram-overlap precision/recall/F1 between two texts.

    Texts with fewer than two tokens have no bigrams and score zero.
    """
    cand = _bigrams(_tokenize(candidate))
    ref = _bigrams(_tokenize(reference))
    n_cand = sum(cand.values())
    n_ref = sum(ref.values())
    overlap = sum(min(count, ref[bigram]) for bigram, count in cand.items())
    precision = overlap / n_cand if n_cand else 0.0
    recall = overlap / n_ref if n_ref else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return RougeScore(precision=precision, recall=recall, f1=f1)


def split_sentences(text: str) -> list[str]:
    """Split on sentence-final punctuation followed by whitespace.

    The mark stays with the sentence it ends; each sentence is stripped of
    surrounding whitespace, and empty ones are dropped. One scan finds every
    boundary: the split captures each mark, and it is re-attached after.
    """
    pieces = _SENTENCE_BOUNDARY.split(text)
    pieces.append("")  # the last piece ends with no mark
    parts = map(str.strip, map(str.__add__, pieces[::2], pieces[1::2]))
    return [part for part in parts if part]


def mask_schedule(tokens: Sequence[str]) -> list[int]:
    """Deterministic mask positions: every MASK_STRIDE-th token of enough length."""
    return [i for i, token in enumerate(tokens)
            if i % MASK_STRIDE == 0 and len(token) >= MIN_MASK_TOKEN_CHARS]


def blanc_help(document: str, summary: str, backend: Backend) -> BlancScore:
    """Reconstruction-accuracy gain from prefixing each sentence with the summary.

    value = mean over document sentences of
        fill_accuracy(summary ++ sentence) - fill_accuracy(filler ++ sentence)
    where the filler repeats a fixed neutral token, length-matched to the
    summary. Sentences with no maskable token are skipped; if none remain the
    score is 0 with zero masked tokens. Two `map` requests serve a pair; a
    per-pair failure raises the error a loop asking one op at a time meets
    first, and a fill accuracy outside [0, 1] then raises a `BackendError`.
    """
    sentences = split_sentences(document)
    summary_tokens, *sentence_tokens = backend.map("tokenize",
                                                   [(text,) for text in (summary, *sentences)])
    if isinstance(summary_tokens, Exception):
        raise summary_tokens
    if not summary_tokens:
        raise DomainError("summary is empty")
    if not sentences:
        raise DomainError("document does not split into sentences")
    filler = " ".join([FILLER_TOKEN] * len(summary_tokens))
    masked: list[tuple[str, list[int]]] = []
    for sentence, tokens in zip(sentences, sentence_tokens):
        if isinstance(tokens, Exception):
            break
        if positions := mask_schedule(tokens):
            masked.append((sentence, positions))
    fills = backend.map("masked_fill_accuracy", [(prefix, sentence, positions)
                        for sentence, positions in masked for prefix in (summary, filler)])
    for outcome in (*fills, *sentence_tokens):
        if isinstance(outcome, Exception):
            raise outcome
    if not all(0.0 <= fill <= 1.0 for fill in fills):
        raise BackendError("masked fill accuracies must lie in [0, 1]")
    if not masked:
        return BlancScore(value=0.0, n_sentences=len(sentences), n_masked_tokens=0)
    gains = [with_summary - with_filler
             for with_summary, with_filler in zip(fills[::2], fills[1::2])]
    return BlancScore(value=float(np.mean(gains)), n_sentences=len(sentences),
                      n_masked_tokens=sum(len(positions) for _, positions in masked))


class EvalReport:
    """Per-pair and aggregate metric values for a set of generated summaries."""

    def __init__(self, corpus_name: str, metrics: Sequence[str]):
        self.corpus_name = corpus_name
        self.metrics = list(metrics)
        self.per_pair: dict[str, dict[str, float]] = {m: {} for m in self.metrics}
        self.failures: dict[str, dict[str, str]] = {m: {} for m in self.metrics}

    def add(self, metric: str, pair_id: str, value: float) -> None:
        self.per_pair[metric][pair_id] = value

    def add_failure(self, metric: str, pair_id: str, reason: str) -> None:
        self.failures[metric][pair_id] = reason

    def n(self, metric: str) -> int:
        return len(self.per_pair[metric])

    def mean(self, metric: str) -> float:
        values = self.per_pair[metric]
        if not values:
            raise DomainError(f"no values for metric {metric!r}")
        ordered = [values[pid] for pid in sorted(values)]
        return float(np.mean(np.asarray(ordered, dtype=np.float64)))

    def headline(self, metric: str) -> float:
        """Aggregate number as conventionally reported (bigram F1 scaled x100)."""
        mean = self.mean(metric)
        return mean * 100.0 if metric == "rouge2" else mean

    def to_csv(self, path: str | Path) -> None:
        def rows() -> Iterator[list]:
            yield ["meta", "", "corpus_name", "", "", "", self.corpus_name]
            for metric in self.metrics:
                for pair_id in sorted(self.per_pair[metric]):
                    yield ["pair", pair_id, metric, self.per_pair[metric][pair_id], "", "", ""]
                for pair_id in sorted(self.failures[metric]):
                    yield ["failure", pair_id, metric, "", "", "",
                           self.failures[metric][pair_id]]
            for metric in self.metrics:
                if self.per_pair[metric]:
                    yield ["aggregate", "", metric, self.mean(metric), self.n(metric),
                           self.headline(metric), ""]
                else:
                    yield ["aggregate", "", metric, "", 0, "", "no values"]

        write_csv(path, _REPORT_COLUMNS, rows())

    @classmethod
    def from_csv(cls, path: str | Path) -> "EvalReport":
        """Read a report `to_csv` wrote, header and all (`records.read_csv`). A
        malformed row or an unknown record kind is a `ParseError`, a second pair
        or failure row for a (metric, pair id) an `IntegrityError`, and a value
        that is not finite a `DomainError`; each names `path:line`."""
        meta: dict[str, str] = {}
        per_pair: dict[str, dict[str, float]] = {}
        failures: dict[str, dict[str, str]] = {}

        def consume(row: list[str]) -> None:
            record, pair_id, metric, value, _, _, note = row
            if record == "meta":
                meta[metric] = note
                return
            if record not in ("pair", "failure", "aggregate"):
                raise ValueError(f"unknown record kind {record!r}")
            if metric not in per_pair:
                per_pair[metric], failures[metric] = {}, {}
            values, reasons = per_pair[metric], failures[metric]
            if record == "aggregate":
                return
            if pair_id in values or pair_id in reasons:
                raise IntegrityError(f"a second row for pair {pair_id!r}, metric {metric!r}")
            if record == "failure":
                reasons[pair_id] = note
                return
            number = float(value)
            if not math.isfinite(number):
                raise DomainError(f"value {value!r} for pair {pair_id!r}, metric {metric!r} "
                                  f"is not finite")
            values[pair_id] = number

        read_csv(path, _REPORT_COLUMNS, consume)
        report = cls(meta.get("corpus_name", ""), list(per_pair))
        report.per_pair, report.failures = per_pair, failures
        return report


def evaluate_outputs(generated: Mapping[str, str], corpus: Corpus,
                     backend: Backend | None = None,
                     manifest: FilterManifest | None = None,
                     metrics: Iterable[str] = ALL_METRICS) -> EvalReport:
    """Evaluate generated summaries over the corpus test split.

    The reference-based bigram metric is restricted to manifest-kept test
    pairs when a manifest is supplied (misleading references would otherwise
    contaminate it); reference-free metrics always cover the full test split,
    so per-metric sample counts can legitimately differ. The reference-free
    metrics are scored in chunks (`scorers.score_texts`). An unknown or
    repeated metric is a `ConfigurationError`, raised before any backend request.
    """
    metric_list = list(metrics)
    unknown = [m for m in metric_list if m not in ALL_METRICS]
    if unknown:
        raise ConfigurationError(f"unknown metrics {unknown}; available: {list(ALL_METRICS)}")
    if len(set(metric_list)) != len(metric_list):
        raise ConfigurationError(f"metrics repeat: {metric_list}")
    needs_backend = [m for m in metric_list if m in REFERENCE_FREE_METRICS]
    if needs_backend and backend is None:
        raise DomainError(f"metrics {needs_backend} require a backend")
    test_pairs = corpus.split_pairs("test")
    if not test_pairs:
        raise DomainError(f"corpus {corpus.name!r} has no test pairs")
    missing = [p.id for p in test_pairs if p.id not in generated]
    if missing:
        raise CoverageError("generated summaries missing for test pairs", missing)

    rouge_pairs = test_pairs
    if manifest is not None:
        if manifest.corpus_name != corpus.name:
            raise IntegrityError(
                f"manifest is for corpus {manifest.corpus_name!r}, got {corpus.name!r}"
            )
        kept = manifest.kept_id_set()
        rouge_pairs = tuple(p for p in test_pairs if p.id in kept)
        if not rouge_pairs:
            raise DomainError("manifest keeps no test pairs; bigram metric undefined")

    report = EvalReport(corpus.name, metric_list)
    if "rouge2" in metric_list:
        for pair in rouge_pairs:
            report.add("rouge2", pair.id, rouge2(generated[pair.id], pair.summary).f1)
    scored = score_texts([((pair.document, generated[pair.id]), needs_backend)
                          for pair in test_pairs], backend)
    for pair, (_, outcomes) in zip(test_pairs, scored):
        for metric, value in outcomes.items():
            if isinstance(value, Exception):
                report.add_failure(metric, pair.id, failure_reason(value))
            else:
                report.add(metric, pair.id, value)
    return report
