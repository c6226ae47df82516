"""Scorer validation against human factuality annotations.

Annotations carry a per-summary factuality judgment plus binary flags for
three error categories (single-frame participant errors, cross-segment
discourse errors, unverifiable content). Validation computes partial Pearson
correlations between scorer outputs and the human judgments, controlling for
the generating system, sliced by source dataset. Flip analysis measures a
scorer's sensitivity to one category by negating that category's flags and
observing the correlation drop.

Annotation JSONL schema (field names remappable via a column map):

    {"summary_id": str, "dataset": "cnndm"|"xsum", "system": str,
     "factuality": float, "errors": {"semantic_frame": bool,
     "discourse": bool, "content_verifiability": bool}}
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import CoverageError, DomainError, IntegrityError
from .records import read_jsonl, write_csv
from .stats import PartialCorrelationResult, partial_pearson, partial_pearsons

CATEGORIES = ("semantic_frame", "discourse", "content_verifiability")
DATASETS = ("cnndm", "xsum")

_DEFAULT_COLUMNS = {
    "summary_id": "summary_id",
    "dataset": "dataset",
    "system": "system",
    "factuality": "factuality",
    "errors": "errors",
}

COVERAGE_FLOOR = 0.95


@dataclass(frozen=True)
class FactualityAnnotation:
    """Human judgment of one summary plus per-error-category flags."""

    summary_id: str
    source_dataset: str
    system_id: str
    factuality: float
    category_flags: Mapping[str, bool]

    def __post_init__(self) -> None:
        if self.source_dataset not in DATASETS:
            raise DomainError(
                f"annotation {self.summary_id!r}: dataset {self.source_dataset!r} "
                f"not one of {DATASETS}"
            )
        if not 0.0 <= self.factuality <= 1.0:
            raise DomainError(
                f"annotation {self.summary_id!r}: factuality {self.factuality} outside [0, 1]"
            )
        if set(self.category_flags) != set(CATEGORIES):
            raise DomainError(
                f"annotation {self.summary_id!r}: flags must cover exactly {CATEGORIES}"
            )
        if not any(self.category_flags.values()) and self.factuality != 1.0:
            raise IntegrityError(
                f"annotation {self.summary_id!r}: no error flagged but factuality "
                f"{self.factuality} != 1"
            )


def load_annotations(path: str | Path,
                     column_map: Mapping[str, str] | None = None) -> list[FactualityAnnotation]:
    """Load annotations from JSONL, validating the no-flags-implies-factual rule.

    `column_map` remaps our canonical field names onto the file's column
    names, so externally published annotation releases can be adapted
    without rewriting them. The summary id, dataset and system must be JSON
    strings, flags JSON booleans and factuality a JSON number. Each malformed
    record, out-of-domain value or duplicate summary id names its
    `path:line`; records violating no-flags-implies-factual are collected and
    reported together.
    """
    columns = dict(_DEFAULT_COLUMNS)
    if column_map:
        columns.update(column_map)
    annotations: list[FactualityAnnotation] = []
    seen: set[str] = set()
    bad_ids: list[str] = []

    def consume(record: Mapping[str, Any]) -> None:
        flags_raw = record[columns["errors"]]
        flags = {cat: flags_raw[cat] for cat in CATEGORIES}
        for cat, flag in flags.items():
            if not isinstance(flag, bool):
                raise TypeError(f"flag {cat!r} must be true or false, got {flag!r}")
        factuality = record[columns["factuality"]]
        if type(factuality) not in (float, int):  # rejects bool, an int subclass
            raise TypeError(f"factuality must be a number, got {factuality!r}")
        texts = {key: record[columns[key]] for key in ("summary_id", "dataset", "system")}
        for key, value in texts.items():
            if not isinstance(value, str):
                raise TypeError(f"{columns[key]!r} must be a string, got {value!r}")
        summary_id, dataset, system = texts.values()
        if summary_id in seen:
            raise IntegrityError(f"duplicate annotation for summary {summary_id!r}")
        seen.add(summary_id)
        try:
            annotations.append(FactualityAnnotation(
                summary_id=summary_id,
                source_dataset=dataset,
                system_id=system,
                factuality=float(factuality),
                category_flags=flags,
            ))
        except IntegrityError:
            bad_ids.append(summary_id)

    read_jsonl(path, consume)
    if bad_ids:
        raise IntegrityError(
            f"{len(bad_ids)} annotations violate no-flags-implies-factual: "
            f"{sorted(bad_ids)[:10]}"
        )
    return annotations


def _system_indicators(systems: np.ndarray) -> np.ndarray:
    """One indicator column per generating system in sorted order, first
    level dropped; `systems` holds each row's system (its name or a code
    that sorts as the names do)."""
    levels, codes = np.unique(systems, return_inverse=True)
    return (codes[:, None] == np.arange(1, len(levels))).astype(np.float64)


class _Frame:
    """Annotations as aligned arrays, one row per annotation in order: ids,
    dataset names, system codes (in sorted system order), factuality, and
    the flags of `CATEGORIES` as columns."""

    def __init__(self, annotations: Sequence[FactualityAnnotation]):
        self.ids = [a.summary_id for a in annotations]
        self.datasets = np.array([a.source_dataset for a in annotations], dtype=object)
        self.systems = np.unique(np.array([a.system_id for a in annotations], dtype=object),
                                 return_inverse=True)[1]
        self.factuality = np.array([a.factuality for a in annotations], dtype=np.float64)
        self.flags = np.array([[a.category_flags[c] for c in CATEGORIES] for a in annotations],
                              dtype=bool).reshape(-1, len(CATEGORIES))

    def scores(self, scores: Mapping[str, float]) -> tuple[np.ndarray, np.ndarray]:
        """Each annotation's score (0.0 where it has none) and whether it has one."""
        scored = np.array([sid in scores for sid in self.ids], dtype=bool)
        x = np.array([scores[sid] if ok else 0.0 for sid, ok in zip(self.ids, scored)],
                     dtype=np.float64)
        return x, scored

    def covered(self, scored: np.ndarray, dataset: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the `dataset` slice (None: every row) that have a score,
        and their system indicators. An empty slice is a `DomainError`, and
        score coverage below `COVERAGE_FLOOR` a `CoverageError`."""
        in_slice = np.ones(len(self.ids), dtype=bool) if dataset is None \
            else self.datasets == dataset
        n = int(in_slice.sum())
        if not n:
            raise DomainError(f"no annotations in slice {dataset!r}")
        missing = [self.ids[row] for row in np.flatnonzero(in_slice & ~scored)]
        coverage = 1.0 - len(missing) / n
        if coverage < COVERAGE_FLOOR:
            raise CoverageError(
                f"score coverage {coverage:.1%} below {COVERAGE_FLOOR:.0%} "
                f"for slice {dataset!r}", missing)
        rows = np.flatnonzero(in_slice & scored)
        return rows, _system_indicators(self.systems[rows])


def validate_scorer(scores: Mapping[str, float],
                    annotations: Sequence[FactualityAnnotation],
                    dataset: str | None = None) -> PartialCorrelationResult:
    """Partial correlation between scorer output and human factuality, with
    one indicator covariate per generating system.

    `dataset` restricts to one source dataset (None pools all). Requires
    score coverage of at least 95% of the slice; covered annotations missing
    a score are excluded pairwise.
    """
    frame = _Frame(annotations)
    x, scored = frame.scores(scores)
    rows, z = frame.covered(scored, dataset)
    return partial_pearson(x[rows], frame.factuality[rows], z)


def validate_slices(scores_by_scorer: Iterable[tuple[str, Mapping[str, float]]],
                    annotations: Sequence[FactualityAnnotation],
                    ) -> Iterator[tuple[str, str | None, PartialCorrelationResult]]:
    """`validate_scorer` for each `(scorer, scores)` in turn, over each source
    dataset present in `annotations` and then, when there are several, over
    all of them pooled (None)."""
    frame = _Frame(annotations)
    present = sorted(set(frame.datasets))
    slices: list[str | None] = [*present, None] if len(present) > 1 else list(present)
    for scorer, scores in scores_by_scorer:
        x, scored = frame.scores(scores)
        for dataset in slices:
            rows, z = frame.covered(scored, dataset)
            yield scorer, dataset, partial_pearson(x[rows], frame.factuality[rows], z)


def _flipped_factuality(flags: np.ndarray, factuality: np.ndarray,
                        category: str) -> np.ndarray:
    """Each judgment recomposed after negating `category`'s flag: 1 when no
    category remains flagged; the existing judgment when an originally-set
    flag in another category survives the flip; 0 when the flipped category
    is the only flag left."""
    k = CATEGORIES.index(category)
    others = np.delete(flags, k, axis=1).any(axis=1)
    return np.where(others, factuality, np.where(flags[:, k], 1.0, 0.0))


def flip_labels(annotations: Sequence[FactualityAnnotation],
                category: str) -> list[FactualityAnnotation]:
    """Negate one category's flags and recompose factuality
    (`_flipped_factuality`). The flag flip is an involution; the recomposed
    judgment is not.
    """
    if category not in CATEGORIES:
        raise DomainError(f"unknown error category {category!r}")
    frame = _Frame(annotations)
    factuality = _flipped_factuality(frame.flags, frame.factuality, category)
    return [replace(a, factuality=float(value), category_flags={
                **a.category_flags, category: not a.category_flags[category]})
            for a, value in zip(annotations, factuality)]


@dataclass(frozen=True)
class FlipRow:
    scorer: str
    dataset: str
    category: str
    r_original: float
    r_flipped: float

    @property
    def delta(self) -> float:
        return self.r_original - self.r_flipped


class FlipReport:
    """Correlation deltas per (scorer, dataset, category); CSV-exportable."""

    def __init__(self, rows: Sequence[FlipRow]):
        self.rows = list(rows)

    def delta(self, scorer: str, dataset: str, category: str) -> float:
        for row in self.rows:
            if (row.scorer, row.dataset, row.category) == (scorer, dataset, category):
                return row.delta
        raise KeyError((scorer, dataset, category))

    def to_csv(self, path: str | Path) -> None:
        write_csv(path, ["scorer", "dataset", "category", "r_original", "r_flipped", "delta"],
                  ([row.scorer, row.dataset, row.category, repr(float(row.r_original)),
                    repr(float(row.r_flipped)), repr(float(row.delta))]
                   for row in self.rows))


def flip_analysis(scores_by_scorer: Mapping[str, Mapping[str, float]],
                  annotations: Sequence[FactualityAnnotation]) -> FlipReport:
    """delta_r = r_original - r_flipped per (scorer, dataset, category), over
    each source dataset present in `annotations`.

    Original and flipped correlations are computed over identical annotation
    rows (flipping changes only the judgments), so the delta isolates the
    label change.
    """
    frame = _Frame(annotations)
    flipped = {category: _flipped_factuality(frame.flags, frame.factuality, category)
               for category in CATEGORIES}
    rows: list[FlipRow] = []
    for scorer in sorted(scores_by_scorer):
        x, scored = frame.scores(scores_by_scorer[scorer])
        for dataset in sorted(set(frame.datasets)):
            covered, z = frame.covered(scored, dataset)
            original, *flips = partial_pearsons(
                x[covered], [frame.factuality[covered],
                             *(flipped[category][covered] for category in CATEGORIES)], z)
            rows += [FlipRow(scorer=scorer, dataset=dataset, category=category,
                             r_original=original.r, r_flipped=flip.r)
                     for category, flip in zip(CATEGORIES, flips)]
    return FlipReport(rows)
