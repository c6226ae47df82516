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
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import CoverageError, DomainError, IntegrityError
from .records import read_jsonl, write_csv
from .stats import PartialCorrelationResult, partial_pearson

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


def _system_indicators(annotations: Sequence[FactualityAnnotation]) -> np.ndarray:
    """One indicator column per generating system, first level dropped."""
    systems = sorted({a.system_id for a in annotations})
    columns = {system: col for col, system in enumerate(systems[1:])}
    z = np.zeros((len(annotations), len(columns)), dtype=np.float64)
    for row, annotation in enumerate(annotations):
        col = columns.get(annotation.system_id)
        if col is not None:
            z[row, col] = 1.0
    return z


def validate_scorer(scores: Mapping[str, float],
                    annotations: Sequence[FactualityAnnotation],
                    dataset: str | None = None) -> PartialCorrelationResult:
    """Partial correlation between scorer output and human factuality, with
    one indicator covariate per generating system.

    `dataset` restricts to one source dataset (None pools all). Requires
    score coverage of at least 95% of the slice; covered annotations missing
    a score are excluded pairwise.
    """
    sliced = [a for a in annotations
              if dataset is None or a.source_dataset == dataset]
    if not sliced:
        raise DomainError(f"no annotations in slice {dataset!r}")
    missing = [a.summary_id for a in sliced if a.summary_id not in scores]
    coverage = 1.0 - len(missing) / len(sliced)
    if coverage < COVERAGE_FLOOR:
        raise CoverageError(
            f"score coverage {coverage:.1%} below {COVERAGE_FLOOR:.0%} "
            f"for slice {dataset!r}", missing)
    covered = [a for a in sliced if a.summary_id in scores]
    x = np.array([scores[a.summary_id] for a in covered], dtype=np.float64)
    y = np.array([a.factuality for a in covered], dtype=np.float64)
    return partial_pearson(x, y, _system_indicators(covered))


def flip_labels(annotations: Sequence[FactualityAnnotation],
                category: str) -> list[FactualityAnnotation]:
    """Negate one category's flags and recompose factuality.

    Recomposition: 1 when no category remains flagged; the annotation's
    existing judgment when any originally-set flag in another category
    survives the flip; 0 when the flipped category is the only flag left.
    The flag flip is an involution; the recomposed judgment is not.
    """
    if category not in CATEGORIES:
        raise DomainError(f"unknown error category {category!r}")
    flipped: list[FactualityAnnotation] = []
    for annotation in annotations:
        flags = dict(annotation.category_flags)
        flags[category] = not flags[category]
        if not any(flags.values()):
            factuality = 1.0
        elif any(annotation.category_flags[c] for c in CATEGORIES if c != category):
            factuality = annotation.factuality
        else:
            factuality = 0.0
        flipped.append(replace(annotation, category_flags=flags, factuality=factuality))
    return flipped


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
    id sets (flipping never changes ids), so the delta isolates the label
    change.
    """
    datasets = sorted({a.source_dataset for a in annotations})
    # The flipped labels depend on the category alone, not the scorer or slice.
    ids = [a.summary_id for a in annotations]
    flipped_by_category: dict[str, list[FactualityAnnotation]] = {}
    for category in CATEGORIES:
        flipped = flip_labels(annotations, category)
        if [a.summary_id for a in flipped] != ids:
            raise IntegrityError(f"flipping {category!r} changed the annotation id order")
        flipped_by_category[category] = flipped
    rows: list[FlipRow] = []
    for scorer in sorted(scores_by_scorer):
        scores = scores_by_scorer[scorer]
        for dataset in datasets:
            r_original = validate_scorer(scores, annotations, dataset).r
            for category in CATEGORIES:
                r_flipped = validate_scorer(scores, flipped_by_category[category], dataset).r
                rows.append(FlipRow(scorer=scorer, dataset=dataset, category=category,
                                    r_original=r_original, r_flipped=r_flipped))
    return FlipReport(rows)
