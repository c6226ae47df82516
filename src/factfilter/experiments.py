"""Experiment orchestration: distribution reports, threshold sweeps, paired comparisons.

Training lives behind an "eval hook" boundary: the bundled mock-train proxy
evaluates a selection's reference summaries directly (no learning), so sweep
scaffolding runs at desk scale; a real fine-tuning harness plugs in through
the same callable signature.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable, Iterator, Mapping, Sequence

import numpy as np

from .backend import Backend
from .corpus import Corpus, Pair
from .errors import (
    ConfigurationError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    IntegrityError,
    failure_reason,
)
from .filtration import intersect_filter, percentile_keep_set, random_selection
from .metrics import REFERENCE_FREE_METRICS, EvalReport
from .records import write_csv
from .scorers import SCORERS, ScoreTable, score_texts
from .stats import WilcoxonResult, wilcoxon_signed_rank

logger = logging.getLogger(__name__)

SIGNIFICANCE_LEVEL = 0.05
DEFAULT_THRESHOLDS = (0.1, 0.25, 0.4, 0.55)
DEFAULT_HISTOGRAM_BINS = 10
# Corpus pairs, spread evenly over it, whose reused cells `table_eval_hook`
# scores again when it is built.
SPOT_CHECK_PAIRS = 4

EvalHook = Callable[[Corpus], Mapping[str, float]]


@dataclass(frozen=True)
class SweepSpec:
    """Grid of drop fractions and selection strategies for one sweep run.

    Strategies: "combined" (percentile intersection over all scorers),
    "single:<scorer>" (one scorer's percentile cut), "random" (uniform
    baseline of matching size, seeded).
    """

    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    strategies: tuple[str, ...] = ("combined", "random")
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise DomainError("sweep needs at least one threshold")
        if any(not 0.0 < t < 1.0 for t in self.thresholds):
            raise DomainError("thresholds must lie in (0, 1)")
        if any(a >= b for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise DomainError("thresholds must be strictly ascending")
        if len(set(self.strategies)) != len(self.strategies):
            raise ConfigurationError(f"sweep strategies repeat: {list(self.strategies)}")
        for strategy in self.strategies:
            if strategy in ("combined", "random"):
                continue
            if strategy.startswith("single:") and strategy.split(":", 1)[1]:
                continue
            raise ConfigurationError(f"unknown sweep strategy {strategy!r}")

    def check_columns(self, table: ScoreTable) -> None:
        """`ConfigurationError` unless each `single:<scorer>` names a column of `table`."""
        for strategy in self.strategies:
            if strategy.startswith("single:"):
                table.column(strategy.split(":", 1)[1])


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary plus fixed-width histogram bins for one scorer column."""

    scorer: str
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    bins: tuple[tuple[float, float, int], ...]


def distribution_report(table: ScoreTable) -> list[DistributionSummary]:
    """Per-scorer score distributions (linear-interpolation quantiles) with
    `DEFAULT_HISTOGRAM_BINS` equal-width bins."""
    table.ensure_aligned()
    summaries: list[DistributionSummary] = []
    for scorer in table.scorers:
        arr = table.column(scorer).array
        # Adding 0.0 reads -0.0 as 0.0, the one value whose place among equal
        # values would show in a quantile or a bin edge: no summary then
        # depends on the row order.
        arr = arr[~np.isnan(arr)] + 0.0
        if not arr.size:
            raise DomainError(f"scorer column {scorer!r} has no successful scores")
        q = np.quantile(arr, [0.0, 0.25, 0.5, 0.75, 1.0])
        counts, edges = np.histogram(arr, bins=DEFAULT_HISTOGRAM_BINS)
        bins = tuple((float(edges[i]), float(edges[i + 1]), int(counts[i]))
                     for i in range(len(counts)))
        summaries.append(DistributionSummary(
            scorer=scorer, minimum=float(q[0]), q1=float(q[1]), median=float(q[2]),
            q3=float(q[3]), maximum=float(q[4]), bins=bins))
    return summaries


def write_distribution_csv(summaries: Sequence[DistributionSummary],
                           path: str | Path) -> None:
    def rows() -> Iterator[list]:
        for summary in summaries:
            for stat, value in (("min", summary.minimum), ("q1", summary.q1),
                                ("median", summary.median), ("q3", summary.q3),
                                ("max", summary.maximum)):
                yield [summary.scorer, stat, "", "", value]
            for left, right, count in summary.bins:
                yield [summary.scorer, "bin", left, right, count]

    write_csv(path, ["scorer", "stat", "bin_left", "bin_right", "value"], rows())


@dataclass(frozen=True)
class SweepRow:
    strategy: str
    threshold: float
    n_selected: int
    ratio: float
    status: str  # "ok" | "failed"
    metrics: Mapping[str, float] = field(default_factory=dict)
    note: str = ""


def mock_train_eval_hook(backend: Backend,
                         metrics: Sequence[str] = REFERENCE_FREE_METRICS) -> EvalHook:
    """No-learning proxy: metric means over the selection's reference summaries.

    Stands in for a fine-tune-then-evaluate harness so sweeps run without a
    GPU; a pair that fails a metric with a per-pair error is excluded from that
    metric's mean (and logged at debug level); any other error propagates.

    For a backend whose descriptor is deterministic, the returned hook keeps
    each (metric, pair) outcome, a value or a per-pair failure, for its own
    lifetime, keyed on the pair's document and summary text, so the cells of a
    sweep compute a shared pair once and log its exclusion once; a text that
    occurs twice in one selection is computed once too. The means are taken
    over the same floats in the same order as without reuse. A
    non-deterministic backend is asked again on every call, for every pair.
    The pairs a call computes are scored in chunks (`scorers.score_texts`),
    each outcome the one the pair gets alone.
    """
    unknown = [m for m in metrics if m not in REFERENCE_FREE_METRICS]
    if unknown:
        raise ConfigurationError(f"mock-train hook cannot compute {unknown}")
    # metric -> (document, summary) -> value, or the failure reason of a pair
    # left out of the mean.
    memo: dict[str, dict[Hashable, float | str]] | None = (
        {metric: {} for metric in metrics} if backend.descriptor.deterministic else None)

    def hook(selection: Corpus) -> dict[str, float]:
        pairs = list(selection)
        if memo is None:  # every pair of this call is computed, and forgotten
            seen: dict[str, dict[Hashable, float | str]] = {m: {} for m in metrics}
            keys: Sequence[Hashable] = range(len(pairs))
        else:
            seen = memo
            keys = [(pair.document, pair.summary) for pair in pairs]
        todo: dict[Hashable, tuple[Pair, list[str]]] = {}
        for key, pair in zip(keys, pairs):
            if key not in todo and (needed := [m for m in metrics if key not in seen[m]]):
                todo[key] = (pair, needed)
        scored = score_texts(
            [((pair.document, pair.summary), needed) for pair, needed in todo.values()],
            backend)
        for (key, (pair, _)), (_, outcome) in zip(todo.items(), scored):
            for metric, result in outcome.items():
                if isinstance(result, Exception):
                    result = failure_reason(result)
                    logger.debug("pair %s excluded from the %s mean: %s",
                                 pair.id, metric, result)
                seen[metric][key] = result
        out: dict[str, float] = {}
        for metric in metrics:
            values = [v for key in keys if not isinstance(v := seen[metric][key], str)]
            if values:
                out[metric] = float(np.mean(np.asarray(values, dtype=np.float64)))
        return out

    return hook


def table_eval_hook(corpus: Corpus, table: ScoreTable, backend: Backend) -> EvalHook:
    """`mock_train_eval_hook(backend)`'s means, with each scorer metric whose
    `table` column stands in for the backend read from the table instead.

    A column stands in when the backend's descriptor is deterministic, the
    column's provenance is the backend's `(name, version)` and it has a cell
    for every pair of `corpus`. A reused mean is taken over the selection's
    table values in selection order; a sentinel is left out of it and logged
    at debug level once per (pair, metric). Every other metric goes to
    `mock_train_eval_hook`. Score rows are keyed by pair id alone, so the
    reused cells of `SPOT_CHECK_PAIRS` pairs are scored again here: any
    difference in value bits or failure reason, as from a table scored on
    other text under the same ids, raises `IntegrityError`.
    """
    d = backend.descriptor
    owner = {"name": d.name, "version": d.version}
    reused = [m for m in SCORERS if d.deterministic and table.backend_descriptors().get(m)
              == owner and all(pair.id in table.column(m) for pair in corpus)]
    n = min(SPOT_CHECK_PAIRS, len(corpus))
    sample = [corpus.pairs[(2 * k + 1) * len(corpus) // (2 * n)] for k in range(n)]
    checks = score_texts([((p.document, p.summary), reused) for p in sample], backend)
    for pair, (_, outcome) in zip(sample, checks):
        for metric, result in outcome.items():
            now = failure_reason(result) if isinstance(result, Exception) else float(result)
            # A float's repr tells every bit; a table cell is a float or a reason.
            if repr(now) != repr(stored := table.column(metric)[pair.id]):
                raise IntegrityError(
                    f"pair {pair.id!r} scores {metric} {now!r}, but the scores file holds "
                    f"{stored!r}: were those scores taken on other text?")
    computed = mock_train_eval_hook(backend, [m for m in REFERENCE_FREE_METRICS
                                              if m not in reused])
    logged: set[tuple[str, str]] = set()

    def hook(selection: Corpus) -> dict[str, float]:
        means = dict(computed(selection))
        for metric in reused:
            column = table.column(metric)
            cells = [column[pair.id] for pair in selection]
            for pair, cell in zip(selection, cells):
                if type(cell) is str and (pair.id, metric) not in logged:
                    logged.add((pair.id, metric))
                    logger.debug("pair %s excluded from the %s mean: %s",
                                 pair.id, metric, cell)
            values = [cell for cell in cells if type(cell) is float]
            if values:
                means[metric] = float(np.mean(values))
        return means

    return hook


def _select(strategy: str, threshold: float, corpus: Corpus, table: ScoreTable,
            seed: int) -> set[str]:
    if strategy == "combined":
        return intersect_filter(table, threshold).kept_id_set()
    if strategy == "random":
        size = math.ceil((1.0 - threshold) * len(corpus))
        return random_selection(corpus, size, seed)
    scorer = strategy.split(":", 1)[1]
    return percentile_keep_set(table.values(scorer), threshold)


def run_sweep(corpus: Corpus, table: ScoreTable, spec: SweepSpec,
              eval_hook: EvalHook) -> list[SweepRow]:
    """One row per (strategy, threshold): selection size, ratio, hook metrics.

    A threshold that yields an empty selection becomes a failed row and the
    sweep continues. Rows are ordered by (strategy, threshold) regardless of
    execution order; random cells derive their seed from (spec.seed,
    threshold index) so each cell is independently reproducible. Every
    `single:<scorer>` must name a column of `table` (`spec.check_columns`,
    before the first cell).
    """
    spec.check_columns(table)
    rows: list[SweepRow] = []
    for strategy in sorted(spec.strategies):
        for index, threshold in enumerate(spec.thresholds):
            cell_seed = spec.seed * 1_000_003 + index
            try:
                kept = _select(strategy, threshold, corpus, table, cell_seed)
                selection = corpus.subset(kept)
                metrics = dict(eval_hook(selection))
                rows.append(SweepRow(
                    strategy=strategy, threshold=threshold, n_selected=len(kept),
                    ratio=len(kept) / len(corpus), status="ok", metrics=metrics))
            except DomainError as exc:
                logger.warning("sweep cell (%s, %s) failed: %s", strategy, threshold, exc)
                rows.append(SweepRow(
                    strategy=strategy, threshold=threshold, n_selected=0, ratio=0.0,
                    status="failed", metrics={}, note=str(exc)))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path: str | Path) -> None:
    metric_names = sorted({name for row in rows for name in row.metrics})

    write_csv(path, ["strategy", "threshold", "n_selected", "ratio", "status"]
              + metric_names + ["note"],
              ([row.strategy, row.threshold, row.n_selected, row.ratio, row.status,
                *map(row.metrics.get, metric_names), row.note] for row in rows))


@dataclass(frozen=True)
class ComparisonRow:
    metric: str
    mean_a: float
    mean_b: float
    n: int
    wilcoxon: WilcoxonResult | None
    winner: str  # "a" | "b" | "tie"
    note: str = ""


class ComparisonReport:
    """Paired significance comparison of two evaluation reports."""

    def __init__(self, rows: Sequence[ComparisonRow]):
        self.rows = list(rows)

    def to_csv(self, path: str | Path) -> None:
        def cells(row: ComparisonRow) -> list:
            test = row.wilcoxon  # None leaves its two cells empty
            return [row.metric, row.mean_a, row.mean_b, row.n, test and test.w_statistic,
                    test and test.p_value, row.winner, row.note]

        write_csv(path, ["metric", "mean_a", "mean_b", "n", "w_statistic", "p_value",
                         "winner", "note"], map(cells, self.rows))


def compare_selections(report_a: EvalReport, report_b: EvalReport) -> ComparisonReport:
    """Paired Wilcoxon per metric; the winner needs p < SIGNIFICANCE_LEVEL,
    otherwise tie.

    Both reports must cover identical metrics and identical pair ids per
    metric. Identical values produce a degenerate signed-rank test, reported
    as a tie with an annotation rather than a p-value.
    """
    if set(report_a.metrics) != set(report_b.metrics):
        only_a = sorted(set(report_a.metrics) - set(report_b.metrics))
        only_b = sorted(set(report_b.metrics) - set(report_a.metrics))
        raise CoverageError(f"metric sets differ (a-only {only_a}, b-only {only_b})")
    rows: list[ComparisonRow] = []
    for metric in report_a.metrics:
        ids_a = set(report_a.per_pair[metric])
        ids_b = set(report_b.per_pair[metric])
        if ids_a != ids_b:
            raise CoverageError(f"pair id sets differ for metric {metric!r}",
                                sorted(ids_a ^ ids_b))
        ids = sorted(ids_a)
        if not ids:
            raise DomainError(f"no per-pair values for metric {metric!r}")
        a = np.array([report_a.per_pair[metric][pid] for pid in ids], dtype=np.float64)
        b = np.array([report_b.per_pair[metric][pid] for pid in ids], dtype=np.float64)
        mean_a = float(np.mean(a))
        mean_b = float(np.mean(b))
        try:
            result = wilcoxon_signed_rank(a, b)
        except DegenerateInputError:
            rows.append(ComparisonRow(metric=metric, mean_a=mean_a, mean_b=mean_b,
                                      n=len(ids), wilcoxon=None, winner="tie",
                                      note="identical per-pair values"))
            continue
        if result.p_value >= SIGNIFICANCE_LEVEL or mean_a == mean_b:
            winner = "tie"
        else:
            winner = "a" if mean_a > mean_b else "b"
        rows.append(ComparisonRow(metric=metric, mean_a=mean_a, mean_b=mean_b,
                                  n=len(ids), wilcoxon=result, winner=winner))
    return ComparisonReport(rows)
