"""The one-pair pipeline: what every chunked, batched or remote path must give
each pair alone, from the document clip to `score_corpus`'s cells, the
reference-free rows of `evaluate_outputs` and the sweep hook's means.

It asks a backend for one single op at a time, never through `Backend.map`,
and takes from `factfilter.scorers` and `factfilter.metrics` only BLANC's
definitions, so a fault in the chunk code cannot hide in it too
(`test_oracle.py` checks both).

`keep_set` and `intersect` are the filtration oracle: the percentile cut and
the intersection as sorts and set algebra over dicts (`test_filtration.py`).
`flip_delta` reads one row of a flip analysis by its key.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from factfilter.backend import Backend
from factfilter.errors import (
    PER_PAIR_ERRORS,
    BackendError,
    DomainError,
    EmptySummaryError,
    NoArcsError,
    failure_reason,
)
from factfilter.metrics import FILLER_TOKEN, BlancScore, mask_schedule, split_sentences


def prepare(document: str, summary: str, backend: Backend) -> tuple[str, bool]:
    """The document clipped to the backend's token limit, and whether it was.

    Raises the document's tokenize error, then the summary's, then
    `EmptySummaryError`.
    """
    tokens = backend.tokenize(document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    limit = backend.descriptor.max_tokens
    if len(tokens) > limit:
        return " ".join(tokens[:limit]), True
    return document, False


def _unit(row: np.ndarray) -> np.ndarray:
    return row / np.sqrt(np.sum(row * row))


def greedy(document: str, summary: str, backend: Backend) -> float:
    """Mean over summary rows of the best `1 - |u - v|^2 / 2` to any document
    row, on unit rows, one summary row at a time."""
    doc = backend.embed_tokens(document).vectors
    summ = backend.embed_tokens(summary).vectors
    if doc.shape[1] != summ.shape[1]:
        raise BackendError(f"document embeddings are {doc.shape[1]}-wide, "
                           f"summary embeddings {summ.shape[1]}-wide")
    doc = np.array([_unit(row) for row in doc])
    best = [np.max(1.0 - np.sum((doc - _unit(row)) ** 2, axis=1) / 2.0) for row in summ]
    return float(np.mean(np.clip(best, -1.0, 1.0)))


def condll(document: str, summary: str, backend: Backend) -> float:
    logprobs = np.asarray(backend.conditional_token_logprobs(document, summary),
                          dtype=np.float64)
    if logprobs.size == 0:
        raise EmptySummaryError("backend produced no target token log-probabilities")
    if not np.all(np.isfinite(logprobs)) or np.any(logprobs > 0.0):
        raise BackendError("token log-probabilities must be finite and <= 0")
    return float(np.mean(logprobs))


def dae(document: str, summary: str, backend: Backend) -> float:
    arcs = backend.parse_dependencies(summary)
    if not arcs:
        raise NoArcsError("summary yields no dependency arcs (single token)")
    probs = np.asarray(backend.arc_entailment_probs(document, arcs), dtype=np.float64)
    if probs.shape[0] != len(arcs):
        raise BackendError("entailment output length does not match arc count")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise BackendError("arc entailment probabilities must lie in [0, 1]")
    return float(np.mean(probs))


# Each scorer on a prepared pair: the clipped document and the summary.
SCORERS: dict[str, Callable[[str, str, Backend], float]] = {
    "greedy": greedy, "condll": condll, "dae": dae}
# Each metric's closed value range.
RANGES = {"greedy": (-1.0, 1.0), "condll": (-np.inf, 0.0), "dae": (0.0, 1.0),
          "blanc": (-1.0, 1.0)}


def checked(metric: str, value: float) -> float:
    """`value`; a `DomainError` if it is not finite or out of the metric's range."""
    if not np.isfinite(value):
        raise DomainError(f"score {value} for scorer {metric!r} is not finite")
    low, high = RANGES[metric]
    if not low <= value <= high:
        raise DomainError(f"score {value} outside the valid range for scorer {metric!r}")
    return value


def blanc(document: str, summary: str, backend: Backend) -> BlancScore:
    """BLANC-help on the unclipped document, sentence by sentence."""
    summary_tokens = backend.tokenize(summary)
    if not summary_tokens:
        raise DomainError("summary is empty")
    sentences = split_sentences(document)
    if not sentences:
        raise DomainError("document does not split into sentences")
    filler = " ".join([FILLER_TOKEN] * len(summary_tokens))
    gains = []
    n_masked = 0
    accuracies = []
    for sentence in sentences:
        positions = mask_schedule(backend.tokenize(sentence))
        if not positions:
            continue
        with_summary = backend.masked_fill_accuracy(summary, sentence, positions)
        with_filler = backend.masked_fill_accuracy(filler, sentence, positions)
        gains.append(with_summary - with_filler)
        accuracies += [with_summary, with_filler]
        n_masked += len(positions)
    # Checked once every sentence has been asked, so any tokenize or fill error wins.
    if not all(0.0 <= accuracy <= 1.0 for accuracy in accuracies):
        raise BackendError("masked fill accuracies must lie in [0, 1]")
    return BlancScore(value=float(np.mean(gains)) if gains else 0.0,
                      n_sentences=len(sentences), n_masked_tokens=n_masked)


def value_or_reason(compute: Callable[..., Any], *args: Any) -> Any:
    """`compute(*args)`, or the failure reason of the per-pair error it raises."""
    try:
        return compute(*args)
    except PER_PAIR_ERRORS as exc:
        return failure_reason(exc)


def outcomes(document: str, summary: str, metrics: Iterable[str],
             backend: Backend) -> tuple[dict[str, float | str], bool]:
    """Each metric's value for one pair, or the failure reason that stopped
    it, and whether the document was clipped. The pair is prepared once for
    all its scorer metrics; BLANC reads the raw texts."""
    metrics = list(metrics)
    prepared = value_or_reason(prepare, document, summary, backend) \
        if set(metrics) & SCORERS.keys() else None
    out: dict[str, float | str] = {}
    for metric in metrics:
        if metric == "blanc":
            out[metric] = value_or_reason(
                lambda: checked(metric, blanc(document, summary, backend).value))
        elif isinstance(prepared, str):
            out[metric] = prepared
        else:
            out[metric] = value_or_reason(
                lambda: checked(metric, SCORERS[metric](prepared[0], summary, backend)))
    return out, isinstance(prepared, tuple) and prepared[1]


def score_corpus(corpus: Iterable, scorer_names: Sequence[str],
                 backend: Backend) -> list[tuple]:
    """`score_corpus`'s cells, scorer-major, each as `(pair_id, scorer, value
    or failure reason, truncated)`."""
    scored = [(pair, *outcomes(pair.document, pair.summary, scorer_names, backend))
              for pair in corpus]
    return [(pair.id, scorer, values[scorer],
             truncated and not isinstance(values[scorer], str))
            for scorer in scorer_names for pair, values, truncated in scored]


def as_cells(cells: Iterable) -> list[tuple]:
    """`FactualityScore`s and `ScoreFailure`s in the form `score_corpus` here returns."""
    return [(c.pair_id, c.scorer, c.reason, False) if hasattr(c, "reason")
            else (c.pair_id, c.scorer, c.value, c.truncated) for c in cells]


def evaluate(generated: Mapping[str, str], corpus: Any, metrics: Sequence[str],
             backend: Backend) -> tuple[dict, dict]:
    """`evaluate_outputs`' reference-free `(per_pair, failures)` over the test split."""
    per_pair: dict[str, dict[str, float]] = {metric: {} for metric in metrics}
    failures: dict[str, dict[str, str]] = {metric: {} for metric in metrics}
    for pair in corpus.split_pairs("test"):
        values, _ = outcomes(pair.document, generated[pair.id], metrics, backend)
        for metric, value in values.items():
            (failures if isinstance(value, str) else per_pair)[metric][pair.id] = value
    return per_pair, failures


def hook(selection: Iterable, metrics: Sequence[str], backend: Backend) -> tuple[dict, set]:
    """The sweep hook's means over `selection`, and the `(pair_id, metric,
    reason)` of each pair it leaves out of a mean."""
    values: dict[str, list[float]] = {metric: [] for metric in metrics}
    excluded = set()
    for pair in selection:
        for metric, value in outcomes(pair.document, pair.summary, metrics, backend)[0].items():
            if isinstance(value, str):
                excluded.add((pair.id, metric, value))
            else:
                values[metric].append(value)
    means = {metric: float(np.mean(np.asarray(v, dtype=np.float64)))
             for metric, v in values.items() if v}
    return means, excluded


def keep_set(scores: Mapping[str, float], q: float) -> set[str]:
    """The ids of the ceil((1-q) * n) highest entries, ranked by (score, id)."""
    n = len(scores)
    keep_count = math.ceil((1.0 - q) * n)
    return set(sorted(scores, key=lambda pid: (scores[pid], pid))[n - keep_count:])


def intersect(columns: Mapping[str, Mapping[str, float | str]],
              q: float) -> tuple[tuple[str, ...], dict[str, float], int]:
    """`intersect_filter` over columns of float scores and str sentinels: the
    sorted kept ids, each column's threshold (the score of its lowest-ranked
    kept id) and the population size. The population is the ids every column
    scored; an empty one, or an empty intersection, keeps nothing."""
    scored = {name: {pid: v for pid, v in column.items() if not isinstance(v, str)}
              for name, column in columns.items()}
    population = set.intersection(*(set(column) for column in scored.values()))
    kept = set(population)
    thresholds = {}
    for name, column in scored.items():
        restricted = {pid: column[pid] for pid in population}
        if not restricted:
            break
        keep = keep_set(restricted, q)
        thresholds[name] = restricted[min(keep, key=lambda pid: (restricted[pid], pid))]
        kept &= keep
    return tuple(sorted(kept)), thresholds, len(population)


def flip_delta(report: Any, scorer: str, dataset: str, category: str) -> float:
    """The delta of `report`'s row for (scorer, dataset, category); a
    `KeyError` if it has none."""
    for row in report.rows:
        if (row.scorer, row.dataset, row.category) == (scorer, dataset, category):
            return row.delta
    raise KeyError((scorer, dataset, category))
