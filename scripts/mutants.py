"""The mutation catalogue: faults the test suite must catch, kept as code.

Each entry breaks one spot of the toolkit on purpose: it replaces an exact
old text, which must occur once in its file, by a new text. For each entry
this script copies the tree into a temporary directory (leaving out `.git`,
`BENCH_*.json` and caches), applies the entry there and runs the entry's
whole test files with `pytest -x`. A failing run kills the mutant; a passing
run lets it survive. The checkout itself is never written to.

    python3 scripts/mutants.py            # every entry
    python3 scripts/mutants.py NAME ...   # the named entries

It prints one line per entry and a summary line. It exits 1 if an entry
survived or reached no verdict, and, before running any, if an entry no
longer applies (see `catalogue_problems`). Stdlib only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# Two pytest runs at a time: the catalogue runs in about half the time on two
# cores, and each run holds a little over 100 MB.
_WORKERS = 2
_TIMEOUT_S = 600
_IGNORED = shutil.ignore_patterns(".git", "BENCH_*.json", "__pycache__", ".pytest_cache",
                                  ".hypothesis", ".perfbench_work", ".benchmarks")


@dataclass(frozen=True)
class Mutant:
    """Replace `old` by `new` in `path`; one of the test files `tests` must
    then fail. `source` is the `CHANGES.md` entry, by its opening words, that
    named the mutant or added the check it breaks."""

    name: str
    path: str
    old: str
    new: str
    source: str
    tests: tuple[str, ...]


def _m(name: str, module: str, tests: str, source: str, old: str, new: str) -> Mutant:
    """A `Mutant` of `src/factfilter/<module>.py`; `tests` names test files
    `tests/test_<name>.py`, separated by spaces."""
    return Mutant(name, f"src/factfilter/{module}.py", old, new, source,
                  tuple(f"tests/test_{test}.py" for test in tests.split()))


# The `CHANGES.md` entries the mutants come from, by their opening words.
EMBEDDER = "Batched mock embedder and blocked greedy matcher"
TABLE_READS = "Cheaper score-table reads and one flip per category"
READERS = "One JSONL reader and one CSV writer for every stage"
MEMO = "The sweep's eval hook computes each (pair, metric) once"
COLUMNS = "The score table holds plain columns"
CHUNKS = "Score in bounded chunks"
ARRAYS = "Score at array speed"
ORACLE = "One one-pair oracle for every scoring path"
FLAGS = "One flag mechanism in the CLI"
BLAS = "Greedy at BLAS speed, bit for bit"
REUSE = "The sweep reads greedy, condll and dae from the scores file"
SERVER = "The remote server loads only the backend layer"
COLUMNAR = "A columnar score table"
FOLLOW_UP = "Columnar table follow-up"
CHUNK_MATH = "Score chunks, not pairs"
TOKEN_TABLE = "One token table per embed request"
LOOP = "One scoring loop for every reference-free metric"
MUTANTS = "A committed mutation catalogue"
BLOCKS = "Score files at decode speed"
PROTOCOL_3 = "Remote protocol 3"
LONG_DOCS = "Long documents without repeated per-call work"
LINEAR_CUTS = "Filter and compare without per-value Python loops"
SHARED_INDEX = "One id index per score table"
ROW_GROUPS = "Score in larger chunks; greedy's embeddings bounded by token rows"
RECORDS = "Every file goes through `records`"

CATALOGUE: list[Mutant] = [
    # Scoring: preparation, the chunk scorers, the loop and its failure policy.
    _m("truncate-at-the-limit", "scorers", "oracle", CHUNKS,
       "elif len(doc_tokens) > limit:", "elif len(doc_tokens) >= limit:"),
    _m("summary-tokenized-after-a-failed-document", "scorers", "oracle", CHUNKS,
       "    live = _alive(out)\n    summaries = backend.map(",
       "    live = list(range(len(out)))\n    summaries = backend.map("),
    _m("no-empty-summary-check", "scorers", "oracle", CHUNKS,
       "        elif not summary_tokens:\n"
       '            out[i] = EmptySummaryError("summary tokenizes to nothing")\n',
       ""),
    _m("summaries-embedded-first", "scorers", "oracle", CHUNKS,
       '    out = list(backend.map("embed_tokens", [(pair.document,) for pair in pairs]))\n'
       "    live = _alive(out)\n    ready: dict[int, tuple[np.ndarray, np.ndarray]] = {}\n"
       '    for i, summary in zip(live, backend.map("embed_tokens", [(pairs[i].summary,) for i '
       "in live])):\n",
       '    summaries = backend.map("embed_tokens", [(pair.summary,) for pair in pairs])\n'
       '    out = list(backend.map("embed_tokens", [(pair.document,) for pair in pairs]))\n'
       "    live = _alive(out)\n    ready: dict[int, tuple[np.ndarray, np.ndarray]] = {}\n"
       "    for i, summary in zip(live, [summaries[i] for i in live]):\n"),
    _m("stale-dae-live-list", "scorers", "oracle", CHUNKS,
       "    for i in _alive(out):\n        if not out[i]:\n"
       '            out[i] = NoArcsError("summary yields no dependency arcs (single token)")\n'
       "    live = _alive(out)\n",
       "    live = _alive(out)\n    for i in live:\n        if not out[i]:\n"
       '            out[i] = NoArcsError("summary yields no dependency arcs (single token)")\n'),
    _m("no-bulk-bad-check", "scorers", "oracle", CHUNK_MATH,
       "rejected = {order[bisect_right(ends, row)] for row in "
       "np.flatnonzero(bad(flat)).tolist()}",
       "rejected = set()"),
    _m("condll-fallback-sums", "scorers", "scorers", ORACLE,
       "    return float(np.mean(arr))\n\n\ndef arc_entailment_values(",
       "    return float(np.sum(arr))\n\n\ndef arc_entailment_values("),
    _m("scoring-loop-skips-the-range-check", "scorers", "failure_policy", LOOP,
       "name: _per_pair(_check_value, name, outcomes[k].get(name, prepared.get(k)))",
       "name: outcomes[k].get(name, prepared.get(k))"),
    _m("scoring-loop-catches-everything", "scorers", "failure_policy", MEMO,
       "    try:\n        return compute(*inputs)\n    except PER_PAIR_ERRORS as exc:",
       "    try:\n        return compute(*inputs)\n    except Exception as exc:"),
    _m("pairs-prepared-once-per-scorer", "scorers", "metrics experiments", ARRAYS,
       "values = SCORERS[scorer]([prepared[k] for k in ready], backend)",
       "values = SCORERS[scorer](prepare_pairs([chunk[k][0] for k in ready], backend), backend)"),
    _m("default-map-catches-runtime-error", "backend", "failure_policy", CHUNKS,
       "            except PER_PAIR_ERRORS as exc:",
       "            except (*PER_PAIR_ERRORS, RuntimeError) as exc:"),
    _m("skip-ignored", "scorers", "scorers", CHUNKS,
       "if skip is None or not skip(pair.id, scorer)", "if True"),
    _m("repeated-scorer-scored", "scorers", "scorers", LOOP,
       "    if len(set(scorer_names)) != len(scorer_names):\n"
       '        raise ConfigurationError(f"scorers repeat: {list(scorer_names)}")\n',
       ""),
    _m("resume-with-another-backend-scores-first", "scorers", "scorers", LOOP,
       "if scorer in scorer_names and column.provenance != (d.name, d.version) and \\",
       "if False and \\"),
    _m("score-corpus-drops-the-last-scorer", "scorers", "oracle", MUTANTS,
       "return [cell for scorer in scorer_names for cell in cells[scorer]]",
       "return [cell for scorer in scorer_names[:-1] for cell in cells[scorer]]"),
    _m("greedy-rows-without-the-summary", "scorers", "scorers", ROW_GROUPS,
       "PreparedPair(document, summary, False, len(doc_tokens) + len(summary_tokens))",
       "PreparedPair(document, summary, False, len(doc_tokens))"),
    _m("greedy-rows-of-the-unclipped-document", "scorers", "scorers", ROW_GROUPS,
       "                                  limit + len(summary_tokens))",
       "                                  len(doc_tokens) + len(summary_tokens))"),
    _m("greedy-one-group-per-chunk", "scorers", "scorers", ROW_GROUPS,
       'for group in _runs(pairs, attrgetter("rows"), _EMBED_ROWS)',
       "for group in [pairs]"),
    _m("runs-drop-their-boundary-item", "scorers", "scorers", ROW_GROUPS,
       "            run, total = [], 0\n        run.append(item)",
       "            run, total = [], 0\n            continue\n        run.append(item)"),
    _m("runs-repeat-their-boundary-item", "scorers", "scorers", ROW_GROUPS,
       "        if run and total + length > budget:\n            yield run\n",
       "        if run and total + length > budget:\n            yield [*run, item]\n"),
    # Greedy's screen and row means (`chunkmath`).
    _m("greedy-delta-zero", "chunkmath", "scorers", BLAS,
       "np.where(off, np.inf, 8.0 * tolerance)", "np.where(off, np.inf, 0.0)"),
    _m("greedy-one-finite-delta", "chunkmath", "scorers", CHUNK_MATH,
       "np.where(off, np.inf, 8.0 * tolerance)", "np.full(len(docs), 8.0 * tolerance)"),
    _m("greedy-no-norm-check", "chunkmath", "scorers", BLAS,
       "        if deviation.max() > tolerance:\n            off |= ",
       "        if False:\n            off |= "),
    _m("greedy-unbounded-gather", "chunkmath", "scorers", BLAS,
       "step = max(1, GREEDY_BLOCK_ELEMENTS // dim)", "step = max(1, found.size)"),
    _m("greedy-last-block-dropped", "chunkmath", "scorers", EMBEDDER,
       "for i in range(0, found.size, step):", "for i in range(0, found.size - step, step):"),
    _m("greedy-gram-form", "chunkmath", "scorers", EMBEDDER,
       "np.maximum.at(best, r, 1.0 - diff.sum(axis=1) / 2.0)",
       "np.maximum.at(best, r, (doc_rows.take(c, axis=0) * sum_rows.take(r, "
       "axis=0)).sum(axis=1))"),
    _m("greedy-recall-for-precision", "chunkmath", "scorers", MUTANTS,
       "means = greedy_means([pairs[k][0] for k in group[block]],\n"
       "                                 [pairs[k][1] for k in group[block]])",
       "means = greedy_means([pairs[k][1] for k in group[block]],\n"
       "                                 [pairs[k][0] for k in group[block]])"),
    _m("greedy-best-by-minimum", "chunkmath", "scorers", MUTANTS,
       "np.maximum.at(best, r, 1.0 - diff.sum(axis=1) / 2.0)",
       "np.minimum.at(best, r, 1.0 - diff.sum(axis=1) / 2.0)"),
    _m("greedy-padded-columns-not-struck", "chunkmath", "scorers", CHUNK_MATH,
       "    for p, d in short_docs:\n        candidates[p, :, d:] = False\n", ""),
    _m("greedy-padded-gram-not-minus-inf", "chunkmath", "scorers", CHUNK_MATH,
       "    for p, d in short_docs:\n        gram[p, :, d:] = -np.inf\n", ""),
    _m("row-means-by-reduceat", "chunkmath", "scorers", CHUNK_MATH,
       "    means: list[float] = []\n    start = 0\n",
       "    if lengths:\n"
       "        return (np.add.reduceat(values, [0, *accumulate(lengths[:-1])]) / "
       "lengths).tolist()\n    means: list[float] = []\n    start = 0\n"),
    # BLANC and evaluation.
    _m("blanc-range-check-first", "metrics", "metrics", LOOP,
       "    for outcome in (*fills, *sentence_tokens):\n"
       "        if isinstance(outcome, Exception):\n            raise outcome\n"
       "    if not all(0.0 <= fill <= 1.0 for fill in fills):\n",
       "    if not all(0.0 <= fill <= 1.0 for fill in fills if not isinstance(fill, "
       'Exception)):\n        raise BackendError("masked fill accuracies must lie in [0, 1]")\n'
       "    for outcome in (*fills, *sentence_tokens):\n"
       "        if isinstance(outcome, Exception):\n            raise outcome\n"
       "    if not all(0.0 <= fill <= 1.0 for fill in fills):\n"),
    _m("sentence-split-marks-attached-twice", "metrics", "metrics", LONG_DOCS,
       're.compile(r"([.!?])\\s+")', 're.compile(r"(?<=([.!?]))\\s+")'),
    _m("rouge2-overlap-off-by-one", "metrics", "metrics", MUTANTS,
       "overlap = sum(min(count, ref[bigram]) for bigram, count in cand.items())",
       "overlap = sum(min(count, ref[bigram]) for bigram, count in cand.items()) - 1"),
    _m("rouge2-recall-over-the-candidate", "metrics", "metrics", MUTANTS,
       "recall = overlap / n_ref if n_ref else 0.0",
       "recall = overlap / n_cand if n_cand else 0.0"),
    _m("evaluate-repeated-metric", "metrics", "metrics", MUTANTS,
       "    if len(set(metric_list)) != len(metric_list):\n"
       '        raise ConfigurationError(f"metrics repeat: {metric_list}")\n',
       ""),
    _m("report-second-row-accepted", "metrics", "records", CHUNKS,
       "if pair_id in values or pair_id in reasons:", "if False:"),
    _m("report-non-finite-accepted", "metrics", "records", CHUNKS,
       "            if not math.isfinite(number):", "            if False:"),
    _m("report-failure-then-pair-accepted", "metrics", "records", CHUNKS,
       " or pair_id in reasons:", ":"),
    _m("report-non-finite-as-parse-error", "metrics", "records", CHUNKS,
       'raise DomainError(f"value {value!r}', 'raise ValueError(f"value {value!r}'),
    _m("report-unknown-record-accepted", "metrics", "records", RECORDS,
       'raise ValueError(f"unknown record kind {record!r}")', "return"),
    # The sweep hook and the distributions (`experiments`).
    _m("hook-memo-always", "experiments", "experiments", ARRAYS,
       "{metric: {} for metric in metrics} if backend.descriptor.deterministic else None",
       "{metric: {} for metric in metrics}"),
    _m("hook-memo-never", "experiments", "experiments", MEMO,
       "{metric: {} for metric in metrics} if backend.descriptor.deterministic else None", "None"),
    _m("hook-memo-keyed-on-id", "experiments", "experiments", MEMO,
       "keys = [(pair.document, pair.summary) for pair in pairs]",
       "keys = [pair.id for pair in pairs]"),
    _m("hook-memo-keyed-on-id-and-text", "experiments", "experiments", ARRAYS,
       "keys = [(pair.document, pair.summary) for pair in pairs]",
       "keys = [(pair.id, pair.document, pair.summary) for pair in pairs]"),
    _m("hook-failure-counts-as-zero", "experiments", "experiments", MEMO,
       "values = [v for key in keys if not isinstance(v := seen[metric][key], str)]",
       "values = [0.0 if isinstance(v := seen[metric][key], str) else v for key in keys]"),
    _m("no-spot-check", "experiments", "experiments", REUSE,
       "n = min(SPOT_CHECK_PAIRS, len(corpus))", "n = 0"),
    _m("distribution-keeps-negative-zero", "experiments", "experiments", COLUMNAR,
       "arr = arr[~np.isnan(arr)] + 0.0", "arr = arr[~np.isnan(arr)]"),
    _m("first-quartile-from-the-minimum", "experiments", "experiments", MUTANTS,
       "q1=float(q[1])", "q1=float(q[0])"),
    _m("one-histogram-bin-short", "experiments", "experiments", MUTANTS,
       "bins=DEFAULT_HISTOGRAM_BINS)", "bins=DEFAULT_HISTOGRAM_BINS - 1)"),
    _m("sweep-combined-as-union", "experiments", "experiments", MUTANTS,
       "return intersect_filter(table, threshold).kept_id_set()",
       "return set().union(*(percentile_keep_set(table.values(s), threshold)\n"
       "                             for s in table.scorers))"),
    # Filtration.
    _m("threshold-from-the-highest-kept-row", "filtration", "filtration", COLUMNAR,
       "return keep, float(values[tied[-short]])", "return keep, float(values[keep].max())"),
    _m("threshold-min-over-a-set", "filtration", "filtration", SERVER,
       "    return keep, float(values[tied[-short]])",
       "    kept_scores = {ids[row]: values[row] for row in np.flatnonzero(keep).tolist()}\n"
       "    return keep, float(min(kept_scores[i] for i in set(kept_scores)))"),
    _m("ids-ranked-as-numpy-strings", "filtration", "filtration", COLUMNAR,
       "    tied = sorted(np.flatnonzero(values == cut).tolist(), key=ids.__getitem__)\n",
       "    rows = np.flatnonzero(values == cut)\n"
       "    tied = rows[np.argsort(np.array(ids, dtype=str)[rows], kind='stable')].tolist()\n"),
    _m("ties-broken-by-descending-id", "filtration", "filtration", COLUMNAR,
       "key=ids.__getitem__)", "key=ids.__getitem__, reverse=True)"),
    _m("tied-rows-kept-from-the-smallest-ids", "filtration", "filtration", LINEAR_CUTS,
       "keep[tied[-short:]] = True", "keep[tied[:short]] = True"),
    _m("kept-ids-in-row-order", "filtration", "filtration", COLUMNAR,
       "kept_ids = tuple(sorted([ids[row] for row in np.flatnonzero(kept).tolist()]))",
       "kept_ids = tuple([ids[row] for row in np.flatnonzero(kept).tolist()])"),
    _m("non-finite-score-accepted", "filtration", "filtration", LINEAR_CUTS,
       "    if not finite.all():\n", "    if False:\n"),
    _m("aligned-skips-the-row-permutation", "scorers", "filtration cli", COLUMNAR,
       "        column._values.extend(repeat(math.nan, row + 1 - len(column._values)))\n"
       "        column._values[row] = value\n",
       "        column._values.append(value)\n"),
    _m("filter-repeated-scorer", "filtration", "filtration", MUTANTS,
       "    if len(set(names)) != len(names):\n"
       '        raise ConfigurationError(f"scorers repeat: {names}")\n',
       ""),
    _m("manifest-repeated-scorer", "filtration", "filtration", LOOP,
       "        if len(set(self.scorer_names)) != len(self.scorer_names):\n"
       '            raise IntegrityError(f"manifest scorer names repeat: '
       '{list(self.scorer_names)}")\n',
       ""),
    _m("percentile-keeps-the-lowest", "filtration", "filtration", MUTANTS,
       "    cut = np.partition(values, n - keep_count)[n - keep_count]\n"
       "    keep = values > cut\n",
       "    cut = np.partition(values, keep_count - 1)[keep_count - 1]\n"
       "    keep = values < cut\n"),
    _m("keep-count-rounded-down", "filtration", "filtration", MUTANTS,
       "    keep_count = math.ceil((1.0 - q) * n)\n",
       "    keep_count = math.floor((1.0 - q) * n)\n"),
    _m("keep-count-from-q", "filtration", "filtration", MUTANTS,
       "    keep_count = math.ceil((1.0 - q) * n)\n", "    keep_count = math.ceil(q * n)\n"),
    _m("ranked-by-magnitude", "filtration", "filtration", MUTANTS,
       "    keep_count = math.ceil((1.0 - q) * n)\n",
       "    keep_count = math.ceil((1.0 - q) * n)\n    values = np.abs(values)\n"),
    _m("intersection-as-union", "filtration", "filtration", MUTANTS,
       "kept &= keep", "kept |= keep"),
    _m("sentinel-pairs-in-the-population", "filtration", "filtration", MUTANTS,
       "population = np.flatnonzero(scored.all(axis=0))",
       "population = np.flatnonzero(scored.any(axis=0))"),
    _m("random-selection-unseeded", "filtration", "experiments", MUTANTS,
       'seed_bytes = str(int(seed)).encode("ascii")',
       "seed_bytes = np.random.default_rng().bytes(8)"),
    # The score table and its file.
    _m("score-row-provenance-unchecked", "scorers", "scorers", TABLE_READS,
       "        if column.provenance != provenance:\n"
       "            raise _mixed_backends(scorer, column.provenance, provenance)\n",
       ""),
    _m("score-row-duplicate-accepted", "scorers", "records", READERS,
       "        if pair_id in column:\n            raise IntegrityError(",
       "        if False:\n            raise IntegrityError("),
    _m("score-row-error-type-unchecked", "scorers", "scorers", COLUMNS,
       "is type(provenance[1]) is type(reason) is str", "is type(provenance[1]) is str"),
    _m("score-row-string-fields-unchecked", "scorers", "scorers", COLUMNS,
       "if not (type(pair_id) is type(scorer)", "if False and (type(pair_id) is type(scorer)"),
    _m("score-row-truncated-type-unchecked", "scorers", "scorers", TABLE_READS,
       "is type(reason) is str and type(truncated) is bool):", "is type(reason) is str):"),
    _m("score-row-value-type-unchecked", "scorers", "records", READERS,
       "                if type(value) is not int:  # rejects bool, an int subclass\n",
       "                if False:\n"),
    _m("score-row-inverted-truncated", "scorers", "acceptance", TABLE_READS,
       'row["truncated"] = cell.truncated', 'row["truncated"] = not cell.truncated'),
    _m("values-keep-sentinels", "scorers", "scorers", COLUMNS,
       "return {pid: v for pid, v in zip(self._ids, column._values) if v == v}",
       "return {pid: v for pid, v in zip(self._ids, column._values)}"),
    _m("absent-row-read-as-a-sentinel", "scorers", "block_reader", SHARED_INDEX,
       "or row in self.reasons)", "or True)"),
    _m("absent-row-read-as-its-nan", "scorers", "block_reader", SHARED_INDEX,
       "            if row in self.reasons:\n                return self.reasons[row]\n",
       "            return self.reasons.get(row, value)\n"),
    _m("len-counts-absent-rows", "scorers", "block_reader", SHARED_INDEX,
       "return int(np.count_nonzero(~np.isnan(self.array))) + len(self.reasons)",
       "return len(self._values)"),
    _m("value-check-without-finiteness", "scorers", "failure_policy", TABLE_READS,
       "        if not math.isfinite(value):\n            raise DomainError(",
       "        if False:\n            raise DomainError("),
    _m("score-post-init-unchecked", "scorers", "scorers", COLUMNS,
       "    def __post_init__(self) -> None:\n        _check_value(self.scorer, self.value)\n",
       ""),
    _m("jsonl-written-as-ascii", "records", "scorers corpus", ROW_GROUPS,
       "encode_json = json.JSONEncoder(ensure_ascii=False).encode",
       "encode_json = json.JSONEncoder().encode"),
    _m("jsonl-floats-rounded", "records", "scorers", MUTANTS,
       "_decode_json = json.JSONDecoder().raw_decode",
       "_decode_json = json.JSONDecoder(parse_float=lambda s: round(float(s), 12)).raw_decode"),
    _m("csv-header-unchecked", "records", "records", RECORDS,
       "if next(rows, None) != list(header):", "if next(rows, None) is None:"),
    _m("csv-row-length-unchecked", "records", "records", RECORDS,
       "                if len(row) != width:\n", "                if False:\n"),
    _m("csv-error-unlocated", "records", "records", RECORDS,
       "except (*_LOCATED, csv.Error) as exc:", "except _LOCATED as exc:"),
    _m("csv-float-written-with-str", "records", "records", RECORDS,
       "repr(float(cell)) if isinstance(cell, float) else cell",
       "str(cell) if isinstance(cell, float) else cell"),
    _m("json-fields-skips-its-last-key", "records", "records", RECORDS,
       "if not kinds.issuperset(map(type, values)):",
       "if not kinds.issuperset(map(type, values[:-1])):"),
    _m("jsonl-append-ignored", "records", "records", RECORDS,
       'open("a" if append else "w",', 'open("w",'),
    _m("missing-error-default-changed", "scorers", "scorers", MUTANTS,
       '_NO_REASON = "unknown failure"', '_NO_REASON = ""'),
    _m("sentinel-written-as-zero", "scorers", "scorers", MUTANTS,
       '        row["value"] = None\n', '        row["value"] = 0.0\n'),
    # The record readers and writers, and the corpus.
    _m("jsonl-second-value-accepted", "records", "records", TABLE_READS,
       "            if end != len(line):\n", "            if False:\n"),
    _m("jsonl-non-object-accepted", "records", "records", READERS,
       "            if not isinstance(record, dict):\n", "            if False:\n"),
    _m("jsonl-missing-field-not-located", "records", "records", READERS,
       "_LOCATED = (ValueError, KeyError, TypeError,", "_LOCATED = (ValueError, TypeError,"),
    _m("jsonl-overflow-not-located", "records", "records", MEMO,
       "TypeError, OverflowError, DomainError", "TypeError, DomainError"),
    _m("jsonl-type-error-not-located", "records", "records", TABLE_READS,
       "KeyError, TypeError, OverflowError", "KeyError, OverflowError"),
    _m("jsonl-domain-error-not-located", "records", "records", TABLE_READS,
       "OverflowError, DomainError, IntegrityError)", "OverflowError)"),
    _m("jsonl-lines-stripped-of-unicode-space", "records", "records", PROTOCOL_3,
       "line = line.strip(JSON_WHITESPACE)", "line = line.strip()"),
    _m("line-numbers-from-zero", "records", "records", MUTANTS,
       "    first = 1\n", "    first = 0\n"),
    _m("utf8-unchecked", "records", "records", MEMO,
       'line.encode("utf-8")\n', 'line.encode("utf-8", "surrogateescape")\n'),
    # The block path of `read_jsonl` and `ScoreTable.add_rows`.
    _m("block-rule-counts-elements", "records", "block_reader", BLOCKS,
       '    if not (text.startswith("[{") and text.endswith(("}\\n]", "}]"))\n'
       '            and text.count("{") == n and text.count("}\\n,{") == n - 1):\n'
       "        return None\n"
       "    if not text.isascii():\n"
       "        try:\n"
       '            text.encode("utf-8")\n'
       "        except UnicodeEncodeError:\n"
       "            return None\n"
       "    try:\n"
       "        records, end = _decode_json(text)\n"
       "    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer\n"
       "        return None\n"
       "    return records if end == len(text) else None\n",
       "    if not text.isascii():\n"
       "        try:\n"
       '            text.encode("utf-8")\n'
       "        except UnicodeEncodeError:\n"
       "            return None\n"
       "    try:\n"
       "        records, end = _decode_json(text)\n"
       "    except (ValueError, RecursionError):  # a JSONDecodeError, an over-long integer\n"
       "        return None\n"
       "    return records if end == len(text) and len(records) == n else None\n"),
    _m("block-utf8-unchecked", "records", "block_reader", BLOCKS,
       "    if not text.isascii():\n", "    if False:\n"),
    _m("block-records-numbered-from-the-block", "records", "block_reader", BLOCKS,
       "enumerate(records, start=first)", "enumerate(records, start=1)"),
    _m("add-rows-skips-the-column-ids", "scorers", "block_reader", BLOCKS,
       "if end == len(ids) and index.keys().isdisjoint(run_ids):",
       "if end == len(ids):"),
    _m("add-rows-failed-update-kept", "scorers", "block_reader", LINEAR_CUTS,
       "            for pair_id in ids[known:]:\n"
       "                index.pop(pair_id, None)\n"
       "            del ids[known:]\n",
       ""),
    _m("add-rows-new-ids-away-from-the-table-end", "scorers", "block_reader", SHARED_INDEX,
       "if end == len(ids) and index.keys()", "if index.keys()"),
    _m("add-rows-known-ids-unchecked", "scorers", "block_reader", SHARED_INDEX,
       "if ids[end:end + stop - start] == run_ids:", "if len(ids) >= end + stop - start:"),
    _m("add-rows-skips-the-range-check", "scorers", "block_reader", BLOCKS,
       " or in_range + values.count(None) != n:", ":"),
    _m("add-rows-skips-the-run-check", "scorers", "block_reader", BLOCKS,
       "if len({run[0] for run in runs}) != len(runs) or ", "if "),
    _m("add-rows-commits-before-its-last-check", "scorers", "block_reader", BLOCKS,
       "        if len({run[0] for run in runs}) != len(runs) or in_range + values.count(None) != "
       "n:\n"
       "            return False\n"
       "        index, ids = self._index, self._ids\n"
       "        known = len(ids)\n"
       "        for column, (_, _, start, stop) in zip(columns, runs):\n"
       "            run_ids, end = pair_ids[start:stop], len(column._values)\n"
       "            if ids[end:end + stop - start] == run_ids:\n"
       "                continue\n"
       "            if end == len(ids) and index.keys().isdisjoint(run_ids):\n"
       "                index.update(zip(run_ids, range(end, end + stop - start)))\n"
       "                ids.extend(run_ids)\n"
       "                if len(index) == len(ids):\n"
       "                    continue\n"
       "            for pair_id in ids[known:]:\n"
       "                index.pop(pair_id, None)\n"
       "            del ids[known:]\n"
       "            return False\n"
       "        for column, (scorer, _, start, stop) in zip(columns, runs):\n"
       "            self._columns[scorer] = column\n"
       "            run_values = block_values[start:stop]\n"
       "            end = len(column._values)\n"
       "            for row in np.flatnonzero(run_values != run_values).tolist():\n"
       "                column.reasons[end + row] = reasons[start + row]\n"
       "            column._values.frombytes(run_values.tobytes())\n"
       "        return True\n",
       "        index, ids = self._index, self._ids\n"
       "        known = len(ids)\n"
       "        for column, (_, _, start, stop) in zip(columns, runs):\n"
       "            run_ids, end = pair_ids[start:stop], len(column._values)\n"
       "            if ids[end:end + stop - start] == run_ids:\n"
       "                continue\n"
       "            if end == len(ids) and index.keys().isdisjoint(run_ids):\n"
       "                index.update(zip(run_ids, range(end, end + stop - start)))\n"
       "                ids.extend(run_ids)\n"
       "                if len(index) == len(ids):\n"
       "                    continue\n"
       "            for pair_id in ids[known:]:\n"
       "                index.pop(pair_id, None)\n"
       "            del ids[known:]\n"
       "            return False\n"
       "        for column, (scorer, _, start, stop) in zip(columns, runs):\n"
       "            self._columns[scorer] = column\n"
       "            run_values = block_values[start:stop]\n"
       "            end = len(column._values)\n"
       "            for row in np.flatnonzero(run_values != run_values).tolist():\n"
       "                column.reasons[end + row] = reasons[start + row]\n"
       "            column._values.frombytes(run_values.tobytes())\n"
       "        return len({run[0] for run in runs}) == len(runs) and in_range + values.count(None"
       ") == n\n"),
    _m("csv-crlf", "records", "records", READERS,
       'lineterminator="\\n"', 'lineterminator="\\r\\n"'),
    _m("corpus-invariant-not-a-parse-error", "corpus", "records", READERS,
       "    except DomainError as exc:  # a bad record",
       "    except KeyError as exc:  # a bad record"),
    _m("corpus-duplicate-not-located", "corpus", "records", READERS,
       '        if pair.id in seen:\n            raise IntegrityError(f"duplicate id',
       '        if False:\n            raise IntegrityError(f"duplicate id'),
    _m("corpus-duplicate-unnamed", "corpus", "records", MUTANTS,
       'raise IntegrityError(f"duplicate id {pair.id!r}")',
       'raise IntegrityError("duplicate id")'),
    _m("annotation-duplicate-accepted", "validation", "records", READERS,
       "        if summary_id in seen:\n", "        if False:\n"),
    _m("generated-duplicate-accepted", "cli", "records", READERS,
       "        if pair_id in generated:\n", "        if False:\n"),
    _m("annotation-flag-type-unchecked", "validation", "records", READERS,
       "and JSON_BOOLS.issuperset(map(type, flags.values()))):", "and True):"),
    _m("annotation-factuality-type-unchecked", "validation", "records", READERS,
       "                and type(factuality) in JSON_NUMBERS  # rejects bool, an int subclass\n",
       ""),
    _m("corpus-stats-mean-over-n-plus-one", "corpus", "corpus", MUTANTS,
       "    n = len(corpus)\n", "    n = len(corpus) + 1\n"),
    _m("corpus-stats-from-the-last-pair", "corpus", "corpus", MUTANTS,
       "doc_total += word_count(pair.document)",
       "doc_total = word_count(pair.document) * len(corpus)"),
    # FRANK validation and statistics.
    _m("flip-the-wrong-category", "validation", "validation", TABLE_READS,
       "    k = CATEGORIES.index(category)\n",
       "    k = (CATEGORIES.index(category) + 1) % len(CATEGORIES)\n"),
    _m("first-system-level-kept", "validation", "validation", TABLE_READS,
       "(codes[:, None] == np.arange(1, len(levels)))",
       "(codes[:, None] == np.arange(0, len(levels) - 1))"),
    _m("flip-clearing-the-last-flag-keeps-the-judgment", "validation", "validation", MUTANTS,
       "np.where(flags[:, k], 1.0, 0.0))", "np.where(flags[:, k], factuality, 0.0))"),
    _m("flip-a-new-sole-flag-keeps-the-judgment", "validation", "validation", MUTANTS,
       "np.where(flags[:, k], 1.0, 0.0))", "np.where(flags[:, k], 1.0, factuality))"),
    _m("flip-a-surviving-flag-resets-the-judgment", "validation", "validation", MUTANTS,
       "np.where(others, factuality, np.where(", "np.where(others, 0.0, np.where("),
    _m("flip-leaves-the-flag", "validation", "validation", MUTANTS,
       "category: not a.category_flags[category]})", "category: a.category_flags[category]})"),
    _m("flip-clears-the-other-flags", "validation", "validation", MUTANTS,
       "**a.category_flags, category: not", "**dict.fromkeys(CATEGORIES, False), category: not"),
    _m("flip-labels-flips-the-first-category", "validation", "validation", MUTANTS,
       "factuality = _flipped_factuality(frame.flags, frame.factuality, category)",
       "factuality = _flipped_factuality(frame.flags, frame.factuality, CATEGORIES[0])"),
    _m("flipped-y-reversed", "validation", "validation", FOLLOW_UP,
       "*(flipped[category][covered] for category in CATEGORIES)",
       "*(flipped[category][covered][::-1] for category in CATEGORIES)"),
    _m("flip-x-reordered", "validation", "validation", FOLLOW_UP,
       "                x[covered], [frame.factuality[covered],",
       "                x[covered][::-1], [frame.factuality[covered][::-1],"),
    _m("flip-indicators-reversed", "validation", "validation", FOLLOW_UP,
       "            covered, z = frame.covered(scored, dataset)\n",
       "            covered, z = frame.covered(scored, dataset)\n            z = z[::-1]\n"),
    _m("residuals-from-the-first-y", "stats", "stats", CHUNK_MATH,
       "        ry = _residualize(ya, design)", "        ry = _residualize(yas[0], design)"),
    _m("residuals-of-x-from-the-first-y", "stats", "stats", CHUNK_MATH,
       "rx = _residualize(xa, design)", "rx = _residualize(yas[0], design)"),
    _m("normal-p-over-the-variance", "stats", "stats", MUTANTS,
       "z = (abs(w_plus - mean) - 0.5) / math.sqrt(variance)",
       "z = (abs(w_plus - mean) - 0.5) / variance"),
    _m("exact-p-one-sided", "stats", "stats", MUTANTS,
       "p = (float(counts[hi:].sum()) + float(counts[: lo + 1].sum())) / n_patterns",
       "p = 2.0 * float(counts[w2:].sum()) / n_patterns"),
    _m("ranks-by-position", "stats", "stats", MUTANTS,
       'order = np.argsort(values, kind="stable")', "order = np.arange(n)"),
    _m("tie-run-rank-off-by-one", "stats", "stats", LINEAR_CUTS,
       "0.5 * (starts + stops - 1) + 1.0", "0.5 * (starts + stops) + 1.0"),
    _m("tie-sum-without-the-linear-term", "stats", "stats", ROW_GROUPS,
       "tie_sum = float(np.sum(t * t * t - t))", "tie_sum = float(np.sum(t * t * t))"),
    # The mock backend.
    _m("digest-norms-by-linalg", "backend", "backend", EMBEDDER,
       "norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None]).reshape(-1))",
       "norms = np.linalg.norm(vecs, axis=1)"),
    _m("digest-norms-by-einsum", "backend", "backend", ARRAYS,
       "norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None]).reshape(-1))",
       "norms = np.sqrt(np.einsum('ij,ij->i', vecs, vecs))"),
    _m("digest-norms-by-squares-sum", "backend", "backend", ARRAYS,
       "norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None]).reshape(-1))",
       "norms = np.sqrt((vecs * vecs).sum(axis=1))"),
    _m("token-vectors-not-unit", "backend", "backend", MUTANTS,
       "return vecs / norms[:, None]", "return vecs"),
    _m("token-vectors-salted-per-table", "backend", "backend", MUTANTS,
       'person=b"tokvec")', 'person=b"tokvec", salt=os.urandom(8))'),
    _m("token-digest-updates-the-blank-hasher", "backend", "backend", LONG_DOCS,
       "h = self._blank.copy()", "h = self._blank"),
    _m("vanishing-digest-not-pinned", "backend", "backend", EMBEDDER,
       "    vecs[vanishing, 0] = 1.0\n    norms[vanishing] = 1.0\n", ""),
    _m("zero-row-embeddings-accepted", "backend", "backend", TABLE_READS,
       "        if self.vectors.shape[0] == 0:\n", "        if False:\n"),
    _m("zero-norm-check-without-float-cast", "backend", "backend", TOKEN_TABLE,
       'v = self.vectors if self.vectors.dtype.kind in "fc" else self.vectors.astype(float)',
       "v = self.vectors"),
    _m("zero-norm-check-casts-every-dtype", "backend", "backend", TOKEN_TABLE,
       'v = self.vectors if self.vectors.dtype.kind in "fc" else self.vectors.astype(float)',
       "v = self.vectors.astype(float)"),
    _m("token-table-kept-after-a-request", "backend", "backend", TOKEN_TABLE,
       "        finally:\n            del self._request_rows\n",
       "        finally:\n            pass\n"),
    _m("fill-vocabularies-kept-after-a-request", "backend", "backend", LONG_DOCS,
       "            del self._request_vocabularies\n", ""),
    _m("fill-vocabulary-keyed-on-the-sentence", "backend", "backend", LONG_DOCS,
       "        if prefix not in vocabularies:\n"
       "            prefix_tokens = self.tokenize(prefix)\n"
       "            vocabularies[prefix] = len(prefix_tokens), set(prefix_tokens)\n"
       "        n_prefix, known = vocabularies[prefix]\n",
       "        if sentence not in vocabularies:\n"
       "            prefix_tokens = self.tokenize(prefix)\n"
       "            vocabularies[sentence] = len(prefix_tokens), set(prefix_tokens)\n"
       "        n_prefix, known = vocabularies[sentence]\n"),
    _m("fill-prefix-count-from-the-sentence", "backend", "backend", LONG_DOCS,
       "vocabularies[prefix] = len(prefix_tokens), set(prefix_tokens)",
       "vocabularies[prefix] = len(sentence_tokens), set(prefix_tokens)"),
    _m("token-table-loses-rows-on-growth", "backend", "backend", TOKEN_TABLE,
       "self._rows = np.resize(self._rows, (2 * stop, self._dim))",
       "self._rows = np.empty((2 * stop, self._dim))"),
    _m("mock-absent-log-prob-positive", "backend", "backend", MUTANTS,
       "LOGPROB_ABSENT = math.log(0.1)", "LOGPROB_ABSENT = -math.log(0.1)"),
    _m("mock-parser-needs-three-tokens", "backend", "experiments", MUTANTS,
       "        if len(tokens) < 2:\n            return []",
       "        if len(tokens) < 3:\n            return []"),
    # The remote transport.
    _m("float32-vectors-on-the-wire", "remote", "backend", CHUNKS,
       'vectors = np.ascontiguousarray(emb.vectors, dtype="<f8")',
       'vectors = np.ascontiguousarray(emb.vectors, dtype="<f4")'),
    _m("remote-log-probs-narrowed", "remote", "oracle", MUTANTS,
       'lambda r: list(map(float, json_items(r, "logprobs", JSON_NUMBERS)))',
       'lambda r: [float(np.float32(x)) for x in json_items(r, "logprobs", JSON_NUMBERS)]'),
    _m("length-error-keeps-its-suffix", "remote", "backend", ARRAYS,
       'message.removesuffix(f" (limit: {limit} tokens)")', "message"),
    _m("no-arcs-error-not-sent-by-name", "remote", "remote", TOKEN_TABLE,
       "if isinstance(cls, type) and issubclass(cls, errors.FactFilterError)}",
       "if isinstance(cls, type) and issubclass(cls, errors.FactFilterError)\n"
       "                and cls is not errors.NoArcsError}"),
    _m("server-loops-single-ops", "remote", "remote", TOKEN_TABLE,
       "for value in backend.map(op, calls)]", "for value in Backend.map(backend, op, calls)]"),
    _m("server-skips-backend-close", "remote", "cli", SERVER,
       "    serve(backend, sys.stdin, sys.stdout)\n    backend.close()\n",
       "    serve(backend, sys.stdin, sys.stdout)\n"),
    _m("batch-count-unchecked", "remote", "remote", CHUNKS,
       "if not isinstance(items, list) or len(items) != len(calls):",
       "if not isinstance(items, list):"),
    _m("batch-reply-not-checked-for-a-list", "remote", "remote", CHUNKS,
       "if not isinstance(items, list) or len(items) != len(calls):",
       "if len(items) != len(calls):"),
    _m("descriptor-non-object-accepted", "remote", "remote", MEMO,
       '    json_value(info, "result", JSON_OBJECTS)\n', ""),
    _m("handshake-protocol-unchecked", "remote", "remote", CHUNKS,
       "if type(protocol) is not int or protocol != PROTOCOL:", "if False:"),
    _m("handshake-types-unchecked", "remote", "remote", MEMO,
       '    name, version = json_fields(info, ("name", "version"), JSON_STRINGS)\n'
       '    deterministic = json_field(info, "deterministic", JSON_BOOLS)\n'
       '    max_tokens = json_field(info, "max_tokens", JSON_INTEGERS)\n',
       '    name, version, deterministic, max_tokens = (\n'
       '        info["name"], info["version"], info["deterministic"], info["max_tokens"])\n'),
    _m("failed-handshake-leaves-the-server", "remote", "remote", MEMO,
       "            self._proc.kill()\n            self.close()\n            raise\n",
       "            raise\n"),
    _m("failed-handshake-only-kills-and-waits", "remote", "remote", COLUMNAR,
       "            self._proc.kill()\n            self.close()\n",
       "            self._proc.kill()\n            self._proc.wait()\n"),
    _m("stream-failure-not-a-transport-error", "remote", "remote", READERS,
       "        except (OSError, ValueError) as exc:  # broken pipe, undecodable bytes\n",
       "        except ():\n"),
    _m("exited-server-not-detected", "remote", "remote", READERS,
       "        if self._proc.poll() is not None:\n", "        if False:\n"),
    _m("unparseable-reply-escapes", "remote", "remote", READERS,
       "        except json.JSONDecodeError as exc:\n            raise errors.TransportError(",
       "        except ():\n            raise errors.TransportError("),
    _m("reply-without-result-misread", "remote", "remote", CHUNKS,
       '            raise errors.TransportError(f"reply to {op!r} has neither a result nor an '
       'error")', "            failure = errors.BackendError(repr(reply))"),
    _m("arc-arity-unchecked", "remote", "remote", PROTOCOL_3,
       "    if (type(arcs) is not list or not {5}.issuperset(map(len, arcs))\n",
       "    if (type(arcs) is not list\n"),
    _m("arc-bool-index-accepted", "remote", "remote", PROTOCOL_3,
       "or list(map(type, chain.from_iterable(arcs))) != _ARC_TYPES * len(arcs)):",
       "or not all(map(isinstance, chain.from_iterable(arcs), _ARC_TYPES * len(arcs)))):"),
    _m("batch-error-item-read-as-a-value", "remote", "remote", PROTOCOL_3,
       '        if type(reply) is dict and "error" in reply:',
       '        if not batched and type(reply) is dict and "error" in reply:'),
    _m("error-fields-unchecked", "remote", "remote", PROTOCOL_3,
       '    exc_type = _ERROR_TYPES.get(json_field(err, "type", JSON_STRINGS), '
       'errors.BackendError)\n    message = json_field(err, "message", JSON_STRINGS)\n',
       '    exc_type = _ERROR_TYPES.get(err.get("type", ""), errors.BackendError)\n'
       '    message = str(err.get("message", "remote backend error"))\n'),
    _m("error-limit-unchecked", "remote", "remote", PROTOCOL_3,
       'limit = json_field(err, "limit", JSON_INTEGERS)', 'limit = int(err.get("limit", 0))'),
    _m("error-object-with-other-keys-accepted", "remote", "remote", PROTOCOL_3,
       "    if len(reply) != 1:\n", "    if False:\n"),
    _m("server-strips-unicode-space", "remote", "remote", PROTOCOL_3,
       "line = line.strip(JSON_WHITESPACE)", "line = line.strip()"),
    _m("json-not-compact", "remote", "remote", PROTOCOL_3,
       'json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))',
       "json.JSONEncoder(ensure_ascii=False)"),
    _m("close-catches-the-wrong-exception", "remote", "remote", ARRAYS,
       "        except subprocess.TimeoutExpired:\n", "        except OSError:\n"),
    _m("transport-error-is-a-backend-error", "errors", "failure_policy", READERS,
       "class TransportError(FactFilterError):", "class TransportError(BackendError):"),
    _m("transport-error-exits-two", "cli", "cli", READERS,
       "    except (BackendError, TransportError) as exc:", "    except BackendError as exc:"),
    _m("configuration-error-exits-two", "cli", "cli", MUTANTS,
       '        print(f"configuration error: {exc}", file=sys.stderr)\n        return EXIT_USAGE',
       '        print(f"configuration error: {exc}", file=sys.stderr)\n        return EXIT_DATA'),
    _m("config-file-ignored", "cli", "cli", FLAGS,
       "args = [*self._config_flags(args), *args]", "args = list(args)"),
    _m("config-beats-the-command-line", "cli", "cli", FLAGS,
       "args = [*self._config_flags(args), *args]", "args = [*args, *self._config_flags(args)]"),
    _m("echo-drops-the-input-path", "cli", "cli", FLAGS,
       'if key not in ("func", "config")}', 'if key not in ("func", "config", "in_path")}'),
]


def catalogue_problems() -> list[str]:
    """Why entries no longer apply: a name used twice, an old text that does
    not occur exactly once in its file or equals the new text, or a test
    path that is no whole test file."""
    names = [mutant.name for mutant in CATALOGUE]
    problems = [f"{name}: name used twice" for name in set(names) if names.count(name) > 1]
    for mutant in CATALOGUE:
        path = ROOT / mutant.path
        count = path.read_text(encoding="utf-8").count(mutant.old) if path.is_file() else 0
        if count != 1:
            problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
        if mutant.old == mutant.new:
            problems.append(f"{mutant.name}: old and new text are equal")
        for test in mutant.tests:
            if "::" in test or not (ROOT / test).is_file():
                problems.append(f"{mutant.name}: {test} is no test file")
    return problems


def run(mutant: Mutant) -> tuple[str, float]:
    """Apply `mutant` to a copy of the tree and run its test files there:
    "killed", "survived", or "error: ..." when pytest reached no verdict."""
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="mutant-") as temp:
        tree = Path(temp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_IGNORED)
        target = tree / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new),
                          encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(tree / "src")}
        imported = subprocess.run(
            [sys.executable, "-c", "import factfilter; print(factfilter.__file__)"],
            cwd=tree, env=env, capture_output=True, text=True).stdout.strip()
        if not imported.startswith(str(tree)):
            return f"error: the copy imports factfilter from {imported!r}", 0.0
        # The `mutants` profile (tests/conftest.py) skips shrinking a failing example.
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 "--hypothesis-profile=mutants", *mutant.tests],
                cwd=tree, env=env, capture_output=True, text=True, timeout=_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"error: no verdict in {_TIMEOUT_S} s", time.monotonic() - start
    verdict = {0: "survived", 1: "killed"}.get(done.returncode)
    if verdict is None:
        last = (done.stdout + done.stderr).strip().splitlines()[-1:]
        verdict = f"error: pytest exited {done.returncode}: {last}"
    return verdict, time.monotonic() - start


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {mutant.name for mutant in CATALOGUE})
    problems = catalogue_problems() + [f"{name}: no such entry" for name in unknown]
    for problem in problems:
        print(f"stale: {problem}")
    if problems:
        return 1
    chosen = [mutant for mutant in CATALOGUE if not names or mutant.name in names]
    start = time.monotonic()
    verdicts = []
    with ThreadPoolExecutor(_WORKERS) as pool:
        for mutant, (verdict, seconds) in zip(chosen, pool.map(run, chosen)):
            verdicts.append(verdict.split(":")[0])
            print(f"{verdict:9} {mutant.name} ({seconds:.1f} s; {' '.join(mutant.tests)})",
                  flush=True)
    print(f"mutants: {verdicts.count('killed')} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('error')} errors of {len(chosen)} in {time.monotonic() - start:.0f} s")
    return 0 if verdicts.count("killed") == len(chosen) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
