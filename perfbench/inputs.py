"""Seeded input generators for the four benchmark workloads.

    python3 perfbench/inputs.py <workload> <seed> <out_dir>

writes the workload's input files into <out_dir>, loads every one of them
back through the toolkit's own loaders (so a malformed input fails here,
before any timing starts) and writes `inputs.json`, which records the file
names and the designed per-pair failures the correctness checks expect.

The same (workload, seed) always yields byte-identical files. Each workload
carries a fixed share (FAIL_SHARE) of pairs whose summary is a single token:
the dae scorer cannot parse arcs from it, so those cells become failure
sentinels and the per-pair failure policy is exercised on every run.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

FAIL_SHARE = 0.02

SHORT_PAIRS = 2000
SHORT_SPLITS = (("train", 0.7), ("validation", 0.15), ("test", 0.15))

REMOTE_PAIRS = 600
REMOTE_DONE_SHARE = 0.25  # share of cells a crashed run already wrote

LONG_PAIRS = 240
LONG_SPLITS = (("train", 0.5), ("test", 0.5))
LONG_VOCAB = 30_000
LONG_ZIPF_EXPONENT = 1.07
LONG_TOKENS = (640, 760)  # document length in tokens; the mock limit is 512
LONG_SUMMARY_TOKENS = (24, 36)
SYLLABLES = ("ba", "ke", "di", "fo", "gu", "ha", "ji", "ko", "lu", "me",
             "na", "po", "ri", "sa", "te", "vo", "wu", "xi", "yo", "za")

ANALYZE_PAIRS = 20_000
ANALYZE_ANNOTATIONS = 6_000
ANALYZE_SYSTEMS = 16
REPORT_METRICS = ("rouge2", "greedy", "condll", "dae")
REPORT_PAIRS = 5_000  # per metric: 4 x 5000 = 20k paired values
SMALL_REPORT_PAIRS = 16  # <= 20, so the signed-rank test takes the exact path
FILTER_QS = (0.1, 0.25, 0.5)
SCORERS = ("greedy", "condll", "dae")
NO_ARCS_REASON = "NoArcsError: summary yields no dependency arcs (single token)"


def _write_jsonl(path: Path, records) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def _unique_ids(rng: random.Random, prefix: str, n: int) -> list[str]:
    ids: list[str] = []
    seen: set[str] = set()
    while len(ids) < n:
        pair_id = f"{prefix}-{rng.getrandbits(40):010x}"
        if pair_id not in seen:
            seen.add(pair_id)
            ids.append(pair_id)
    return ids


def _split_plan(rng: random.Random, n: int, plan) -> list[str]:
    splits: list[str] = []
    for name, share in plan[:-1]:
        splits += [name] * round(n * share)
    splits += [plan[-1][0]] * (n - len(splits))
    rng.shuffle(splits)
    return splits


def _pick(rng: random.Random, population, share: float) -> set:
    population = list(population)
    return set(rng.sample(population, max(1, round(len(population) * share))))


# ------------------------------------------------------------ short pairs


def toy_vocabulary() -> tuple[list[str], list[str]]:
    """Content words of the bundled toy documents, and the summary-only words."""
    from factfilter.corpus import load_corpus, toy_corpus_path

    doc_words: set[str] = set()
    summary_words: set[str] = set()
    for pair in load_corpus(toy_corpus_path()):
        doc_words.update(pair.document.split())
        summary_words.update(pair.summary.split())
    doc_words.discard(".")
    return sorted(doc_words), sorted(summary_words - doc_words)


def _short_document(rng: random.Random, content: list[str]) -> str:
    sentences = []
    for _ in range(rng.randint(3, 5)):
        words = [rng.choice(content) for _ in range(rng.randint(6, 10))]
        sentences.append(" ".join(words) + " .")
    return " ".join(sentences)


def _short_summary(rng: random.Random, document: str, novel: list[str],
                   weights=(35, 20, 20, 15, 10)) -> str:
    doc_words = [w for w in document.split() if w != "."]
    length = rng.randint(6, 10)
    n_bad = min(rng.choices(range(5), weights=weights)[0], length - 2)
    words = [rng.choice(doc_words) for _ in range(length - n_bad)]
    words += [rng.choice(novel) for _ in range(n_bad)]
    rng.shuffle(words)
    return " ".join(words)


def short_corpus(rng: random.Random, prefix: str, n: int) -> tuple[list[dict], set[str]]:
    """Toy-style pairs; returns the records and the ids with one-token summaries."""
    content, novel = toy_vocabulary()
    ids = _unique_ids(rng, prefix, n)
    splits = _split_plan(rng, n, SHORT_SPLITS)
    failing = _pick(rng, ids, FAIL_SHARE)
    records = []
    for pair_id, split in zip(ids, splits):
        document = _short_document(rng, content)
        if pair_id in failing:
            summary = rng.choice([w for w in document.split() if w != "."])
        else:
            summary = _short_summary(rng, document, novel)
        records.append({"id": pair_id, "document": document, "summary": summary,
                        "split": split, "meta": {"source": "perfbench-short"}})
    return records, failing


def _generated(rng: random.Random, records: list[dict], failing: set[str],
               make) -> list[dict]:
    out = []
    for record in records:
        if record["split"] != "test":
            continue
        if record["id"] in failing:
            summary = rng.choice([w for w in record["document"].split() if w != "."])
        else:
            summary = make(record["document"])
        out.append({"id": record["id"], "summary": summary})
    return out


def gen_short_curate(rng: random.Random, out: Path) -> dict:
    records, failing = short_corpus(rng, "sc", SHORT_PAIRS)
    _write_jsonl(out / "corpus.jsonl", records)
    _, novel = toy_vocabulary()
    test_ids = [r["id"] for r in records if r["split"] == "test"]
    gen_failing = _pick(rng, test_ids, FAIL_SHARE)
    # A model fine-tuned on the full corpus hallucinates more often than one
    # fine-tuned on the filtered selection.
    _write_jsonl(out / "generated_full.jsonl", _generated(
        rng, records, gen_failing,
        lambda doc: _short_summary(rng, doc, novel, (25, 20, 20, 20, 15))))
    _write_jsonl(out / "generated_filtered.jsonl", _generated(
        rng, records, gen_failing,
        lambda doc: _short_summary(rng, doc, novel, (45, 25, 15, 10, 5))))
    return {"corpus": "corpus.jsonl", "generated": ["generated_full.jsonl",
                                                    "generated_filtered.jsonl"],
            "failing_pairs": sorted(failing), "failing_generated": sorted(gen_failing),
            "sweep_seed": rng.randrange(1000)}


# ------------------------------------------------------------- long pairs


def _vocab_word(index: int) -> str:
    digits = []
    for _ in range(4):
        index, digit = divmod(index, len(SYLLABLES))
        digits.append(SYLLABLES[digit])
    return "".join(digits)


def gen_long_truncate(rng: random.Random, out: Path) -> dict:
    vocab = [_vocab_word(i) for i in range(LONG_VOCAB)]
    cum_weights = list(itertools.accumulate(
        1.0 / (rank ** LONG_ZIPF_EXPONENT) for rank in range(1, LONG_VOCAB + 1)))

    def draw(k: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum_weights, k=k)

    def summary_of(doc_words: list[str]) -> str:
        length = rng.randint(*LONG_SUMMARY_TOKENS)
        n_novel = rng.randint(0, length // 4)
        words = [rng.choice(doc_words) for _ in range(length - n_novel)] + draw(n_novel)
        rng.shuffle(words)
        return " ".join(words)

    ids = _unique_ids(rng, "lt", LONG_PAIRS)
    splits = _split_plan(rng, LONG_PAIRS, LONG_SPLITS)
    failing = _pick(rng, ids, FAIL_SHARE)
    records = []
    for pair_id, split in zip(ids, splits):
        target = rng.randint(*LONG_TOKENS)
        tokens: list[str] = []
        while len(tokens) < target:
            tokens += draw(rng.randint(12, 24)) + ["."]
        doc_words = [w for w in tokens if w != "."]
        summary = rng.choice(doc_words) if pair_id in failing else summary_of(doc_words)
        records.append({"id": pair_id, "document": " ".join(tokens), "summary": summary,
                        "split": split, "meta": {"source": "perfbench-long"}})
    _write_jsonl(out / "corpus.jsonl", records)
    test_ids = [r["id"] for r in records if r["split"] == "test"]
    gen_failing = _pick(rng, test_ids, FAIL_SHARE)
    _write_jsonl(out / "generated.jsonl", _generated(
        rng, records, gen_failing,
        lambda doc: summary_of([w for w in doc.split() if w != "."])))
    return {"corpus": "corpus.jsonl", "generated": ["generated.jsonl"],
            "failing_pairs": sorted(failing), "failing_generated": sorted(gen_failing)}


# ---------------------------------------------------------- remote resume


def gen_remote_resume(rng: random.Random, out: Path) -> dict:
    from factfilter.cli import main

    records, failing = short_corpus(rng, "rr", REMOTE_PAIRS)
    _write_jsonl(out / "corpus.jsonl", records)
    # The in-process mock scores of the whole corpus are the reference the
    # resumed remote run must reproduce; a crashed run leaves their prefix.
    full = out / "scores_inprocess.jsonl"
    if main(["score", "--in", str(out / "corpus.jsonl"), "--out", str(full),
             "--scorers", ",".join(SCORERS), "--backend", "mock"]) != 0:
        raise SystemExit("in-process reference scoring failed")
    (out / "scores_inprocess.jsonl.config.json").unlink()
    lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
    done = round(len(lines) * REMOTE_DONE_SHARE)
    (out / "scores_partial.jsonl").write_text("".join(lines[:done]), encoding="utf-8")
    return {"corpus": "corpus.jsonl", "partial_scores": "scores_partial.jsonl",
            "inprocess_scores": "scores_inprocess.jsonl", "cells_done": done,
            "cells_total": len(lines), "failing_pairs": sorted(failing),
            "failing_generated": []}


# ---------------------------------------------------------- analyze large


def _score_row(pair_id: str, scorer: str, value: float | None, truncated: bool) -> dict:
    row = {"pair_id": pair_id, "scorer": scorer, "backend_name": "mock",
           "backend_version": "1"}
    if value is None:
        row.update(value=None, truncated=False, error=NO_ARCS_REASON)
    else:
        row.update(value=value, truncated=truncated)
    return row


def _scores_for(quality: float, rng: random.Random, system_bias: float = 0.0,
                frame_error: bool = False) -> dict[str, float]:
    """Three scorer values that track a latent factual quality in [0, 1]."""
    greedy = min(1.0, max(-1.0, 0.45 + 0.5 * quality + system_bias + rng.gauss(0, 0.08)))
    condll = min(0.0, -2.3 + 2.0 * quality + rng.gauss(0, 0.25))
    dae = quality - (0.35 if frame_error else 0.0) + rng.gauss(0, 0.1)
    return {"greedy": round(greedy, 6), "condll": round(condll, 6),
            "dae": round(min(1.0, max(0.0, dae)), 6)}


def _write_scores(path: Path, ids: list[str], values: dict[str, dict[str, float]],
                  failing: set[str], truncated: set[str]) -> None:
    _write_jsonl(path, (
        _score_row(pid, scorer,
                   None if scorer == "dae" and pid in failing else values[pid][scorer],
                   pid in truncated)
        for scorer in SCORERS for pid in ids))


def _write_report(path: Path, name: str, values: dict[str, dict[str, float]],
                  failures: dict[str, set[str]]) -> None:
    from factfilter.metrics import EvalReport

    report = EvalReport(name, list(values))
    for metric, column in values.items():
        for pid, value in column.items():
            if pid in failures.get(metric, ()):
                report.add_failure(metric, pid, NO_ARCS_REASON)
            else:
                report.add(metric, pid, value)
    report.to_csv(path)


def _paired_reports(rng: random.Random, prefix: str, n: int, out: Path, stem: str) -> None:
    ids = _unique_ids(rng, prefix, n)
    failing = _pick(rng, ids, FAIL_SHARE)
    a: dict[str, dict[str, float]] = {}
    b: dict[str, dict[str, float]] = {}
    for metric in REPORT_METRICS:
        shift = rng.uniform(-0.02, 0.02)
        a[metric] = {pid: round(rng.random(), 6) for pid in ids}
        b[metric] = {pid: round(v + shift + rng.gauss(0, 0.05), 6)
                     for pid, v in a[metric].items()}
    _write_report(out / f"{stem}_a.csv", "analyze", a, {"dae": failing})
    _write_report(out / f"{stem}_b.csv", "analyze", b, {"dae": failing})


def gen_analyze_large(rng: random.Random, out: Path) -> dict:
    from factfilter.validation import CATEGORIES, DATASETS

    content, _ = toy_vocabulary()
    ids = _unique_ids(rng, "al", ANALYZE_PAIRS)
    splits = _split_plan(rng, ANALYZE_PAIRS, SHORT_SPLITS)
    _write_jsonl(out / "corpus.jsonl", (
        {"id": pid, "document": " ".join(rng.choices(content, k=rng.randint(8, 16))),
         "summary": " ".join(rng.choices(content, k=rng.randint(3, 6))),
         "split": split, "meta": {}}
        for pid, split in zip(ids, splits)))
    values = {pid: _scores_for(rng.random(), rng) for pid in ids}
    failing = _pick(rng, ids, FAIL_SHARE)
    truncated = _pick(rng, ids, 0.05)
    _write_scores(out / "scores.jsonl", ids, values, failing, truncated)

    # FRANK-style annotations: per-category error flags, factuality 1 when
    # no error is flagged, systems of differing quality.
    systems = [f"sys{i:02d}" for i in range(ANALYZE_SYSTEMS)]
    quality = {s: rng.uniform(0.3, 0.9) for s in systems}
    rates = {"semantic_frame": 0.35, "discourse": 0.2, "content_verifiability": 0.25}
    summary_ids = _unique_ids(rng, "fr", ANALYZE_ANNOTATIONS)
    annotations = []
    ann_values = {}
    for sid in summary_ids:
        system = rng.choice(systems)
        flags = {cat: rng.random() < rates[cat] * (1.5 - quality[system])
                 for cat in CATEGORIES}
        factuality = 1.0 if not any(flags.values()) else round(
            rng.uniform(0.0, 0.4) + 0.4 * quality[system], 4)
        annotations.append({"summary_id": sid, "dataset": rng.choice(DATASETS),
                            "system": system, "factuality": factuality, "errors": flags})
        ann_values[sid] = _scores_for(factuality, rng, 0.1 * (quality[system] - 0.6),
                                      flags["semantic_frame"])
    _write_jsonl(out / "annotations.jsonl", annotations)
    ann_failing = _pick(rng, summary_ids, FAIL_SHARE)
    _write_scores(out / "annotation_scores.jsonl", summary_ids, ann_values, ann_failing,
                  set())

    _paired_reports(rng, "ev", REPORT_PAIRS, out, "report")
    _paired_reports(rng, "sm", SMALL_REPORT_PAIRS, out, "small")
    return {"corpus": "corpus.jsonl", "scores": "scores.jsonl",
            "annotations": "annotations.jsonl",
            "annotation_scores": "annotation_scores.jsonl",
            "reports": [["report_a.csv", "report_b.csv"], ["small_a.csv", "small_b.csv"]],
            "filter_qs": list(FILTER_QS), "failing_pairs": sorted(failing),
            "failing_generated": []}


GENERATORS = {
    "short_curate": gen_short_curate,
    "long_truncate": gen_long_truncate,
    "remote_resume": gen_remote_resume,
    "analyze_large": gen_analyze_large,
}


def check_inputs(out: Path, spec: dict) -> None:
    """Load every generated file with the toolkit's loader for its kind."""
    from factfilter.corpus import load_corpus
    from factfilter.metrics import EvalReport
    from factfilter.scorers import load_scores
    from factfilter.validation import load_annotations

    corpus = load_corpus(out / spec["corpus"], name="corpus")
    ids = set(corpus.ids())
    for name in spec.get("generated", []):
        for line in (out / name).read_text(encoding="utf-8").splitlines():
            if json.loads(line)["id"] not in ids:
                raise SystemExit(f"{name}: generated summary for an unknown pair")
    for key in ("scores", "partial_scores", "inprocess_scores"):
        if key in spec:
            table = load_scores(out / spec[key], "corpus")
            if not table.ids() <= ids:
                raise SystemExit(f"{spec[key]}: scores for unknown pairs")
    if "annotations" in spec:
        annotations = load_annotations(out / spec["annotations"])
        table = load_scores(out / spec["annotation_scores"], "annotations")
        if {a.summary_id for a in annotations} != table.ids():
            raise SystemExit("annotation scores do not cover the annotations")
    for pair in spec.get("reports", []):
        for name in pair:
            EvalReport.from_csv(out / name)


def generate(workload: str, seed: int, out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    spec = GENERATORS[workload](rng, out)
    check_inputs(out, spec)
    spec.update(workload=workload, seed=seed)
    (out / "inputs.json").write_text(json.dumps(spec, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    return spec


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        raise SystemExit(f"usage: inputs.py {{{','.join(GENERATORS)}}} <seed> <out_dir>")
    generate(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
