"""The four workloads: the CLI chain one pass runs, and the checks on its outputs.

A pass runs each command through `factfilter.cli.main` in this process, with
files in and files out, exactly as a user would chain the stages. Only
`remote_resume` starts a process: the `python -m factfilter.remote` server
that the `score` command itself spawns.

The checks recompute what the mock backend must produce from its documented
rules (token-identity log-probabilities and arc entailment, exact 1.0 greedy
matches, truncation past the token limit) and the percentile-intersection
selection, independently of the toolkit's code. They run once per run, on the
first pass; every later pass must reproduce the first pass's bytes.
"""

from __future__ import annotations

import csv
import json
import math
import shlex
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

SCORERS = "greedy,condll,dae"
MOCK_MAX_TOKENS = 512
LOGPROB_PRESENT = math.log(0.9)
LOGPROB_ABSENT = math.log(0.1)
TOLERANCE = 1e-12

STAGES = {
    "score": "score_s",
    "filter": "filter_s",
    "stats": "stats_s",
    "evaluate": "evaluate_s",
    "compare": "compare_s",
    "sweep": "sweep_s",
    "validate-frank": "validate_s",
    "flip-analysis": "flip_s",
}


class CheckFailed(Exception):
    """An output differs from what the inputs and the mock rules determine."""


def remote_command() -> str:
    return shlex.join([sys.executable, "-m", "factfilter.remote", "--backend", "mock"])


# ---------------------------------------------------------------- chains


def short_curate(inp: Path, out: Path, spec: dict, backend: list[str]) -> list[list[str]]:
    corpus, scores, manifest = str(inp / spec["corpus"]), str(out / "scores.jsonl"), \
        str(out / "manifest.json")
    full, filtered = spec["generated"]
    return [
        ["score", "--in", corpus, "--out", scores, "--scorers", SCORERS, *backend],
        ["filter", "--scores", scores, "--out", manifest, "--q", "0.25",
         "--corpus-name", "corpus"],
        ["stats", "--in", corpus, "--out", str(out / "stats.csv"), "--manifest", manifest,
         "--scores", scores],
        ["evaluate", "--in", corpus, "--generated", str(inp / full),
         "--out", str(out / "report_full.csv"), "--manifest", manifest, *backend],
        ["evaluate", "--in", corpus, "--generated", str(inp / filtered),
         "--out", str(out / "report_filtered.csv"), "--manifest", manifest, *backend],
        ["compare", "--report-a", str(out / "report_full.csv"),
         "--report-b", str(out / "report_filtered.csv"), "--out", str(out / "compare.csv")],
        ["sweep", "--in", corpus, "--scores", scores, "--out", str(out / "sweep.csv"),
         "--strategies", "combined,random,single:greedy", "--thresholds", "0.4",
         "--seed", str(spec["sweep_seed"]), *backend],
    ]


def long_truncate(inp: Path, out: Path, spec: dict, backend: list[str]) -> list[list[str]]:
    corpus = str(inp / spec["corpus"])
    return [
        ["score", "--in", corpus, "--out", str(out / "scores.jsonl"), "--scorers", SCORERS,
         *backend],
        ["evaluate", "--in", corpus, "--generated", str(inp / spec["generated"][0]),
         "--out", str(out / "report.csv"), "--metrics", "greedy,condll,dae,blanc",
         *backend],
    ]


def remote_resume(inp: Path, out: Path, spec: dict, backend: list[str]) -> list[list[str]]:
    return [["score", "--in", str(inp / spec["corpus"]), "--out", str(out / "scores.jsonl"),
             "--scorers", SCORERS, *backend]]


def analyze_large(inp: Path, out: Path, spec: dict, backend: list[str]) -> list[list[str]]:
    scores = str(inp / spec["scores"])
    commands = [["filter", "--scores", scores, "--out", str(out / f"manifest_q{q}.json"),
                 "--q", str(q), "--corpus-name", "corpus"] for q in spec["filter_qs"]]
    commands.append(["stats", "--in", str(inp / spec["corpus"]), "--out",
                     str(out / "stats.csv"), "--manifest",
                     str(out / f"manifest_q{spec['filter_qs'][1]}.json"), "--scores", scores])
    ann = ["--annotations", str(inp / spec["annotations"]),
           "--scores", str(inp / spec["annotation_scores"])]
    commands.append(["validate-frank", *ann, "--out", str(out / "validate.csv")])
    commands.append(["flip-analysis", *ann, "--out", str(out / "flip.csv")])
    for index, (a, b) in enumerate(spec["reports"]):
        commands.append(["compare", "--report-a", str(inp / a), "--report-b", str(inp / b),
                         "--out", str(out / f"compare_{index}.csv")])
    return commands


def prepare_resume(inp: Path, out: Path, spec: dict) -> None:
    """Leave the scores file as a run that crashed part-way left it."""
    shutil.copyfile(inp / spec["partial_scores"], out / "scores.jsonl")


@dataclass(frozen=True)
class Workload:
    chain: Callable[[Path, Path, dict, list[str]], list[list[str]]]
    backend: str | None  # "mock", "remote", or None when no stage needs one
    prepare: Callable[[Path, Path, dict], None] | None = None
    # Run the benchmark process, and so the server it spawns, on one CPU: a
    # round trip is then two context switches on that CPU, timed against the
    # reference loop on the same CPU, instead of a cross-CPU wake-up whose
    # latency moves with the host's other load (on a shared 2-vCPU VM the
    # unpinned remote pass time spread over 50% between seeds).
    one_cpu: bool = False

    def backend_args(self, traced: bool) -> list[str]:
        if self.backend is None:
            return []
        if traced:
            return ["--backend", f"traced-{self.backend}"]
        if self.backend == "remote":
            return ["--backend", "remote", "--remote-command", remote_command()]
        return ["--backend", "mock"]


WORKLOADS = {
    "short_curate": Workload(short_curate, "mock"),
    "long_truncate": Workload(long_truncate, "mock"),
    "remote_resume": Workload(remote_resume, "remote", prepare_resume, one_cpu=True),
    "analyze_large": Workload(analyze_large, None),
}


# ---------------------------------------------------------------- checks


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _expected_value(scorer: str, document: str, summary: str) -> tuple[float | None, bool]:
    """What the mock backend yields; (None, truncated) for a single-token dae cell.

    Greedy is checked only for its exact case: the mean is 1.0 exactly when
    every summary token occurs in the (truncated) document; NaN stands for
    "strictly below 1".
    """
    doc_tokens = document.split()
    truncated = len(doc_tokens) > MOCK_MAX_TOKENS
    vocabulary = set(doc_tokens[:MOCK_MAX_TOKENS])
    tokens = summary.split()
    if scorer == "greedy":
        return (1.0 if all(t in vocabulary for t in tokens) else math.nan), truncated
    if scorer == "condll":
        return sum(LOGPROB_PRESENT if t in vocabulary else LOGPROB_ABSENT
                   for t in tokens) / len(tokens), truncated
    if len(tokens) < 2:
        return None, truncated
    head = tokens[(len(tokens) - 1) // 2]
    if head not in vocabulary:
        return 0.0, truncated
    children = [t for i, t in enumerate(tokens) if i != (len(tokens) - 1) // 2]
    return sum(1.0 for t in children if t in vocabulary) / len(children), truncated


def _check_value(where: str, got: float | None, expected: float | None) -> None:
    if expected is None or got is None:
        if got is not expected:
            raise CheckFailed(f"{where}: got {got!r}, expected {expected!r}")
    elif math.isnan(expected):
        if not -1.0 <= got < 1.0:
            raise CheckFailed(f"{where}: greedy {got!r} should lie below 1.0")
    elif abs(got - expected) > TOLERANCE:
        raise CheckFailed(f"{where}: got {got!r}, expected {expected!r}")


def check_scores(corpus: list[dict], scores_path: Path, failing: set[str]) -> None:
    """Every cell, in canonical order, against the mock backend's rules."""
    rows = _read_jsonl(scores_path)
    expected_keys = [(scorer, pair["id"]) for scorer in SCORERS.split(",")
                     for pair in corpus]
    if [(r["scorer"], r["pair_id"]) for r in rows] != expected_keys:
        raise CheckFailed(f"{scores_path.name}: cells missing, extra or out of order")
    by_id = {pair["id"]: pair for pair in corpus}
    for row in rows:
        pair = by_id[row["pair_id"]]
        value, truncated = _expected_value(row["scorer"], pair["document"], pair["summary"])
        where = f"{scores_path.name}: {row['scorer']} {row['pair_id']}"
        _check_value(where, row["value"], value)
        if value is None and pair["id"] not in failing:
            raise CheckFailed(f"{where}: undesigned failure")
        if row["value"] is not None and row["truncated"] != truncated:
            raise CheckFailed(f"{where}: truncated flag {row['truncated']}")


def check_report(corpus: list[dict], generated: Path, report: Path,
                 failing: set[str]) -> None:
    """Reference-free metric rows of an evaluation report against the mock rules."""
    summaries = {r["id"]: r["summary"] for r in _read_jsonl(generated)}
    documents = {pair["id"]: pair["document"] for pair in corpus}
    failures: set[str] = set()
    checked = 0
    with report.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    for record, pair_id, metric, value, *_ in rows[1:]:
        if metric not in ("greedy", "condll", "dae") or record not in ("pair", "failure"):
            continue
        expected, _ = _expected_value(metric, documents[pair_id], summaries[pair_id])
        got = float(value) if record == "pair" else None
        _check_value(f"{report.name}: {metric} {pair_id}", got, expected)
        if got is None:
            failures.add(pair_id)
        checked += 1
    if failures != failing or checked == 0:
        raise CheckFailed(f"{report.name}: failures {sorted(failures)[:5]} are not the "
                          f"designed ones {sorted(failing)[:5]}")


def _score_columns(scores_path: Path) -> dict[str, dict[str, float | None]]:
    columns: dict[str, dict[str, float | None]] = {}
    for row in _read_jsonl(scores_path):
        columns.setdefault(row["scorer"], {})[row["pair_id"]] = row["value"]
    return columns


def check_manifest(columns: dict[str, dict[str, float | None]], manifest_path: Path) -> None:
    """Recompute the percentile-intersection selection from the score columns."""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    q = manifest["q"]
    population = set.intersection(*({pid for pid, v in col.items() if v is not None}
                                    for col in columns.values()))
    kept: set[str] | None = None
    for column in columns.values():
        ranked = sorted(population, key=lambda pid: (column[pid], pid))
        keep = set(ranked[len(ranked) - math.ceil((1.0 - q) * len(ranked)):])
        kept = keep if kept is None else kept & keep
    if sorted(kept or ()) != manifest["kept_ids"] or manifest["n_pairs"] != len(population):
        raise CheckFailed(f"{manifest_path.name}: kept ids differ from the recomputed "
                          f"percentile intersection at q={q}")


def check_outputs(workload: str, inp: Path, out: Path, spec: dict) -> None:
    """Independent checks on one pass's outputs; raises CheckFailed."""
    if workload == "analyze_large":
        columns = _score_columns(inp / spec["scores"])
        for q in spec["filter_qs"]:
            check_manifest(columns, out / f"manifest_q{q}.json")
        return
    corpus = _read_jsonl(inp / spec["corpus"])
    failing = set(spec["failing_pairs"])
    check_scores(corpus, out / "scores.jsonl", failing)
    if workload == "remote_resume":
        reference = (inp / spec["inprocess_scores"]).read_bytes()
        if (out / "scores.jsonl").read_bytes() != reference:
            raise CheckFailed("resumed remote scores differ from the in-process scores")
        return
    if workload == "short_curate":
        check_manifest(_score_columns(out / "scores.jsonl"), out / "manifest.json")
        pairs = zip(spec["generated"], ("report_full.csv", "report_filtered.csv"))
    else:
        pairs = zip(spec["generated"], ("report.csv",))
    for generated, report in pairs:
        check_report(corpus, inp / generated, out / report, set(spec["failing_generated"]))
