"""Acceptance criterion 5's toy chain, run in this process or as a script.

`run_toy_chain(workdir, backend)` runs score -> filter (q=0.25) -> stats ->
evaluate, and score -> sweep over combined, random and single:dae, on a copy
of the toy corpus with the given `--backend` flags, and returns each output's
SHA-256 (the manifest's content hash for the manifest).

`python toy_chain.py WORKDIR` runs it with the mock backend in process and
over the remote protocol, and prints both results as one JSON line.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

from factfilter import FilterManifest, load_corpus
from factfilter.cli import main
from factfilter.corpus import toy_corpus_path


def run_toy_chain(workdir: Path, backend: list[str]) -> dict[str, str]:
    workdir.mkdir()
    toy = workdir / "toy.jsonl"
    shutil.copy(toy_corpus_path(), toy)
    scores = workdir / "scores.jsonl"
    assert main(["score", "--in", str(toy), "--out", str(scores),
                 "--scorers", "greedy,condll,dae", *backend]) == 0
    manifest_path = workdir / "manifest.json"
    assert main(["filter", "--q", "0.25", "--scorers", "greedy,condll,dae",
                 "--scores", str(scores), "--out", str(manifest_path),
                 "--corpus-name", "toy"]) == 0
    stats_path = workdir / "stats.csv"
    assert main(["stats", "--in", str(toy), "--manifest", str(manifest_path),
                 "--scores", str(scores), "--out", str(stats_path)]) == 0
    corpus = load_corpus(toy, name="toy")
    generated = workdir / "generated.jsonl"
    with generated.open("w", encoding="utf-8") as handle:
        for pair in corpus.split_pairs("test"):
            handle.write(json.dumps({"id": pair.id, "summary": pair.summary}) + "\n")
    report_path = workdir / "report.csv"
    assert main(["evaluate", "--in", str(toy), "--generated", str(generated),
                 "--out", str(report_path), "--manifest", str(manifest_path), *backend]) == 0
    sweep_path = workdir / "sweep.csv"
    assert main(["sweep", "--in", str(toy), "--scores", str(scores), "--out", str(sweep_path),
                 "--strategies", "combined,random,single:dae", *backend]) == 0
    sha = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
    return {
        "manifest_hash": FilterManifest.load(manifest_path).content_hash(),
        "scores": sha(scores),
        "stats": sha(stats_path),
        "distributions": sha(workdir / "stats_distributions.csv"),
        "report": sha(report_path),
        "sweep": sha(sweep_path),
    }


if __name__ == "__main__":
    out = Path(sys.argv[1])
    remote = ["--backend", "remote",
              "--remote-command", f"{sys.executable} -m factfilter.remote --backend mock"]
    print(json.dumps({"in process": run_toy_chain(out / "in_process", ["--backend", "mock"]),
                      "remote": run_toy_chain(out / "remote", remote)}))
