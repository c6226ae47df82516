"""The benchmark's tracer still sees the toolkit.

`perfbench/tracing.py` wraps toolkit functions by their module attribute
names and the sweep hook factory by its signature, so a rename would leave a
traced run measuring nothing without failing it. This runs the toy `score`
and `sweep` under its shim and checks that the layers it names were seen,
and the toy `filter`, `stats`, `evaluate` and `compare` likewise.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import pytest

from factfilter import backend as backend_module
from factfilter.cli import main
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.experiments import SweepSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def shim(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # The shim registers its traced backends; they leave with this copy.
    monkeypatch.setattr(backend_module, "_BACKENDS", dict(backend_module._BACKENDS))
    import tracing

    shim = tracing.Shim([sys.executable, "-m", "factfilter.remote", "--backend", "mock"])
    shim.install()
    yield shim
    shim.uninstall()


def test_a_traced_toy_score_and_sweep_reach_every_wrapped_layer(tmp_path, shim):
    toy = tmp_path / "toy.jsonl"
    shutil.copy(toy_corpus_path(), toy)
    scores = tmp_path / "scores.jsonl"
    for argv in (["score", "--in", str(toy), "--out", str(scores),
                  "--scorers", "greedy,condll,dae"],
                 ["sweep", "--in", str(toy), "--scores", str(scores),
                  "--out", str(tmp_path / "sweep.csv")]):
        assert shim.call(main, [*argv, "--backend", "traced-mock"]) == 0
    layers = shim.tracer.layer_metrics()
    spec = SweepSpec()
    assert layers["experiments.eval_hook.calls"] == len(spec.thresholds) * len(spec.strategies)
    assert layers["scorers.cells"] > 0
    assert layers["backend.embed_tokens.calls"] > 0


def test_a_traced_toy_filter_stats_evaluate_and_compare_reach_every_wrapped_layer(tmp_path,
                                                                                   shim):
    toy = tmp_path / "toy.jsonl"
    shutil.copy(toy_corpus_path(), toy)
    scores, manifest = tmp_path / "scores.jsonl", tmp_path / "manifest.json"
    assert main(["score", "--in", str(toy), "--out", str(scores),
                 "--scorers", "greedy,condll,dae"]) == 0
    test_pairs = load_corpus(toy).split_pairs("test")
    reports = [tmp_path / "report_a.csv", tmp_path / "report_b.csv"]
    commands = [["filter", "--scores", str(scores), "--out", str(manifest),
                 "--corpus-name", "toy"],
                ["stats", "--in", str(toy), "--out", str(tmp_path / "stats.csv"),
                 "--manifest", str(manifest), "--scores", str(scores)]]
    for report, suffix in zip(reports, ("", " extra trailing words")):
        generated = report.with_suffix(".jsonl")
        generated.write_text("".join(json.dumps({"id": pair.id, "summary": pair.summary + suffix})
                                     + "\n" for pair in test_pairs), encoding="utf-8")
        commands.append(["evaluate", "--in", str(toy), "--generated", str(generated),
                         "--out", str(report), "--manifest", str(manifest),
                         "--backend", "traced-mock"])
    commands.append(["compare", "--report-a", str(reports[0]), "--report-b", str(reports[1]),
                     "--out", str(tmp_path / "compare.csv")])
    for argv in commands:
        assert shim.call(main, argv) == 0
    layers = shim.tracer.layer_metrics()
    for name in ("filtration.intersect_filter.calls", "filtration.apply_manifest.s",
                 "corpus.corpus_stats.s", "experiments.distribution_report.s",
                 "metrics.blanc_help.calls", "metrics.report_io.s",
                 "stats.wilcoxon_signed_rank.calls"):
        assert layers[name] > 0, name
