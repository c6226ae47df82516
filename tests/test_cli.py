from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from factfilter import FilterManifest, load_corpus
from factfilter.cli import main
from factfilter.corpus import toy_corpus_path
from factfilter.validation import CATEGORIES


@pytest.fixture()
def toy(tmp_path):
    """Toy corpus copied into a scratch dir so the CLI names it 'toy'."""
    corpus_file = tmp_path / "toy.jsonl"
    shutil.copy(toy_corpus_path(), corpus_file)
    return corpus_file


def _generated(tmp_path, toy):
    """The toy test pairs' reference summaries as a generated-summaries file."""
    path = tmp_path / "generated.jsonl"
    path.write_text("".join(json.dumps({"id": pair.id, "summary": pair.summary}) + "\n"
                            for pair in load_corpus(toy).split_pairs("test")))
    return path


def _score(tmp_path, toy):
    scores = tmp_path / "scores.jsonl"
    code = main(["score", "--in", str(toy), "--out", str(scores),
                 "--scorers", "greedy,condll,dae", "--backend", "mock"])
    assert code == 0
    return scores


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys):
        assert main(["filter", "--out", str(tmp_path / "m.json")]) == 1
        assert "--scores" in capsys.readouterr().err

    def test_data_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        record = {"id": "a", "document": "doc text", "summary": "sum text",
                  "split": "train", "meta": {}}
        bad.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        assert main(["ingest", "--in", str(bad), "--out", str(tmp_path / "o.jsonl")]) == 2

    def test_backend_error_exits_three(self, tmp_path, toy):
        code = main(["score", "--in", str(toy), "--out", str(tmp_path / "s.jsonl"),
                     "--scorers", "greedy", "--backend", "remote",
                     "--remote-command", f"{sys.executable} -c pass"])
        assert code == 3

    def test_unknown_backend_is_configuration_error(self, tmp_path, toy):
        code = main(["score", "--in", str(toy), "--out", str(tmp_path / "s.jsonl"),
                     "--scorers", "greedy", "--backend", "nope"])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["evaluate", "--metrics", "bogus"], ["sweep", "--strategies", "bogus"],
        ["sweep", "--strategies", "single:"],
    ], ids=["metric", "strategy", "empty-single-scorer"])
    def test_unknown_metric_or_strategy_is_configuration_error(self, tmp_path, toy,
                                                              capsys, command):
        inputs = ["--generated", str(_generated(tmp_path, toy))] if command[0] == "evaluate" \
            else ["--scores", str(_score(tmp_path, toy))]
        code = main([*command, *inputs, "--in", str(toy), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "configuration error: unknown" in capsys.readouterr().err


class TestFlagsParseBeforeTheRun:
    """Every flag is parsed and checked before the command reads an input,
    starts a backend or writes its config echo."""

    @pytest.mark.parametrize("command, message", [
        (["evaluate", "--in", "{toy}", "--generated", "{generated}", "--metrics", "rouge2,bogus",
          "--backend", "remote", "--remote-command", "{server}"],
         "configuration error: unknown metrics ['bogus']"),
        (["score", "--in", "{toy}", "--scorers", "greedy", "--backend", "remote"],
         "configuration error: --remote-command is required with --backend remote"),
        (["score", "--in", "{toy}", "--scorers", "greedy", "--corpus-name", "toy"],
         "unrecognized arguments: --corpus-name toy"),
        (["sweep", "--in", "{toy}", "--scores", "scores.jsonl", "--corpus-name", "toy"],
         "unrecognized arguments: --corpus-name toy"),
        (["ingest", "--in", "{toy}", "--name", "toy"], "unrecognized arguments: --name toy"),
        (["score", "--in", "{toy}", "--scorers", "greedy,greedy"],
         "configuration error: --scorers repeats an item: ['greedy', 'greedy']"),
        (["filter", "--scores", "scores.jsonl", "--scorers", "dae,greedy,dae"],
         "configuration error: --scorers repeats an item: ['dae', 'greedy', 'dae']"),
        (["evaluate", "--in", "{toy}", "--generated", "{generated}",
          "--metrics", "greedy,greedy"],
         "configuration error: --metrics repeats an item: ['greedy', 'greedy']"),
        (["score", "--in", "{toy}", "--scorers", "greedy", "--backend", "nope"],
         "configuration error: unknown backend 'nope'; registered: "),
    ], ids=["unknown-metric", "remote-without-command", "score-corpus-name",
            "sweep-corpus-name", "ingest-name", "score-repeated-scorer",
            "filter-repeated-scorer", "evaluate-repeated-metric", "unknown-backend"])
    def test_a_rejected_flag_starts_no_server_and_writes_no_echo(self, tmp_path, toy, capsys,
                                                                 monkeypatch, command, message):
        from factfilter import remote

        spawned = []
        popen = subprocess.Popen
        monkeypatch.setattr(remote.subprocess, "Popen",
                            lambda *args, **kwargs: spawned.append(popen(*args, **kwargs))
                            or spawned[-1])
        inputs = {"generated": _generated(tmp_path, toy), "toy": str(toy),
                  "server": f"{sys.executable} -m factfilter.remote --backend mock"}
        before = sorted(tmp_path.iterdir())
        argv = [arg.format(**inputs) for arg in command]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err
        assert spawned == []
        assert sorted(tmp_path.iterdir()) == before

    def test_descending_thresholds_fail_before_the_inputs_are_read(self, tmp_path, capsys):
        code = main(["sweep", "--in", str(tmp_path / "missing.jsonl"),
                     "--scores", str(tmp_path / "missing_scores.jsonl"),
                     "--out", str(tmp_path / "sweep.csv"), "--thresholds", "0.4,0.1"])
        assert code == 2
        assert "data error: thresholds must be strictly ascending" in capsys.readouterr().err

    def test_an_out_in_a_missing_directory_is_an_io_error(self, tmp_path, toy, capsys):
        assert main(["ingest", "--in", str(toy),
                     "--out", str(tmp_path / "missing" / "c.jsonl")]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")


class TestIngest:
    def test_canonicalizes(self, tmp_path, toy):
        out = tmp_path / "canonical.jsonl"
        assert main(["ingest", "--in", str(toy), "--out", str(out)]) == 0
        assert load_corpus(out).ids() == load_corpus(toy).ids()

    def test_writes_config_echo(self, tmp_path, toy):
        out = tmp_path / "c.jsonl"
        main(["ingest", "--in", str(toy), "--out", str(out)])
        echo = json.loads((tmp_path / "c.jsonl.config.json").read_text())
        assert echo["command"] == "ingest"
        assert echo["in_path"] == str(toy)


class TestScore:
    def test_toy_corpus_yields_150_rows(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        rows = [json.loads(line) for line in scores.read_text().splitlines()]
        assert len(rows) == 150
        assert {row["scorer"] for row in rows} == {"greedy", "condll", "dae"}

    def test_rerun_is_resumable_and_byte_stable(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        before = scores.read_bytes()
        assert main(["score", "--in", str(toy), "--out", str(scores),
                     "--scorers", "greedy,condll,dae", "--backend", "mock"]) == 0
        assert scores.read_bytes() == before

    def test_remote_backend_matches_local(self, tmp_path, toy):
        local = _score(tmp_path, toy)
        remote_dir = tmp_path / "remote"
        remote_dir.mkdir()
        remote_out = remote_dir / "scores.jsonl"
        code = main(["score", "--in", str(toy), "--out", str(remote_out),
                     "--scorers", "greedy,condll,dae", "--backend", "remote",
                     "--remote-command",
                     f"{sys.executable} -m factfilter.remote --backend mock"])
        assert code == 0
        local_rows = [json.loads(l) for l in local.read_text().splitlines()]
        remote_rows = [json.loads(l) for l in remote_out.read_text().splitlines()]
        for row in local_rows + remote_rows:
            row["backend_name"] = "x"  # provenance differs; values must not
        assert remote_rows == local_rows

    def test_env_registered_backend(self, tmp_path, toy, monkeypatch):
        registry = tmp_path / "extra_backends.py"
        registry.write_text(
            "from factfilter.backend import MockBackend, register_backend\n"
            "register_backend('mock-wide', lambda: MockBackend(dim=8))\n")
        monkeypatch.setenv("FACTFILTER_BACKENDS", str(registry))
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--in", str(toy), "--out", str(out),
                     "--scorers", "greedy", "--backend", "mock-wide"]) == 0
        assert len(out.read_text().splitlines()) == 50

    def test_the_server_serves_an_env_registered_backend(self, tmp_path, toy,
                                                         monkeypatch):
        from factfilter import backend as backend_module

        marker = tmp_path / "closed.txt"
        registry = tmp_path / "extra_backends.py"
        registry.write_text(
            "import os\n"
            "from factfilter.backend import MockBackend, register_backend\n"
            "class Mine(MockBackend):\n"
            "    def close(self):\n"
            f"        with open({str(marker)!r}, 'a') as handle:\n"
            "            handle.write(f'{os.getpid()}\\n')\n"
            "register_backend('mine', Mine, replace=True)\n")
        monkeypatch.setenv("FACTFILTER_BACKENDS", str(registry))
        monkeypatch.setattr(backend_module, "_BACKENDS", dict(backend_module._BACKENDS))
        served = tmp_path / "served.jsonl"
        assert main(["score", "--in", str(toy), "--out", str(served),
                     "--scorers", "greedy,condll,dae", "--backend", "remote",
                     "--remote-command",
                     f"{sys.executable} -m factfilter.remote --backend mine"]) == 0
        # The server closed its backend before it exited, and `close` waited for that.
        (server_pid,) = marker.read_text().split()
        assert int(server_pid) != os.getpid()
        in_process = tmp_path / "in_process.jsonl"
        assert main(["score", "--in", str(toy), "--out", str(in_process),
                     "--scorers", "greedy,condll,dae", "--backend", "mine"]) == 0
        assert served.read_bytes() == in_process.read_bytes()

    def test_a_registry_runs_once_per_process(self, tmp_path, toy, monkeypatch):
        from factfilter import backend as backend_module

        registry = tmp_path / "extra_backends.py"
        registry.write_text(
            "from factfilter.backend import MockBackend, register_backend\n"
            "register_backend('once', MockBackend)\n")  # no replace=True
        monkeypatch.setenv("FACTFILTER_BACKENDS", str(registry))
        monkeypatch.setattr(backend_module, "_BACKENDS", dict(backend_module._BACKENDS))
        outputs = []
        for run in range(2):
            out = tmp_path / f"scores-{run}.jsonl"
            assert main(["score", "--in", str(toy), "--out", str(out),
                         "--scorers", "greedy", "--backend", "once"]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_the_server_reports_a_configuration_error_in_one_line(self):
        done = subprocess.run([sys.executable, "-m", "factfilter.remote", "--backend", "nope"],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=60, check=False)
        assert done.returncode == 1
        assert done.stderr == ("configuration error: unknown backend 'nope'; "
                               "registered: mock, remote\n")


class TestBackendLifetime:
    """Each backend-using command opens its backend in a `with` block."""

    def test_a_backend_without_close_scores_the_mock_bytes(self, tmp_path, toy,
                                                           monkeypatch):
        from factfilter import backend as backend_module
        from factfilter.backend import MockBackend

        class Plain(MockBackend):  # defines no close of its own
            pass

        assert "close" not in vars(Plain) and "close" not in vars(MockBackend)
        monkeypatch.setitem(backend_module._BACKENDS, "plain", Plain)
        out = tmp_path / "plain.jsonl"
        assert main(["score", "--in", str(toy), "--out", str(out),
                     "--scorers", "greedy,condll,dae", "--backend", "plain"]) == 0
        assert out.read_bytes() == _score(tmp_path, toy).read_bytes()

    def test_score_sweep_and_evaluate_close_their_backend(self, tmp_path, toy,
                                                          monkeypatch):
        from factfilter import backend as backend_module
        from test_backend import ClosingMock

        opened = []
        monkeypatch.setitem(backend_module._BACKENDS, "closing",
                            lambda: opened.append(ClosingMock()) or opened[-1])
        for command in (["score", "--scorers", "greedy", "--out", str(tmp_path / "s.jsonl")],
                        ["sweep", "--scores", str(_score(tmp_path, toy)), "--thresholds",
                         "0.25", "--out", str(tmp_path / "sweep.csv")],
                        ["evaluate", "--generated", str(_generated(tmp_path, toy)),
                         "--metrics", "blanc",
                         "--out", str(tmp_path / "r.csv")]):
            assert main([*command, "--in", str(toy), "--backend", "closing"]) == 0
        assert [backend.closed for backend in opened] == [1, 1, 1]


class TestFilterCommand:
    def test_filter_and_refilter_identical_manifest(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        manifest_path = tmp_path / "manifest.json"
        args = ["filter", "--q", "0.25", "--scorers", "greedy,condll,dae",
                "--scores", str(scores), "--out", str(manifest_path),
                "--corpus-name", "toy"]
        assert main(args) == 0
        first = manifest_path.read_bytes()
        first_hash = FilterManifest.load(manifest_path).content_hash()
        assert main(args) == 0
        assert manifest_path.read_bytes() == first
        assert FilterManifest.load(manifest_path).content_hash() == first_hash

    def test_default_q_is_quarter(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        manifest_path = tmp_path / "manifest.json"
        assert main(["filter", "--scores", str(scores), "--out", str(manifest_path),
                     "--corpus-name", "toy"]) == 0
        assert FilterManifest.load(manifest_path).q == 0.25

    @pytest.mark.parametrize("change", [
        {}, {"backend_version": "2", "pair_id": "b"}, {"value": -1.5, "pair_id": "b"},
        {"value": float("inf"), "pair_id": "b"}, {"truncated": "false", "pair_id": "b"},
    ], ids=["duplicate", "mixed-provenance", "out-of-range", "non-finite", "string-flag"])
    def test_bad_score_row_exits_two_naming_its_line(self, tmp_path, capsys, change):
        row = {"pair_id": "a", "scorer": "greedy", "backend_name": "mock",
               "backend_version": "1", "value": 0.5, "truncated": False}
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps(row) + "\n" + json.dumps({**row, **change}) + "\n")
        assert main(["filter", "--scores", str(scores), "--out", str(tmp_path / "m.json"),
                     "--corpus-name", "c"]) == 2
        assert f"{scores}:2: " in capsys.readouterr().err


class TestStatsCommand:
    def test_full_and_selection_rows(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        manifest_path = tmp_path / "manifest.json"
        main(["filter", "--scores", str(scores), "--out", str(manifest_path),
              "--corpus-name", "toy"])
        out = tmp_path / "stats.csv"
        assert main(["stats", "--in", str(toy), "--manifest", str(manifest_path),
                     "--scores", str(scores), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("record,corpus,n_pairs")
        assert lines[1].startswith("full,toy,50")
        assert lines[2].startswith("selection,toy,")
        dist = tmp_path / "stats_distributions.csv"
        assert dist.exists()
        assert len(dist.read_text().splitlines()) == 1 + 3 * (5 + 10)

    def test_scores_missing_a_corpus_pair_exit_two(self, tmp_path, toy, capsys):
        scores = _score(tmp_path, toy)
        first = json.loads(scores.read_text().splitlines()[0])["pair_id"]
        scores.write_text("".join(line for line in scores.read_text().splitlines(keepends=True)
                                  if json.loads(line)["pair_id"] != first))
        assert main(["stats", "--in", str(toy), "--scores", str(scores),
                     "--out", str(tmp_path / "stats.csv")]) == 2
        assert "missing 1 pairs" in capsys.readouterr().err
        assert not (tmp_path / "stats.csv").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda text: "[1, 2]",
        lambda text: json.dumps({**json.loads(text), "scorer_names": 5}),
        lambda text: json.dumps({**json.loads(text), "q": "x"}),
        lambda text: text.replace("{", "{\udcff", 1),  # the byte 0xff
    ], ids=["list", "int-scorer-names", "string-q", "non-utf8"])
    def test_malformed_manifest_is_a_parse_error_naming_it(self, tmp_path, toy, capsys,
                                                           corrupt):
        from factfilter.errors import ParseError

        manifest = tmp_path / "manifest.json"
        assert main(["filter", "--scores", str(_score(tmp_path, toy)),
                     "--out", str(manifest)]) == 0
        manifest.write_bytes(corrupt(manifest.read_text(encoding="utf-8"))
                             .encode("utf-8", "surrogateescape"))
        with pytest.raises(ParseError, match=f"^{re.escape(str(manifest))}:"):
            FilterManifest.load(manifest)
        capsys.readouterr()
        assert main(["stats", "--in", str(toy), "--manifest", str(manifest),
                     "--out", str(tmp_path / "stats.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: {manifest}:")

    def test_a_parse_error_without_a_line_puts_a_space_after_the_path(self, tmp_path, toy,
                                                                       capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{not json", encoding="utf-8")
        assert main(["stats", "--in", str(toy), "--manifest", str(manifest),
                     "--out", str(tmp_path / "stats.csv")]) == 2
        assert capsys.readouterr().err.startswith(
            f"data error: {manifest}: invalid manifest JSON: ")

    def test_manifest_breaking_its_invariants_keeps_its_error_class(self, tmp_path, toy):
        from factfilter.errors import DomainError

        manifest = tmp_path / "manifest.json"
        assert main(["filter", "--scores", str(_score(tmp_path, toy)),
                     "--out", str(manifest)]) == 0
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "q": 1.5}))
        with pytest.raises(DomainError, match="outside"):
            FilterManifest.load(manifest)


class TestEvaluateAndCompare:
    def _generated(self, toy, tmp_path, jitter=False):
        corpus = load_corpus(toy, name="toy")
        path = tmp_path / ("gen_b.jsonl" if jitter else "gen_a.jsonl")
        with path.open("w") as handle:
            for pair in corpus.split_pairs("test"):
                summary = pair.summary + " extra trailing words" if jitter else pair.summary
                handle.write(json.dumps({"id": pair.id, "summary": summary}) + "\n")
        return path

    def test_evaluate_and_compare_pipeline(self, tmp_path, toy):
        gen_a = self._generated(toy, tmp_path)
        gen_b = self._generated(toy, tmp_path, jitter=True)
        report_a = tmp_path / "report_a.csv"
        report_b = tmp_path / "report_b.csv"
        for gen, out in ((gen_a, report_a), (gen_b, report_b)):
            assert main(["evaluate", "--in", str(toy), "--generated", str(gen),
                         "--out", str(out), "--backend", "mock"]) == 0
        comparison = tmp_path / "comparison.csv"
        assert main(["compare", "--report-a", str(report_a),
                     "--report-b", str(report_b), "--out", str(comparison)]) == 0
        lines = comparison.read_text().strip().splitlines()
        assert lines[0].startswith("metric,mean_a,mean_b")
        assert len(lines) == 6  # five metrics

    @pytest.mark.parametrize("corpus_name, split, message", [
        ("other", "test", "manifest is for corpus 'other', got 'toy'"),
        ("toy", "train", "manifest keeps no test pairs"),
    ], ids=["other-corpus", "no-test-pair"])
    def test_a_manifest_that_does_not_fit_exits_two(self, tmp_path, toy, capsys,
                                                    corpus_name, split, message):
        kept = tuple(sorted(pair.id for pair in load_corpus(toy).split_pairs(split)))
        manifest = tmp_path / "manifest.json"
        FilterManifest(corpus_name=corpus_name, scorer_names=(), q=0.25,
                       per_scorer_thresholds={}, kept_ids=kept, n_pairs=50,
                       selection_ratio=len(kept) / 50, created_with={}).save(manifest)
        assert main(["evaluate", "--in", str(toy), "--generated", str(_generated(tmp_path, toy)),
                     "--out", str(tmp_path / "r.csv"), "--manifest", str(manifest),
                     "--metrics", "rouge2"]) == 2
        assert f"data error: {message}" in capsys.readouterr().err

    def test_missing_generated_id_exits_two(self, tmp_path, toy):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"id": "toy-0041", "summary": "only one"}) + "\n")
        assert main(["evaluate", "--in", str(toy), "--generated", str(gen),
                     "--out", str(tmp_path / "r.csv"), "--backend", "mock"]) == 2

    @pytest.mark.parametrize("row, message", [
        ({"id": 41, "summary": "a summary"}, "'id' must be a string, got 41"),
        ({"id": "toy-0041", "summary": 7}, "'summary' must be a string, got 7")],
        ids=["row0", "row1"])
    def test_non_string_generated_field_exits_two(self, tmp_path, toy, capsys, row, message):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps(row) + "\n")
        assert main(["evaluate", "--in", str(toy), "--generated", str(gen),
                     "--out", str(tmp_path / "r.csv"), "--backend", "mock"]) == 2
        assert f"data error: {gen}:1: {message}\n" in capsys.readouterr().err

    @pytest.mark.parametrize("bad_row", ["pair,t1,rouge2", "pair,t1,rouge2,high,,,"])
    def test_malformed_report_row_exits_two(self, tmp_path, capsys, bad_row):
        report = tmp_path / "report.csv"
        report.write_text("record,pair_id,metric,value,n,headline,note\n"
                          "meta,,corpus_name,,,,toy\n" + bad_row + "\n")
        assert main(["compare", "--report-a", str(report), "--report-b", str(report),
                     "--out", str(tmp_path / "comparison.csv")]) == 2
        assert f"{report}:3: " in capsys.readouterr().err


class TestAnnotationCommands:
    @pytest.fixture()
    def annotation_setup(self, tmp_path):
        import numpy as np

        from factfilter.scorers import FactualityScore, write_scores

        rng = np.random.default_rng(21)
        ann_path = tmp_path / "annotations.jsonl"
        cells = []
        with ann_path.open("w") as handle:
            for i in range(80):
                flags = {c: bool(rng.random() < 0.3) for c in CATEGORIES}
                factuality = 1.0 if not any(flags.values()) else float(rng.uniform(0, 0.8))
                summary_id = f"s{i:04d}"
                handle.write(json.dumps({
                    "summary_id": summary_id,
                    "dataset": ("cnndm", "xsum")[i % 2],
                    "system": ("sysA", "sysB")[i % 2 == 0],
                    "factuality": factuality,
                    "errors": flags,
                }) + "\n")
                noisy = min(1.0, max(-1.0, factuality + 0.05 * float(rng.normal())))
                cells.append(FactualityScore(
                    pair_id=summary_id, scorer="greedy", backend_name="mock",
                    backend_version="1", value=noisy, truncated=False))
        scores_path = tmp_path / "annotation_scores.jsonl"
        write_scores(cells, scores_path)
        return ann_path, scores_path

    def test_validate_frank_csv(self, tmp_path, annotation_setup):
        ann_path, scores_path = annotation_setup
        out = tmp_path / "validation.csv"
        assert main(["validate-frank", "--annotations", str(ann_path),
                     "--scores", str(scores_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "scorer,dataset,r,n,n_covariates"
        # one scorer x (cnndm, xsum, all)
        assert len(lines) == 4

    def test_flip_analysis_csv(self, tmp_path, annotation_setup):
        ann_path, scores_path = annotation_setup
        out = tmp_path / "flips.csv"
        assert main(["flip-analysis", "--annotations", str(ann_path),
                     "--scores", str(scores_path), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 1 * 2 * 3  # scorer x datasets x categories


class TestLaterColumnOrder:
    """No command's output depends on the order of a scores file's later
    columns: ties are ranked by id, kept ids are sorted and distributions
    read -0.0 as 0.0."""

    @staticmethod
    def _inputs(tmp_path, seed):
        """A corpus, its annotations and a scores file of three scorers in
        scorer-major order with few distinct values (ties at every cut, -0.0
        beside 0.0) and some sentinels, then the same cells with each later
        column shuffled."""
        rng = np.random.default_rng(seed)
        ids = [f"s{i:03d}" for i in rng.permutation(90)]
        corpus, annotations = tmp_path / "corpus.jsonl", tmp_path / "annotations.jsonl"
        corpus.write_text("".join(json.dumps({
            "id": pair_id, "document": f"document {pair_id} text", "summary": f"summary {pair_id}",
            "split": ("train", "validation", "test")[k % 3], "meta": {}}) + "\n"
            for k, pair_id in enumerate(ids)), encoding="utf-8")
        with annotations.open("w", encoding="utf-8") as handle:
            for k, pair_id in enumerate(ids):
                flags = {c: bool(rng.random() < 0.3) for c in CATEGORIES}
                handle.write(json.dumps({
                    "summary_id": pair_id, "dataset": ("cnndm", "xsum")[k % 2],
                    "system": ("sysA", "sysB")[k % 3 == 0],
                    "factuality": 1.0 if not any(flags.values()) else float(rng.uniform(0, 0.8)),
                    "errors": flags}) + "\n")
        choices = {"greedy": [-1.0, -0.0, 0.0, 0.5], "condll": [-3.0, -1.5, -0.0, 0.0],
                   "dae": [0.0, -0.0, 0.25, 1.0]}
        columns = []
        for scorer, values in choices.items():
            column = []
            failed = set(rng.choice(len(ids), 2, replace=False).tolist())  # under 5% a slice
            for k, pair_id in enumerate(ids):
                row = {"pair_id": pair_id, "scorer": scorer, "backend_name": "mock",
                       "backend_version": "1", "truncated": False}
                if k in failed:
                    row.update(value=None, error="NoArcsError: no arcs")
                elif rng.random() < 0.7:
                    row["value"] = float(rng.choice(values))
                else:
                    row["value"] = float(rng.uniform(min(values), max(values)))
                column.append(json.dumps(row) + "\n")
            columns.append(column)
        ordered = "".join(line for column in columns for line in column)
        shuffled = "".join(columns[0]) + "".join(
            "".join(column[k] for k in rng.permutation(len(column))) for column in columns[1:])
        return corpus, annotations, ordered, shuffled

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_later_columns_give_the_same_bytes(self, tmp_path, seed):
        corpus, annotations, ordered, shuffled = self._inputs(tmp_path, seed)
        outputs = []
        for side, text in (("ordered", ordered), ("shuffled", shuffled)):
            out = tmp_path / side
            out.mkdir()
            scores = out / "scores.jsonl"
            scores.write_text(text, encoding="utf-8")
            for argv in (["filter", "--scores", str(scores), "--out", str(out / "manifest.json"),
                          "--corpus-name", "corpus"],
                         ["stats", "--in", str(corpus), "--out", str(out / "stats.csv"),
                          "--scores", str(scores), "--manifest", str(out / "manifest.json")],
                         ["validate-frank", "--annotations", str(annotations),
                          "--scores", str(scores), "--out", str(out / "validation.csv")],
                         ["flip-analysis", "--annotations", str(annotations),
                          "--scores", str(scores), "--out", str(out / "flips.csv")]):
                assert main(argv) == 0, argv
            scores.unlink()
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()
                            if not path.name.endswith(".config.json")})  # they name the inputs
        assert sorted(outputs[0]) == ["flips.csv", "manifest.json", "stats.csv",
                                      "stats_distributions.csv", "validation.csv"]
        assert outputs[0] == outputs[1]


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, toy):
        scores = _score(tmp_path, toy)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--in", str(toy), "--scores", str(scores),
                "--out", str(out), "--thresholds", "0.1,0.25",
                "--strategies", "combined,random,single:greedy",
                "--seed", "7", "--backend", "mock"]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 3 * 2
        assert lines[0].startswith("strategy,threshold,n_selected,ratio,status")
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_unknown_single_scorer_fails_before_the_first_cell(self, tmp_path, toy,
                                                              capsys, monkeypatch):
        from factfilter import cli

        selections = []
        factory = cli.table_eval_hook

        def counting_factory(corpus, table, backend):
            hook = factory(corpus, table, backend)
            return lambda selection: selections.append(selection) or hook(selection)

        monkeypatch.setattr(cli, "table_eval_hook", counting_factory)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--in", str(toy), "--scores", str(_score(tmp_path, toy)),
                     "--out", str(out), "--strategies", "combined,random,single:bogus",
                     "--backend", "mock"]) == 1
        assert "no scores for scorer 'bogus'" in capsys.readouterr().err
        assert selections == []
        assert not out.exists()

    def test_unknown_single_scorer_asks_the_backend_for_nothing(self, tmp_path, toy,
                                                                monkeypatch):
        from factfilter import backend as backend_module
        from faults import FaultBackend

        opened = []
        monkeypatch.setitem(backend_module._BACKENDS, "fault",
                            lambda: opened.append(FaultBackend()) or opened[-1])
        assert main(["sweep", "--in", str(toy), "--scores", str(_score(tmp_path, toy)),
                     "--out", str(tmp_path / "sweep.csv"),
                     "--strategies", "combined,random,single:bogus",
                     "--backend", "fault"]) == 1
        assert [request for backend in opened for request in backend.requests] == []

    @pytest.mark.parametrize("flags, code, message", [
        (["--thresholds", "0.4,0.4"], 2, "thresholds must be strictly ascending"),
        (["--strategies", "combined,random,combined"], 1, "sweep strategies repeat"),
    ], ids=["threshold", "strategy"])
    def test_a_repeated_cell_fails_before_the_first_cell(self, tmp_path, toy, capsys,
                                                         flags, code, message):
        scores = _score(tmp_path, toy)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--in", str(toy), "--scores", str(scores), "--out", str(out),
                     *flags, "--backend", "mock"]) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_a_spot_checked_score_edited_is_a_data_error(self, tmp_path, toy, capsys):
        from factfilter.experiments import SPOT_CHECK_PAIRS

        scores = _score(tmp_path, toy)
        pairs = load_corpus(toy).pairs
        checked = pairs[len(pairs) // (2 * SPOT_CHECK_PAIRS)].id
        rows = [json.loads(line) for line in scores.read_text(encoding="utf-8").splitlines()]
        (row,) = [r for r in rows if (r["pair_id"], r["scorer"]) == (checked, "greedy")]
        row["value"] = float(np.nextafter(row["value"], 0.0))
        scores.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--in", str(toy), "--scores", str(scores), "--out", str(out),
                     "--backend", "mock"]) == 2
        assert f"data error: pair {checked!r} scores greedy" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, toy):
        config = tmp_path / "run.json"
        scores = tmp_path / "scores.jsonl"
        config.write_text(json.dumps({
            "in": str(toy), "out": str(scores),
            "scorers": "greedy", "backend": "mock"}).replace('"in"', '"in_path"'))
        assert main(["score", "--config", str(config)]) == 0
        assert scores.exists()

    def test_cli_flags_override_config(self, tmp_path, toy):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"in_path": str(toy), "scorers": "greedy,condll"}))
        out = tmp_path / "scores.jsonl"
        assert main(["score", "--config", str(config), "--out", str(out),
                     "--scorers", "greedy"]) == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {row["scorer"] for row in rows} == {"greedy"}

    def test_unknown_config_key_rejected(self, tmp_path, toy):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"frobnicate": 1}))
        assert main(["score", "--config", str(config)]) == 1

    @pytest.mark.parametrize("command, content", [
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"q": "abc"}'),
        (["sweep", "--in", "{toy}", "--scores", "{scores}", "--out", "{out}/s.csv"],
         b'{"seed": "abc"}'),
        (["score", "--in", "{toy}", "--out", "{out}/s.jsonl"], b'{"scorers": ["greedy"]}'),
        (["filter", "--scores", "{scores}"], b'{"out": 5}'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"q": "\xff"}'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"q": true}'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"q": {"v": 1}}'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'[0.25]'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"q": 0.25'),
        (["filter", "--scores", "{scores}", "--out", "{out}/m.json"], b'{"config": "x"}'),
    ], ids=["string-float", "string-int", "list", "number-path", "non-utf8", "bool",
            "object", "not-an-object", "not-json", "config-key"])
    def test_bad_config_exits_one_writing_nothing(self, tmp_path, toy, capsys, monkeypatch,
                                                  command, content):
        monkeypatch.chdir(tmp_path)  # a relative output path would land here
        scores = _score(tmp_path, toy)
        out = tmp_path / "out"
        out.mkdir()
        config = tmp_path / "run.json"
        config.write_bytes(content)
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        argv = [arg.format(scores=scores, out=out, toy=toy) for arg in command]
        assert main([*argv, "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.startswith(("configuration error: ", f"factfilter {command[0]}: "))
        assert sorted(tmp_path.iterdir()) == before and list(out.iterdir()) == []

    def test_missing_config_file_is_a_configuration_error(self, tmp_path, capsys):
        assert main(["filter", "--config", str(tmp_path / "none.json")]) == 1
        assert capsys.readouterr().err.startswith("configuration error: cannot read config")

    @pytest.mark.parametrize("command", [
        ["score", "--in", "{toy}", "--scorers", ""],
        ["sweep", "--in", "{toy}", "--scores", "{scores}", "--thresholds", " , "],
        ["sweep", "--in", "{toy}", "--scores", "{scores}", "--strategies", ""],
        ["evaluate", "--in", "{toy}", "--generated", "{generated}", "--metrics", ""],
        ["filter", "--scores", "{scores}", "--scorers", ","],
    ], ids=["scorers", "thresholds", "strategies", "metrics", "filter-scorers"])
    def test_empty_list_is_a_configuration_error(self, tmp_path, toy, capsys, command):
        inputs = {"scores": _score(tmp_path, toy), "toy": toy,
                  "generated": _generated(tmp_path, toy)}
        out = tmp_path / "out"
        assert main([arg.format(**inputs) for arg in command] + ["--out", str(out)]) == 1
        assert f"configuration error: {command[-2]} needs at least one" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_unparseable_threshold_is_a_configuration_error(self, tmp_path, toy, capsys):
        assert main(["sweep", "--in", str(toy), "--scores", str(_score(tmp_path, toy)),
                     "--out", str(tmp_path / "s.csv"), "--thresholds", "0.25,abc"]) == 1
        assert "configuration error: --thresholds: could not convert" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("command, defaults", [
        (["filter", "--scores", "{scores}"], {"q": 0.25}),
        (["sweep", "--in", "{toy}", "--scores", "{scores}"],
         {"thresholds": "0.1,0.25,0.4,0.55", "strategies": "combined,random", "seed": 0,
          "backend": "mock"}),
        (["evaluate", "--in", "{toy}", "--generated", "{generated}"],
         {"metrics": "rouge2,greedy,condll,dae,blanc", "backend": "mock"}),
    ], ids=["filter", "sweep", "evaluate"])
    def test_echo_records_defaults_and_reruns_the_command(self, tmp_path, toy, command,
                                                          defaults):
        inputs = {"scores": _score(tmp_path, toy), "toy": toy,
                  "generated": _generated(tmp_path, toy)}
        out = tmp_path / "output"
        assert main([arg.format(**inputs) for arg in command] + ["--out", str(out)]) == 0
        echo = json.loads(out.with_name("output.config.json").read_text(encoding="utf-8"))
        assert echo["command"] == command[0]
        assert {key: echo[key] for key in defaults} == defaults
        first = out.read_bytes()
        config = tmp_path / "echo.json"
        out.with_name("output.config.json").rename(config)
        out.unlink()
        assert main([command[0], "--config", str(config)]) == 0
        assert out.read_bytes() == first

    def test_cli_flag_beats_a_typed_config_value(self, tmp_path, toy):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"scores": str(_score(tmp_path, toy)), "q": 0.5}))
        out = tmp_path / "m.json"
        assert main(["filter", "--config", str(config), "--out", str(out), "--q", "0.1"]) == 0
        assert FilterManifest.load(out).q == 0.1
        assert json.loads((tmp_path / "m.json.config.json").read_text())["q"] == 0.1


def test_console_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "factfilter.cli", "--help"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "factfilter" in result.stdout
