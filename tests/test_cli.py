from __future__ import annotations

import base64
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from factfilter import DependencyArc, FilterManifest, load_corpus
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

    def test_missing_generated_id_exits_two(self, tmp_path, toy):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps({"id": "toy-0041", "summary": "only one"}) + "\n")
        assert main(["evaluate", "--in", str(toy), "--generated", str(gen),
                     "--out", str(tmp_path / "r.csv"), "--backend", "mock"]) == 2

    @pytest.mark.parametrize("row", [{"id": 41, "summary": "a summary"},
                                     {"id": "toy-0041", "summary": 7}])
    def test_non_string_generated_field_exits_two(self, tmp_path, toy, capsys, row):
        gen = tmp_path / "gen.jsonl"
        gen.write_text(json.dumps(row) + "\n")
        assert main(["evaluate", "--in", str(toy), "--generated", str(gen),
                     "--out", str(tmp_path / "r.csv"), "--backend", "mock"]) == 2
        assert f"{gen}:1: field" in capsys.readouterr().err

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
        factory = cli.mock_train_eval_hook

        def counting_factory(backend):
            hook = factory(backend)
            return lambda selection: selections.append(selection) or hook(selection)

        monkeypatch.setattr(cli, "mock_train_eval_hook", counting_factory)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--in", str(toy), "--scores", str(_score(tmp_path, toy)),
                     "--out", str(out), "--strategies", "combined,random,single:bogus",
                     "--backend", "mock"]) == 1
        assert "no scores for scorer 'bogus'" in capsys.readouterr().err
        assert selections == []
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


_FAULTY_SERVER = """
import itertools, json, sys
sys.path.insert(0, {src!r})
from factfilter.backend import MockBackend
from factfilter.remote import serve

k, reply = int(sys.argv[1]), sys.argv[2]
serve(MockBackend(), itertools.islice(sys.stdin, k), sys.stdout)
if reply != "exit":
    request = json.loads(sys.stdin.readline())
    if reply == "invalid-utf8":
        sys.stdout.buffer.write(b"\\xff\\xfe\\n")
    elif reply == "non-object-item":
        calls = len(request["args"]["calls"])
        sys.stdout.buffer.write(json.dumps({{"result": [1] * calls}}).encode() + b"\\n")
    elif reply.startswith("item:"):  # every item of the batch reply is this object
        calls = len(request["args"]["calls"])
        item = json.loads(reply[len("item:"):])
        sys.stdout.buffer.write(json.dumps({{"result": [item] * calls}}).encode() + b"\\n")
    else:
        sys.stdout.buffer.write(reply.encode() + b"\\n")
    sys.stdout.flush()
    serve(MockBackend(), sys.stdin, sys.stdout)
"""

# (op, argument tuple, reply object) of replies whose fields the client cannot
# read: a missing key, a mistyped value (a string or an object where a list is
# due included), a number that does not parse, or a value the client's own
# checks reject (NaN vectors, one token with two rows, a self-attached arc).
MALFORMED_FIELDS = [
    ("tokenize", ("a",), '{"result": {}}'),
    ("tokenize", ("a",), '{"result": {"tokens": 5}}'),
    ("tokenize", ("a",), '{"result": {"tokens": "abc"}}'),
    ("conditional_token_logprobs", ("a", "a"), '{"result": {"logprobs": "12"}}'),
    ("arc_entailment_probs", ("a b", [DependencyArc("a", "b", "dep", 0, 1)]),
     '{"result": {"probs": {"0.5": 1}}}'),
    ("parse_dependencies", ("a b",), '{"result": {"arcs": {}}}'),
    ("conditional_token_logprobs", ("a", "a"), '{"result": {"logprobs": ["x"]}}'),
    ("embed_tokens", ("a",), '{"result": {"tokens": ["a"], "dim": 2}}'),
    ("parse_dependencies", ("a b",),
     '{"result": {"arcs": [{"head_token": "a", "child_token": "b", '
     '"relation_label": "dep", "child_index": 1}]}}'),
    ("tokenize", ("a",), '{"error": {"type": "SequenceLengthError", "limit": 512}}'),
    ("tokenize", ("a",), '{"result": {"tokens": [1, null]}}'),
    ("embed_tokens", ("a",),
     '{"result": {"tokens": [1], "dim": 2, "vectors": "AAAAAAAA8D8AAAAAAAAAAA=="}}'),
    ("conditional_token_logprobs", ("a", "a"), '{"result": {"logprobs": ["-0.5"]}}'),
    ("conditional_token_logprobs", ("a", "a"), '{"result": {"logprobs": [-0.5, true]}}'),
    ("arc_entailment_probs", ("a b", [DependencyArc("a", "b", "dep", 0, 1)]),
     '{"result": {"probs": ["0.5"]}}'),
    ("masked_fill_accuracy", ("a", "b c", [0]), '{"result": {"accuracy": "0.5"}}'),
    ("masked_fill_accuracy", ("a", "b c", [0]), '{"result": {"accuracy": true}}'),
    ("parse_dependencies", ("a b",),
     '{"result": {"arcs": [{"head_token": "a", "child_token": "b", '
     '"relation_label": "dep", "head_index": "0", "child_index": 1}]}}'),
    ("parse_dependencies", ("a b",),
     '{"result": {"arcs": [{"head_token": "a", "child_token": "b", '
     '"relation_label": "dep", "head_index": false, "child_index": 1}]}}'),
    ("parse_dependencies", ("a b",), '{"result": {"arcs": [5]}}'),
    ("embed_tokens", ("a",), '{"result": {"tokens": ["a"], "dim": 2, "vectors": "%s"}}'
     % base64.b64encode(np.array([np.nan, 1.0], dtype="<f8").tobytes()).decode()),
    ("embed_tokens", ("a",), '{"result": {"tokens": ["a"], "dim": 2, "vectors": "%s"}}'
     % base64.b64encode(np.eye(2, dtype="<f8").tobytes()).decode()),
    ("parse_dependencies", ("a b",),
     '{"result": {"arcs": [{"head_token": "a", "child_token": "a", '
     '"relation_label": "dep", "head_index": 0, "child_index": 0}]}}'),
]

# A `score` resuming the 25-line partial toy file sends the handshake and then
# seven batches (the whole toy corpus is one chunk): two tokenize, two
# embed_tokens, then conditional_token_logprobs, parse_dependencies and
# arc_entailment_probs. A fault after request 4 lands on the fifth, after three
# batches succeeded and before the last one.
_FAULT_AFTER = 4


class TestTransportFailures:
    """A dead or garbled server aborts `score` and leaves the scores file as it was."""

    @pytest.fixture()
    def server(self, tmp_path):
        path = tmp_path / "server.py"
        path.write_text(_FAULTY_SERVER.format(src=str(toy_corpus_path().parents[2])),
                        encoding="utf-8")
        return path

    @pytest.fixture()
    def partial(self, tmp_path, toy):
        full = _score(tmp_path, toy)
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(b"".join(full.read_bytes().splitlines(keepends=True)[:25]))
        return full, partial

    @pytest.mark.parametrize("k, reply", [
        (1, "exit"), (_FAULT_AFTER, "exit"), (_FAULT_AFTER, "not json"),
        (_FAULT_AFTER, "{}"), (_FAULT_AFTER, '{"error": "boom"}'), (_FAULT_AFTER, "[1]"),
        (_FAULT_AFTER, "invalid-utf8"), (_FAULT_AFTER, '{"result": {}}'),
        (_FAULT_AFTER, '{"result": []}'), (_FAULT_AFTER, "non-object-item"),
        (_FAULT_AFTER, 'item:{"result": {}}'),
    ], ids=["exit-after-handshake", "exit-mid-run", "not-json", "no-result",
            "non-object-error", "non-object-reply", "invalid-utf8", "batch-not-a-list",
            "batch-wrong-count", "batch-non-object-item", "batch-item-missing-field"])
    def test_score_exits_three_and_keeps_the_scores_file(self, toy, capsys, server,
                                                         partial, k, reply):
        full, partial = partial
        before = partial.read_bytes()
        command = f"{sys.executable} {server} {k} '{reply}'"
        code = main(["score", "--in", str(toy), "--out", str(partial), "--scorers",
                     "greedy,condll,dae", "--backend", "remote", "--remote-command", command])
        assert code == 3
        assert "backend error: " in capsys.readouterr().err
        assert partial.read_bytes() == before
        # The run resumes from the untouched file to the uninterrupted bytes.
        healthy = f"{sys.executable} -m factfilter.remote --backend mock"
        assert main(["score", "--in", str(toy), "--out", str(partial), "--scorers",
                     "greedy,condll,dae", "--backend", "remote",
                     "--remote-command", healthy]) == 0
        assert partial.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("reply, message", [
        ('{"result": {"a": {"result": {"tokens": ["a"]}}, "b": {"result": {"tokens": ["b"]}}}}',
         "is not a list of 2 items"),
        ('{"result": [{"result": {"tokens": ["a"]}}]}', "is not a list of 2 items"),
        ("non-object-item", "neither a result nor an error"),
    ], ids=["not-a-list", "wrong-count", "non-object-item"])
    def test_malformed_batch_reply_is_a_transport_error(self, server, reply, message):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        backend = RemoteBackend([sys.executable, str(server), "1", reply])
        try:
            with pytest.raises(TransportError, match=message):
                backend.map("tokenize", [("a",), ("b",)])
        finally:
            backend.close()

    @pytest.mark.parametrize("path", ["single", "map"])
    @pytest.mark.parametrize("op, args, reply", MALFORMED_FIELDS,
                             ids=["tokenize-no-tokens", "tokenize-int-tokens",
                                  "tokenize-string-tokens", "logprobs-string", "probs-object",
                                  "arcs-object", "logprobs-not-numbers", "embed-no-vectors",
                                  "arc-no-head-index", "length-error-no-message",
                                  "tokenize-non-string-items", "embed-int-tokens",
                                  "logprobs-quoted", "logprobs-bool", "probs-quoted",
                                  "accuracy-quoted", "accuracy-bool", "arc-string-index",
                                  "arc-bool-index", "arcs-non-object-item",
                                  "embed-nan-vectors", "embed-one-token-two-rows",
                                  "arc-self-attached"])
    def test_malformed_reply_field_is_a_transport_error(self, server, path, op, args, reply):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        if path == "map":
            reply = f'{{"result": [{reply}]}}'
        backend = RemoteBackend([sys.executable, str(server), "1", reply])
        try:
            with pytest.raises(TransportError,
                               match=f"reply to '{op}' has a missing or mistyped field"):
                if path == "map":
                    backend.map(op, [args])
                else:
                    getattr(backend, op)(*args)
        finally:
            backend.close()
        assert backend._proc.poll() is not None

    def test_malformed_reply_field_exits_three_and_stops_the_server(
            self, toy, tmp_path, capsys, monkeypatch, server):
        from factfilter import remote

        spawned = []
        popen = subprocess.Popen
        monkeypatch.setattr(remote.subprocess, "Popen",
                            lambda *args, **kwargs: spawned.append(popen(*args, **kwargs))
                            or spawned[-1])
        out = tmp_path / "scores.jsonl"
        code = main(["score", "--in", str(toy), "--out", str(out), "--scorers", "greedy",
                     "--backend", "remote", "--remote-command",
                     f"{sys.executable} {server} 1 'item:{{\"result\": {{\"tokens\": 5}}}}'"])
        assert code == 3
        assert "backend error: reply to 'tokenize' has a missing or mistyped field: " \
            "TypeError" in capsys.readouterr().err
        assert not out.exists()
        assert spawned[0].poll() is not None

    def test_blanc_over_integer_tokens_exits_three(self, toy, tmp_path, capsys, server):
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--in", str(toy), "--generated", str(_generated(tmp_path, toy)),
                     "--out", str(out), "--metrics", "blanc", "--backend", "remote",
                     "--remote-command",
                     f"{sys.executable} {server} 1 'item:{{\"result\": {{\"tokens\": [1]}}}}'"])
        assert code == 3
        assert "backend error: reply to 'tokenize' has a missing or mistyped field: " \
            "TypeError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vectors", ['"not base64!"', '"AAAAAAAAAAA="', "[[0.5, 0.5]]"],
                             ids=["bad-base64", "partial-row", "json-floats"])
    def test_undecodable_vectors_are_a_transport_error(self, server, vectors):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        reply = f'{{"result": {{"tokens": ["a"], "dim": 2, "vectors": {vectors}}}}}'
        backend = RemoteBackend([sys.executable, str(server), "1", reply])
        try:
            with pytest.raises(TransportError, match="undecodable embedding vectors"):
                backend.embed_tokens("a")
        finally:
            backend.close()

    @pytest.mark.parametrize("reply", [
        '{"result": {}}',
        '{"result": [1]}',
        '{"result": {"version": "1", "deterministic": true, "max_tokens": 512}}',
        '{"result": {"name": "mock", "version": 1, "deterministic": true, "max_tokens": 512}}',
        '{"result": {"name": "mock", "version": "1", "deterministic": 1, "max_tokens": 512}}',
        '{"result": {"name": "mock", "version": "1", "deterministic": true, "max_tokens": "512"}}',
        '{"result": {"name": "mock", "version": "1", "deterministic": true, "max_tokens": true}}',
        '{"result": {"name": "mock", "version": "1", "deterministic": true, "max_tokens": 512}}',
        '{"result": {"name": "mock", "version": "1", "deterministic": true, "max_tokens": 512, '
        '"protocol": 1}}',
    ], ids=["empty", "non-object", "no-name", "int-version", "int-deterministic",
            "string-max-tokens", "bool-max-tokens", "no-protocol", "protocol-1"])
    def test_malformed_handshake_exits_three(self, toy, tmp_path, capsys, monkeypatch,
                                             server, reply):
        from factfilter import remote
        from factfilter.errors import TransportError

        spawned = []
        popen = subprocess.Popen
        monkeypatch.setattr(remote.subprocess, "Popen",
                            lambda *args, **kwargs: spawned.append(popen(*args, **kwargs))
                            or spawned[-1])
        with pytest.raises(TransportError, match="descriptor reply"):
            remote.RemoteBackend([sys.executable, str(server), "0", reply])
        assert spawned[0].poll() is not None  # the server was stopped
        monkeypatch.undo()
        out = tmp_path / "scores.jsonl"
        code = main(["score", "--in", str(toy), "--out", str(out), "--scorers", "greedy",
                     "--backend", "remote", "--remote-command",
                     f"{sys.executable} {server} 0 '{reply}'"])
        assert code == 3
        assert "backend error: descriptor reply" in capsys.readouterr().err
        assert not out.exists()

    def test_request_to_an_exited_server_is_a_transport_error(self, server):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        backend = RemoteBackend([sys.executable, str(server), "1", "exit"])
        assert backend._proc.wait(timeout=30) == 0
        with pytest.raises(TransportError, match="exited with 0"):
            backend.tokenize("a b")
        backend.close()


def test_over_long_summary_scores_the_same_bytes_over_remote(tmp_path):
    corpus = tmp_path / "long.jsonl"
    pairs = [("short", "storm hit the harbor town", "storm harbor"),
             ("long-summary", "storm hit the harbor town", " ".join(["storm"] * 600)),
             ("long-document", " ".join(["harbor"] * 600), "harbor town")]
    corpus.write_text("".join(json.dumps({"id": i, "document": d, "summary": s,
                                          "split": "test", "meta": {}}) + "\n"
                              for i, d, s in pairs), encoding="utf-8")
    outputs = []
    for backend in (["--backend", "mock"],
                    ["--backend", "remote", "--remote-command",
                     f"{sys.executable} -m factfilter.remote --backend mock"]):
        out = tmp_path / f"scores-{len(outputs)}.jsonl"
        assert main(["score", "--in", str(corpus), "--out", str(out),
                     "--scorers", "greedy,condll,dae", *backend]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"(limit: 512 tokens)\"") == 3  # the summary's three cells


_LINGERING_SERVER = """
import sys, time
sys.path.insert(0, {src!r})
from factfilter.backend import MockBackend
from factfilter.remote import serve
serve(MockBackend(), sys.stdin, sys.stdout)
time.sleep(60)  # keeps running after its input closed
"""


class TestLingeringServer:
    """A server still running after its input closed is killed, and the run exits 3."""

    @pytest.fixture()
    def command(self, tmp_path, monkeypatch):
        from factfilter import remote

        monkeypatch.setattr(remote, "_CLOSE_TIMEOUT_S", 0.2)
        path = tmp_path / "server.py"
        path.write_text(_LINGERING_SERVER.format(src=str(toy_corpus_path().parents[2])),
                        encoding="utf-8")
        return [sys.executable, str(path)]

    def test_close_kills_it_and_raises_a_transport_error(self, command):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        backend = RemoteBackend(command)
        assert backend.tokenize("a b") == ["a", "b"]
        with pytest.raises(TransportError, match="still running"):
            backend.close()
        assert backend._proc.poll() is not None

    def test_score_exits_three(self, tmp_path, toy, capsys, command):
        out = tmp_path / "scores.jsonl"
        code = main(["score", "--in", str(toy), "--out", str(out), "--scorers", "greedy",
                     "--backend", "remote", "--remote-command", " ".join(command)])
        assert code == 3
        assert "still running" in capsys.readouterr().err


def test_transport_error_is_never_per_pair():
    from factfilter.errors import PER_PAIR_ERRORS, TransportError

    assert not issubclass(TransportError, PER_PAIR_ERRORS)
