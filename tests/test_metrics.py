from __future__ import annotations

import re
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfilter import (
    Corpus,
    FilterManifest,
    MockBackend,
    blanc_help,
    evaluate_outputs,
    rouge2,
)
import reference
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.errors import ConfigurationError, CoverageError, DomainError
from factfilter.metrics import (
    REFERENCE_FREE_METRICS,
    EvalReport,
    mask_schedule,
    split_sentences,
)
from factfilter.remote import RemoteBackend
from faults import BLANC_CASES, HEALTHY_BLANC_CASES, S1, S2, FaultBackend

from conftest import make_corpus, make_pair
from test_acceptance import oracle_rouge2


class TestRouge2:
    def test_identical_texts(self):
        score = rouge2("the mayor opened the bridge", "the mayor opened the bridge")
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_worked_example(self):
        score = rouge2("the cat sat", "the cat slept")
        assert score.precision == 0.5
        assert score.recall == 0.5
        assert score.f1 == 0.5

    def test_disjoint_vocabulary(self):
        assert rouge2("alpha beta gamma", "delta epsilon zeta").f1 == 0.0

    def test_short_texts_score_zero(self):
        score = rouge2("word", "another word here")
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)

    def test_lowercasing(self):
        assert rouge2("The Cat SAT", "the cat sat").f1 == 1.0

    def test_swap_transposes_precision_recall(self):
        a, b = "one two three four", "two three five"
        fwd = rouge2(a, b)
        rev = rouge2(b, a)
        assert fwd.precision == rev.recall
        assert fwd.recall == rev.precision
        assert fwd.f1 == rev.f1

    def test_repeated_bigrams_clipped(self):
        score = rouge2("go go go go", "go go")
        # candidate has 3x (go,go), reference has 1 -> overlap clipped to 1
        assert score.precision == pytest.approx(1 / 3)
        assert score.recall == 1.0

    @given(st.lists(st.sampled_from("abcde"), min_size=0, max_size=12),
           st.lists(st.sampled_from("abcde"), min_size=0, max_size=12))
    @settings(max_examples=150)
    def test_matches_multiset_oracle(self, cand_tokens, ref_tokens):
        candidate = " ".join(cand_tokens)
        reference = " ".join(ref_tokens)
        score = rouge2(candidate, reference)
        p, r, f = oracle_rouge2(candidate, reference)
        assert (score.precision, score.recall, score.f1) == (p, r, f)


class TestSentencesAndMasks:
    def test_split_on_terminal_punctuation(self):
        text = "The storm hit hard. Flooding followed! Was anyone hurt? Yes."
        assert split_sentences(text) == [
            "The storm hit hard.", "Flooding followed!", "Was anyone hurt?", "Yes."]

    @given(st.text(alphabet=st.sampled_from(list(".!?") + [" ", "\t", "\n", "\x1c", "\x85",
                                                            "\xa0", "\u3000", "a", "Z", "é"]),
                   max_size=40))
    @settings(max_examples=300)
    def test_split_equals_the_lookbehind_split(self, text):
        lookbehind = re.compile(r"(?<=[.!?])\s+")
        parts = [part.strip() for part in lookbehind.split(text)]
        assert split_sentences(text) == [part for part in parts if part]

    def test_mask_schedule_stride_and_length(self):
        tokens = "storm ab harbor xy quickly mayor no bridge done".split()
        # positions 0,4,8 with len >= 4: storm(0), quickly(4), done(8) -> done is 4 chars
        assert mask_schedule(tokens) == [0, 4, 8]

    def test_short_tokens_never_masked(self):
        assert mask_schedule(["ab", "cd", "ef", "gh", "ij"]) == []


class TestBlancHelp:
    def test_summary_covering_all_masked_tokens(self, mock_backend):
        document = "storm flooded harbor town quickly . mayor opened bridge festival today ."
        summary = "storm quickly mayor today"
        score = blanc_help(document, summary, mock_backend)
        assert score.value == 1.0
        assert score.n_sentences == 2
        assert score.n_masked_tokens == 4

    def test_summary_covering_nothing(self, mock_backend):
        document = "storm flooded harbor town quickly ."
        score = blanc_help(document, "unrelated words entirely", mock_backend)
        assert score.value == 0.0

    def test_prefix_blind_backend_scores_exactly_zero(self):
        class PrefixBlindBackend(MockBackend):
            def masked_fill_accuracy(self, prefix, sentence, mask_positions):
                positions = sorted(set(mask_positions))
                return (len(positions) % 3) / 3.0

        backend = PrefixBlindBackend()
        for document, summary in [
            ("storm flooded harbor town quickly .", "storm quickly"),
            ("mayor opened bridge festival today . library closed monday evening early .",
             "mayor library closed"),
        ]:
            assert blanc_help(document, summary, backend).value == 0.0

    def test_unsplittable_document_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            blanc_help("   ", "summary words", mock_backend)

    def test_empty_summary_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            blanc_help("storm flooded harbor .", " ", mock_backend)

    def test_no_maskable_tokens_scores_zero(self, mock_backend):
        score = blanc_help("ab cd ef .", "summary words", mock_backend)
        assert score.value == 0.0
        assert score.n_masked_tokens == 0


class TestBlancThroughMap:
    """`blanc_help` asks the backend two `map` requests per pair and gives the
    value, counts and failure reason of the one-op-at-a-time reference."""

    @pytest.mark.parametrize("case", BLANC_CASES)
    def test_matches_the_one_op_reference(self, case):
        document, summary = BLANC_CASES[case]
        expected = reference.value_or_reason(reference.blanc, document, summary, FaultBackend())
        assert reference.value_or_reason(blanc_help, document, summary, FaultBackend()) == \
            expected
        assert isinstance(expected, str) == (case not in HEALTHY_BLANC_CASES)

    @pytest.mark.parametrize("case", HEALTHY_BLANC_CASES)
    def test_two_requests_per_pair(self, case):
        backend = FaultBackend()
        blanc_help(*BLANC_CASES[case], backend)
        assert backend.requests == ["tokenize", "masked_fill_accuracy"]

    def test_remote_toy_evaluation_makes_two_requests_per_pair(self, tmp_path, monkeypatch):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        test_pairs = corpus.split_pairs("test")
        generated = {pair.id: pair.summary for pair in test_pairs}
        evaluate_outputs(generated, corpus, MockBackend(),
                         metrics=["blanc"]).to_csv(tmp_path / "in-process.csv")
        with RemoteBackend([sys.executable, "-m", "factfilter.remote",
                            "--backend", "mock"]) as remote:
            requests = []
            request = remote._request
            monkeypatch.setattr(remote, "_request",
                                lambda op, args: requests.append(op) or request(op, args))
            evaluate_outputs(generated, corpus, remote,
                             metrics=["blanc"]).to_csv(tmp_path / "remote.csv")
        assert len(requests) == 2 * len(test_pairs)
        assert (tmp_path / "remote.csv").read_bytes() == \
            (tmp_path / "in-process.csv").read_bytes()

    @pytest.mark.parametrize("document", [f"{S1} TOKFATAL {S2}",
                                          f"TOKFAIL {S1} TOKFATAL {S2}"])
    def test_an_error_that_is_not_per_pair_aborts(self, document):
        with pytest.raises(RuntimeError, match="fatal on"):
            blanc_help(document, "storm mayor", FaultBackend())


class TestEvaluateOutputs:
    def _corpus(self) -> Corpus:
        return make_corpus(
            "c",
            make_pair("tr1", "storm flooded harbor town quickly .", "storm harbor",
                      split="train"),
            make_pair("t1", "the cat sat on the mat quietly .", "the cat sat",
                      split="test"),
            make_pair("t2", "mayor opened bridge festival today .", "mayor opened bridge",
                      split="test"),
        )

    def test_identical_generated_gives_perfect_rouge(self, mock_backend):
        corpus = self._corpus()
        generated = {p.id: p.summary for p in corpus.split_pairs("test")}
        report = evaluate_outputs(generated, corpus, backend=mock_backend)
        assert report.mean("rouge2") == 1.0

    def test_hand_computed_mean(self):
        corpus = self._corpus()
        generated = {
            "t1": "the cat slept",     # vs "the cat sat": P=R=F=0.5
            "t2": "mayor opened bridge",  # exact -> 1.0
        }
        report = evaluate_outputs(generated, corpus, metrics=["rouge2"])
        assert report.per_pair["rouge2"]["t1"] == 0.5
        assert report.per_pair["rouge2"]["t2"] == 1.0
        assert report.mean("rouge2") == 0.75

    def test_manifest_restricts_reference_based_metric_only(self, mock_backend):
        corpus = self._corpus()
        generated = {p.id: p.summary for p in corpus.split_pairs("test")}
        manifest = FilterManifest(
            corpus_name="c", scorer_names=("s1", "s2"), q=0.5,
            per_scorer_thresholds={}, kept_ids=("t1", "tr1"), n_pairs=3,
            selection_ratio=2 / 3, created_with={})
        report = evaluate_outputs(generated, corpus, backend=mock_backend,
                                  manifest=manifest, metrics=["rouge2", "blanc"])
        assert report.n("rouge2") == 1   # only t1 is kept and in the test split
        assert report.n("blanc") == 2    # reference-free metrics see the full test split

    @pytest.mark.parametrize("metrics, message", [(["bogus"], "unknown metrics"),
                                                  (["greedy", "greedy"], "metrics repeat")],
                             ids=["unknown", "repeated"])
    def test_unknown_metric_is_a_configuration_error(self, metrics, message):
        corpus = self._corpus()
        generated = {p.id: p.summary for p in corpus.split_pairs("test")}
        backend = FaultBackend()
        with pytest.raises(ConfigurationError, match=message):
            evaluate_outputs(generated, corpus, backend=backend, metrics=metrics)
        assert backend.requests == []

    def test_missing_generated_summary_is_coverage_error(self, mock_backend):
        corpus = self._corpus()
        with pytest.raises(CoverageError) as excinfo:
            evaluate_outputs({"t1": "something here"}, corpus, backend=mock_backend,
                             metrics=["rouge2"])
        assert "t2" in excinfo.value.missing_ids

    def test_scorer_metrics_over_generated_text(self, mock_backend):
        corpus = self._corpus()
        generated = {"t1": "the cat sat", "t2": "mayor opened comet"}
        report = evaluate_outputs(generated, corpus, backend=mock_backend,
                                  metrics=["greedy", "dae"])
        assert report.per_pair["greedy"]["t1"] == 1.0
        assert report.per_pair["dae"]["t2"] == 0.5

    def test_failures_recorded_not_raised(self, mock_backend):
        corpus = self._corpus()
        generated = {"t1": "single", "t2": "mayor opened bridge"}
        report = evaluate_outputs(generated, corpus, backend=mock_backend,
                                  metrics=["dae"])
        assert "t1" in report.failures["dae"]
        assert report.n("dae") == 1

    def test_means_recomputable_from_per_pair_values(self, mock_backend):
        corpus = self._corpus()
        generated = {"t1": "the cat sat here", "t2": "mayor opened the bridge"}
        report = evaluate_outputs(generated, corpus, backend=mock_backend)
        for metric in report.metrics:
            values = [report.per_pair[metric][pid]
                      for pid in sorted(report.per_pair[metric])]
            if values:
                assert report.mean(metric) == pytest.approx(
                    float(np.mean(values)), abs=1e-15)

    def test_csv_round_trip(self, tmp_path, mock_backend):
        corpus = self._corpus()
        generated = {"t1": "the cat sat", "t2": "mayor opened comet"}
        report = evaluate_outputs(generated, corpus, backend=mock_backend)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        loaded = EvalReport.from_csv(path)
        assert loaded.corpus_name == "c"
        assert loaded.per_pair == report.per_pair
        assert loaded.failures == report.failures

    def test_headline_scaling_for_bigram_metric(self):
        corpus = self._corpus()
        generated = {"t1": "the cat sat", "t2": "mayor opened bridge"}
        report = evaluate_outputs(generated, corpus, metrics=["rouge2"])
        assert report.headline("rouge2") == 100.0 * report.mean("rouge2")


SCORER_METRICS = ["greedy", "condll", "dae"]


class TestChunkedEvaluate:
    """`evaluate_outputs` scores in chunks, asking the backend for the oracle's
    single ops (the outcomes themselves are `test_oracle.py`'s)."""

    @pytest.mark.parametrize("metrics", [SCORER_METRICS, list(REFERENCE_FREE_METRICS)],
                             ids=["scorers", "with-blanc"])
    def test_two_tokenize_calls_per_pair_and_the_reference_ops(self, metrics):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        test_pairs = corpus.split_pairs("test")
        generated = {pair.id: pair.summary for pair in test_pairs}
        chunked, oracle = FaultBackend(), FaultBackend()
        report = evaluate_outputs(generated, corpus, chunked, metrics=metrics)
        assert (report.per_pair, report.failures) == reference.evaluate(
            generated, corpus, metrics, oracle)
        if metrics == SCORER_METRICS:
            assert sum(call[0] == "tokenize" for call in chunked.calls) == 2 * len(test_pairs)
        assert Counter(chunked.calls) == Counter(oracle.calls)
