from __future__ import annotations

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
from factfilter import scorers
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.errors import (
    PER_PAIR_ERRORS,
    BackendError,
    ConfigurationError,
    CoverageError,
    DomainError,
    failure_reason,
)
from factfilter.metrics import (
    FILLER_TOKEN,
    REFERENCE_FREE_METRICS,
    BlancScore,
    EvalReport,
    mask_schedule,
    reference_free_value,
    split_sentences,
)
from factfilter.remote import RemoteBackend

from conftest import make_corpus, make_pair
from test_scorers import Recorder, StepFailMock, step_fail_corpus


def oracle_rouge2(candidate: str, reference: str):
    """Explicit bigram-list intersection with element removal."""
    ctoks = candidate.lower().split()
    rtoks = reference.lower().split()
    cbi = [(ctoks[i], ctoks[i + 1]) for i in range(len(ctoks) - 1)]
    rbi = [(rtoks[i], rtoks[i + 1]) for i in range(len(rtoks) - 1)]
    remaining = list(rbi)
    overlap = 0
    for bigram in cbi:
        if bigram in remaining:
            remaining.remove(bigram)
            overlap += 1
    p = overlap / len(cbi) if cbi else 0.0
    r = overlap / len(rbi) if rbi else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


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


def reference_blanc_help(document, summary, backend):
    """BLANC-help asking the backend one single op at a time, sentence by sentence."""
    summary_tokens = backend.tokenize(summary)
    if not summary_tokens:
        raise DomainError("summary is empty")
    sentences = split_sentences(document)
    if not sentences:
        raise DomainError("document does not split into sentences")
    filler = " ".join([FILLER_TOKEN] * len(summary_tokens))
    gains = []
    n_masked = 0
    for sentence in sentences:
        tokens = backend.tokenize(sentence)
        positions = mask_schedule(tokens)
        if not positions:
            continue
        with_summary = backend.masked_fill_accuracy(summary, sentence, positions)
        with_filler = backend.masked_fill_accuracy(filler, sentence, positions)
        gains.append(with_summary - with_filler)
        n_masked += len(positions)
    if not gains:
        return BlancScore(value=0.0, n_sentences=len(sentences), n_masked_tokens=0)
    return BlancScore(value=float(np.mean(gains)), n_sentences=len(sentences),
                      n_masked_tokens=n_masked)


class BlancStepFail(MockBackend):
    """A mock whose BLANC ops fail on marker tokens.

    TOKFAIL fails tokenize and NIL tokenizes to nothing; SUMFAIL in a sentence
    fails its fill with the summary as prefix, FILLFAIL its fill with the
    filler; FATAL makes tokenize raise a `RuntimeError`, no per-pair error.
    """

    def tokenize(self, text):
        if "FATAL" in text.split():
            raise RuntimeError(f"fatal on {text!r}")
        if "TOKFAIL" in text.split():
            raise BackendError(f"cannot tokenize {text!r}")
        return [token for token in text.split() if token != "NIL"]

    def masked_fill_accuracy(self, prefix, sentence, mask_positions):
        filler = set(prefix.split()) == {FILLER_TOKEN}
        marker = "FILLFAIL" if filler else "SUMFAIL"
        if marker in sentence.split():
            raise DomainError(f"cannot fill {sentence!r} after {prefix!r}")
        return super().masked_fill_accuracy(prefix, sentence, mask_positions)


class MapCounter(BlancStepFail):
    def __init__(self):
        super().__init__()
        self.requests = []

    def map(self, op, calls):
        self.requests.append(op)
        return super().map(op, calls)


S1 = "storm flooded harbor town quickly ."
S2 = "mayor opened bridge festival today ."
S3 = "library closed monday evening early ."
BLANC_CASES = {
    "healthy": (f"{S1} {S2} {S3}", "storm quickly mayor"),
    "summary-tokenize": (f"{S1} {S2}", "storm TOKFAIL"),
    "first-sentence-tokenize": (f"TOKFAIL {S1} {S2} {S3}", "storm mayor"),
    "middle-sentence-tokenize": (f"{S1} TOKFAIL {S2} {S3}", "storm mayor"),
    "last-sentence-tokenize": (f"{S1} {S2} TOKFAIL {S3}", "storm mayor"),
    "summary-fill": (f"{S1} SUMFAIL {S2} {S3}", "storm mayor"),
    "filler-fill": (f"{S1} {S2} FILLFAIL {S3}", "storm mayor"),
    "filler-fill-before-summary-fill": (f"FILLFAIL {S1} SUMFAIL {S2}", "storm mayor"),
    "summary-fill-before-filler-fill": (f"FILLFAIL SUMFAIL {S1} {S2}", "storm mayor"),
    "fill-before-later-tokenize": (f"{S1} SUMFAIL {S2} TOKFAIL {S3}", "storm mayor"),
    "tokenize-before-later-fill": (f"TOKFAIL {S1} SUMFAIL {S2}", "storm mayor"),
    "empty-summary": (f"{S1} {S2}", "NIL NIL"),
    "empty-summary-before-sentence-tokenize": (f"TOKFAIL {S1}", "NIL"),
    "no-sentences": ("   ", "storm mayor"),
    "summary-tokenize-before-no-sentences": ("   ", "TOKFAIL"),
    "no-maskable-token": ("ab cd ef . gh ij kl .", "storm mayor"),
    "some-sentences-maskable": (f"ab cd ef . {S2}", "mayor"),
}
HEALTHY_BLANC_CASES = ("healthy", "no-maskable-token", "some-sentences-maskable")


def _outcome(blanc, document, summary, backend):
    try:
        return blanc(document, summary, backend)
    except PER_PAIR_ERRORS as exc:
        return failure_reason(exc)


class TestBlancThroughMap:
    """`blanc_help` asks the backend two `map` requests per pair and gives the
    value, counts and failure reason of the one-op-at-a-time reference."""

    @pytest.mark.parametrize("case", BLANC_CASES)
    def test_matches_the_one_op_reference(self, case):
        document, summary = BLANC_CASES[case]
        expected = _outcome(reference_blanc_help, document, summary, BlancStepFail())
        assert _outcome(blanc_help, document, summary, BlancStepFail()) == expected
        assert isinstance(expected, str) == (case not in HEALTHY_BLANC_CASES)

    @pytest.mark.parametrize("case", HEALTHY_BLANC_CASES)
    def test_two_requests_per_pair(self, case):
        backend = MapCounter()
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

    @pytest.mark.parametrize("document", [f"{S1} FATAL {S2}", f"TOKFAIL {S1} FATAL {S2}"])
    def test_an_error_that_is_not_per_pair_aborts(self, document):
        with pytest.raises(RuntimeError, match="fatal on"):
            blanc_help(document, "storm mayor", BlancStepFail())


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

    def test_unknown_metric_is_a_configuration_error(self, mock_backend):
        corpus = self._corpus()
        generated = {p.id: p.summary for p in corpus.split_pairs("test")}
        with pytest.raises(ConfigurationError, match="unknown metrics"):
            evaluate_outputs(generated, corpus, backend=mock_backend, metrics=["bogus"])

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


def reference_evaluate(generated, corpus, backend, metrics):
    """`evaluate_outputs`' reference-free rows, one metric and one pair at a time."""
    per_pair = {metric: {} for metric in metrics}
    failures = {metric: {} for metric in metrics}
    for metric in metrics:
        for pair in corpus.split_pairs("test"):
            try:
                per_pair[metric][pair.id] = reference_free_value(
                    metric, pair.document, generated[pair.id], backend)
            except PER_PAIR_ERRORS as exc:
                failures[metric][pair.id] = failure_reason(exc)
    return per_pair, failures


SCORER_METRICS = ["greedy", "condll", "dae"]


class TestChunkedEvaluate:
    """`evaluate_outputs` scores in chunks and gives each pair its one-pair outcome."""

    @pytest.mark.parametrize("chunk_chars", [1, 2 ** 14, 10 ** 9])
    def test_every_row_and_reason_is_the_one_pair_outcome(self, monkeypatch, tmp_path,
                                                          chunk_chars):
        monkeypatch.setattr(scorers, "_CHUNK_CHARS", chunk_chars)
        corpus = step_fail_corpus(split="test")
        generated = {pair.id: pair.summary for pair in corpus}
        metrics = list(REFERENCE_FREE_METRICS)
        report = evaluate_outputs(generated, corpus, StepFailMock(), metrics=metrics)
        per_pair, failures = reference_evaluate(generated, corpus, StepFailMock(), metrics)
        assert report.per_pair == per_pair
        assert report.failures == failures
        assert all(report.failures[metric] for metric in metrics)
        expected = EvalReport(corpus.name, metrics)
        expected.per_pair, expected.failures = per_pair, failures
        report.to_csv(tmp_path / "chunked.csv")
        expected.to_csv(tmp_path / "reference.csv")
        assert (tmp_path / "chunked.csv").read_bytes() == \
            (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("metrics", [SCORER_METRICS, list(REFERENCE_FREE_METRICS)],
                             ids=["scorers", "with-blanc"])
    def test_two_tokenize_calls_per_pair_and_the_reference_ops(self, metrics):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        test_pairs = corpus.split_pairs("test")
        generated = {pair.id: pair.summary for pair in test_pairs}
        chunked, one_pair = Recorder(MockBackend()), Recorder(MockBackend())
        evaluate_outputs(generated, corpus, chunked, metrics=metrics)
        reference_evaluate(generated, corpus, one_pair, metrics)
        tokenize = lambda calls: sum(call[0] == "tokenize" for call in calls)
        # The one-pair path tokenized each pair twice per scorer.
        assert tokenize(one_pair.calls) - tokenize(chunked.calls) == 4 * len(test_pairs)
        if metrics == SCORER_METRICS:
            assert tokenize(chunked.calls) == 2 * len(test_pairs)
        other = lambda calls: Counter(call for call in calls if call[0] != "tokenize")
        assert other(chunked.calls) == other(one_pair.calls)

    def test_an_error_that_is_not_per_pair_aborts(self):
        corpus = make_corpus("c", make_pair("p1", "alpha beta", "alpha beta", split="test"),
                             make_pair("p2", "alpha FATAL", "alpha beta", split="test"))
        generated = {pair.id: pair.summary for pair in corpus}
        with pytest.raises(RuntimeError, match="fatal on 'alpha FATAL'"):
            evaluate_outputs(generated, corpus, StepFailMock(), metrics=["greedy"])
