from __future__ import annotations

import json
import math
import random
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from factfilter import (
    SCORERS,
    Corpus,
    MockBackend,
    ScoreTable,
    load_scores,
    score_corpus,
    write_scores,
)
from factfilter import scorers
from factfilter.backend import Backend, TokenEmbeddings
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.errors import (
    PER_PAIR_ERRORS,
    BackendError,
    ConfigurationError,
    DomainError,
    IntegrityError,
    ParseError,
    TransportError,
    failure_reason,
)
from factfilter.scorers import (
    _GREEDY_BLOCK_ELEMENTS,
    FactualityScore,
    ScoreFailure,
    _unit_rows,
    score_corpus_to_file,
    score_pair,
)
from factfilter.errors import EmptySummaryError, NoArcsError
from factfilter.remote import RemoteBackend

from conftest import make_corpus, make_pair


def oracle_greedy(document: str, summary: str, backend) -> float:
    """Pure-Python re-derivation of greedy precision from raw embeddings."""
    doc = backend.embed_tokens(document).vectors.tolist()
    summ = backend.embed_tokens(summary).vectors.tolist()
    best = []
    for u in summ:
        sims = []
        for v in doc:
            d2 = sum((ui - vi) ** 2 for ui, vi in zip(u, v))
            sims.append(1.0 - d2 / 2.0)
        best.append(max(sims))
    return sum(best) / len(best)


class TestGreedyPrecision:
    def test_copied_summary_scores_exactly_one(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge on friday", "mayor opened the bridge")
        assert score_pair("greedy", pair.document, pair.summary, mock_backend)[0] == 1.0

    def test_mixed_case_matches_oracle(self, mock_backend):
        pair = make_pair("p", "alpha beta gamma", "alpha beta zzzz")
        value, _ = score_pair("greedy", pair.document, pair.summary, mock_backend)
        assert value < 1.0
        expected = oracle_greedy(pair.document, pair.summary, mock_backend)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_document_order_irrelevant(self, mock_backend):
        a = make_pair("p", "alpha beta gamma delta", "beta zzzz")
        b = make_pair("p", "delta gamma beta alpha", "beta zzzz")
        assert score_pair("greedy", a.document, a.summary, mock_backend)[0] == \
            score_pair("greedy", b.document, b.summary, mock_backend)[0]

    def test_superset_document_never_decreases(self, mock_backend):
        small = make_pair("p", "alpha beta", "alpha zzzz qqqq")
        large = make_pair("p", "alpha beta extra words here", "alpha zzzz qqqq")
        assert score_pair("greedy", large.document, large.summary, mock_backend)[0] >= \
            score_pair("greedy", small.document, small.summary, mock_backend)[0]

    def test_document_truncation_sets_flag(self):
        backend = MockBackend(max_tokens=3)
        pair = make_pair("p", "alpha beta gamma delta epsilon", "alpha beta")
        value, truncated = score_pair("greedy", pair.document, pair.summary, backend)
        assert truncated
        assert value == 1.0  # kept prefix still contains the summary tokens


def loop_greedy(document: str, summary: str, backend) -> float:
    """Greedy precision with the per-summary-row loop the blocked matcher replaced."""
    doc_vecs = _unit_rows(backend.embed_tokens(document).vectors)
    sum_vecs = _unit_rows(backend.embed_tokens(summary).vectors)
    best = np.empty(sum_vecs.shape[0], dtype=np.float64)
    for i in range(sum_vecs.shape[0]):
        d2 = np.sum((doc_vecs - sum_vecs[i]) ** 2, axis=1)
        best[i] = np.max(1.0 - d2 / 2.0)
    return float(np.mean(np.clip(best, -1.0, 1.0)))


class ScaledMock(MockBackend):
    """Mock embeddings scaled off the unit sphere, so `_unit_rows` does real work."""

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        emb = super().embed_tokens(text)
        scales = 0.3 + 0.7 * np.arange(1, len(emb.tokens) + 1)[:, None] / 3.0
        return TokenEmbeddings(tokens=emb.tokens, vectors=emb.vectors * scales)


class SplitWidthMock(MockBackend):
    """Embeds texts of up to two tokens 8-wide and longer texts 16-wide."""

    def __init__(self):
        super().__init__(dim=16)
        self._narrow = MockBackend(dim=8)

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        if len(text.split()) <= 2:
            return self._narrow.embed_tokens(text)
        return super().embed_tokens(text)


class TestGreedyBlocks:
    SUMMARY_LEN = 8
    DIM = 16

    @pytest.mark.parametrize("block_rows", [1, SUMMARY_LEN, SUMMARY_LEN - 1])
    def test_blocked_equals_row_loop(self, block_rows):
        n_doc = _GREEDY_BLOCK_ELEMENTS // (block_rows * self.DIM)
        assert _GREEDY_BLOCK_ELEMENTS // (n_doc * self.DIM) == block_rows
        backend = ScaledMock(dim=self.DIM, max_tokens=n_doc)
        document = " ".join(f"d{i}" for i in range(n_doc))
        # The last summary row, alone in its block when block_rows is
        # SUMMARY_LEN - 1, is a token absent from the document.
        summary = " ".join(f"novel{i}" if i % 2 else f"d{i * 37 % n_doc}"
                           for i in range(self.SUMMARY_LEN))
        value, truncated = score_pair("greedy", document, summary, backend)
        assert not truncated
        assert value == loop_greedy(document, summary, backend)

    def test_width_mismatch_names_both_widths(self):
        with pytest.raises(BackendError, match=r"16-wide.*8-wide"):
            score_pair("greedy", "alpha beta gamma delta", "alpha beta", SplitWidthMock())

    def test_width_mismatch_becomes_sentinel(self):
        corpus = make_corpus("c", make_pair("p1", "alpha beta gamma delta", "alpha beta"))
        (cell,) = score_corpus(corpus, ["greedy"], SplitWidthMock())
        assert isinstance(cell, ScoreFailure)
        assert cell.reason.startswith("BackendError:")
        assert "16-wide" in cell.reason and "8-wide" in cell.reason


class TestConditionalLikelihood:
    def test_all_present_is_log_point_nine(self, mock_backend):
        pair = make_pair("p", "storm hit the harbor town", "storm hit the harbor")
        value, _ = score_pair("condll", pair.document, pair.summary, mock_backend)
        assert value == pytest.approx(math.log(0.9), abs=1e-15)

    def test_half_present(self, mock_backend):
        pair = make_pair("p", "storm hit", "storm hit comet meteor")
        expected = (2 * math.log(0.9) + 2 * math.log(0.1)) / 4
        value, _ = score_pair("condll", pair.document, pair.summary, mock_backend)
        assert value == pytest.approx(expected, abs=1e-15)
        assert value == pytest.approx(-1.2040, abs=5e-5)

    def test_value_nonpositive_always(self, mock_backend):
        pair = make_pair("p", "a b c", "q w e r t y")
        assert score_pair("condll", pair.document, pair.summary, mock_backend)[0] <= 0.0


class TestArcEntailment:
    def test_all_supported(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge", "mayor opened bridge")
        assert score_pair("dae", pair.document, pair.summary, mock_backend)[0] == 1.0

    def test_one_of_two_supported(self, mock_backend):
        # parse of "mayor opened comet": head "opened", children "mayor", "comet"
        pair = make_pair("p", "the mayor opened the bridge", "mayor opened comet")
        assert score_pair("dae", pair.document, pair.summary, mock_backend)[0] == 0.5

    def test_mean_matches_explicit_enumeration(self, mock_backend):
        pair = make_pair("p", "alpha beta gamma", "alpha comet beta meteor gamma")
        arcs = mock_backend.parse_dependencies(pair.summary)
        probs = mock_backend.arc_entailment_probs(pair.document, arcs)
        expected = sum(probs) / len(probs)
        assert score_pair("dae", pair.document, pair.summary, mock_backend)[0] == \
            pytest.approx(expected)

    def test_single_token_summary_distinct_error(self, mock_backend):
        pair = make_pair("p", "the mayor opened the bridge", "mayor")
        with pytest.raises(NoArcsError):
            score_pair("dae", pair.document, pair.summary, mock_backend)
        assert not issubclass(EmptySummaryError, NoArcsError)


class RowlessMock(MockBackend):
    """Returns zero embedding rows for any text that mentions 'void'."""

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        if "void" in text.split():
            return TokenEmbeddings(tokens=(), vectors=np.zeros((0, 16)))
        return super().embed_tokens(text)


class TestZeroRowEmbeddings:
    def test_zero_rows_become_sentinel(self):
        corpus = make_corpus("c", make_pair("p1", "void of stars", "stars"),
                             make_pair("p2", "alpha beta gamma", "alpha beta"))
        cells = score_corpus(corpus, ["greedy"], RowlessMock())
        assert isinstance(cells[0], ScoreFailure)
        assert cells[0].reason.startswith("DomainError:")
        assert isinstance(cells[1], FactualityScore) and cells[1].value == 1.0


def reference_truncate_document(backend, document):
    """The one-pair scorers' document clipping before pairs were prepared in chunks."""
    limit = backend.descriptor.max_tokens
    tokens = backend.tokenize(document)
    if len(tokens) <= limit:
        return document, False
    return " ".join(tokens[:limit]), True


def reference_greedy(document, summary, backend):
    document, truncated = reference_truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    doc_emb = backend.embed_tokens(document)
    sum_emb = backend.embed_tokens(summary)
    doc_vecs = _unit_rows(doc_emb.vectors)
    sum_vecs = _unit_rows(sum_emb.vectors)
    if doc_vecs.shape[1] != sum_vecs.shape[1]:
        raise BackendError(f"document embeddings are {doc_vecs.shape[1]}-wide, "
                           f"summary embeddings {sum_vecs.shape[1]}-wide")
    rows = max(1, _GREEDY_BLOCK_ELEMENTS // max(1, doc_vecs.size))
    best = np.empty(sum_vecs.shape[0], dtype=np.float64)
    for i in range(0, sum_vecs.shape[0], rows):
        d2 = np.sum((doc_vecs - sum_vecs[i:i + rows, None]) ** 2, axis=2)
        best[i:i + rows] = np.max(1.0 - d2 / 2.0, axis=1)
    return float(np.mean(np.clip(best, -1.0, 1.0))), truncated


def reference_condll(document, summary, backend):
    document, truncated = reference_truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    arr = np.asarray(backend.conditional_token_logprobs(document, summary), dtype=np.float64)
    if arr.size == 0:
        raise EmptySummaryError("backend produced no target token log-probabilities")
    if not np.all(np.isfinite(arr)) or np.any(arr > 0.0):
        raise BackendError("token log-probabilities must be finite and <= 0")
    return float(np.mean(arr)), truncated


def reference_dae(document, summary, backend):
    document, truncated = reference_truncate_document(backend, document)
    if not backend.tokenize(summary):
        raise EmptySummaryError("summary tokenizes to nothing")
    arcs = backend.parse_dependencies(summary)
    if not arcs:
        raise NoArcsError("summary yields no dependency arcs (single token)")
    probs = np.asarray(backend.arc_entailment_probs(document, arcs), dtype=np.float64)
    if probs.shape[0] != len(arcs):
        raise BackendError("entailment output length does not match arc count")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise BackendError("arc entailment probabilities must lie in [0, 1]")
    return float(np.mean(probs)), truncated


REFERENCE_SCORERS = {"greedy": reference_greedy, "condll": reference_condll,
                     "dae": reference_dae}


def reference_score_corpus(corpus, scorer_names, backend):
    """Every cell scored one pair and one scorer at a time, as before chunking."""
    d = backend.descriptor
    cells = []
    for scorer in scorer_names:
        for pair in corpus:
            try:
                value, truncated = REFERENCE_SCORERS[scorer](pair.document, pair.summary,
                                                             backend)
                cells.append(FactualityScore(pair.id, scorer, d.name, d.version, value,
                                             truncated))
            except PER_PAIR_ERRORS as exc:
                cells.append(ScoreFailure(pair.id, scorer, d.name, d.version,
                                          failure_reason(exc)))
    return cells


class StepFailMock(MockBackend):
    """A 6-token mock whose ops fail on marker tokens, so one chunk can hold a
    pair failing at each step of each scorer next to healthy pairs.

    TOKFAIL fails tokenize; NIL tokenizes to nothing; EMBFAIL fails
    embed_tokens and NARROW embeds 8-wide (greedy's arithmetic fails); LPFAIL
    fails conditional_token_logprobs and POSLP makes one log-prob positive;
    PARSEFAIL fails parse_dependencies; ENTFAIL fails arc_entailment_probs and
    SHORTENT drops one of its probabilities. `fatal` is raised by
    embed_tokens on FATAL, an error that is no per-pair error.
    """

    def __init__(self, fatal: type[Exception] = RuntimeError):
        super().__init__(dim=16, max_tokens=6)
        self._narrow = MockBackend(dim=8)
        self._fatal = fatal

    def tokenize(self, text):
        if "TOKFAIL" in text.split():
            raise BackendError(f"cannot tokenize {text!r}")
        return [token for token in text.split() if token != "NIL"]

    def embed_tokens(self, text):
        if "FATAL" in text.split():
            raise self._fatal(f"fatal on {text!r}")
        if "EMBFAIL" in text.split():
            raise DomainError(f"cannot embed {text!r}")
        if "NARROW" in text.split():
            return self._narrow.embed_tokens(text)
        return super().embed_tokens(text)

    def conditional_token_logprobs(self, source, target):
        if "LPFAIL" in target.split():
            raise BackendError(f"no log-probs for {target!r}")
        logprobs = super().conditional_token_logprobs(source, target)
        return [0.5, *logprobs[1:]] if "POSLP" in target.split() else logprobs

    def parse_dependencies(self, summary):
        if "PARSEFAIL" in summary.split():
            raise DomainError(f"cannot parse {summary!r}")
        return super().parse_dependencies(summary)

    def arc_entailment_probs(self, document, arcs):
        if "ENTFAIL" in document.split():
            raise BackendError(f"no entailment for {document!r}")
        probs = super().arc_entailment_probs(document, arcs)
        return probs[:-1] if "SHORTENT" in document.split() else probs


class Recorder(Backend):
    """Delegates every op to `inner` and records each call's op and arguments."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = []

    @property
    def descriptor(self):
        return self._inner.descriptor

    def _op(self, op, *args):
        self.calls.append((op, *(tuple(a) if isinstance(a, list) else a for a in args)))
        return getattr(self._inner, op)(*args)

    def tokenize(self, text):
        return self._op("tokenize", text)

    def embed_tokens(self, text):
        return self._op("embed_tokens", text)

    def conditional_token_logprobs(self, source, target):
        return self._op("conditional_token_logprobs", source, target)

    def arc_entailment_probs(self, document, arcs):
        return self._op("arc_entailment_probs", document, arcs)

    def masked_fill_accuracy(self, prefix, sentence, mask_positions):
        return self._op("masked_fill_accuracy", prefix, sentence, mask_positions)

    def parse_dependencies(self, summary):
        return self._op("parse_dependencies", summary)


STEP_FAIL_PAIRS = [
    ("healthy-1", "alpha beta gamma delta", "alpha beta"),
    ("doc-tokenize", "TOKFAIL alpha beta", "alpha beta"),
    ("healthy-truncated", "storm hit the harbor town today at noon", "storm comet"),
    ("healthy-at-the-limit", "storm hit the harbor town today", "storm harbor"),
    ("summary-tokenize", "alpha beta gamma", "alpha TOKFAIL"),
    ("empty-summary", "alpha beta gamma", "NIL"),
    ("doc-embed", "EMBFAIL alpha beta", "alpha beta"),
    ("empty-doc", "NIL NIL", "alpha beta"),
    ("summary-embed", "alpha beta gamma", "alpha EMBFAIL"),
    ("summary-too-long", "alpha beta", "a b c d e f g"),
    ("greedy-arithmetic", "alpha beta gamma", "alpha NARROW"),
    ("condll-op", "alpha beta", "alpha LPFAIL"),
    ("condll-arithmetic", "alpha beta", "alpha POSLP"),
    ("dae-parse", "alpha beta", "alpha PARSEFAIL"),
    ("dae-no-arcs", "alpha beta", "alpha"),
    ("dae-entailment", "ENTFAIL alpha beta", "alpha beta"),
    ("dae-arithmetic", "SHORTENT alpha beta", "alpha beta"),
    ("marker-past-the-limit", "one two three four five six ENTFAIL", "two three four"),
    ("healthy-2", "one two three four", "two three four"),
]
ALL_SCORERS = ["greedy", "condll", "dae"]


def step_fail_corpus(split="train"):
    return make_corpus("c", *(make_pair(*pair, split=split) for pair in STEP_FAIL_PAIRS))


class TestChunkedOutcomes:
    """Chunked scoring gives each pair the outcome the one-pair scorers gave it."""

    @pytest.mark.parametrize("chunk_chars", [1, 60, 10 ** 9])
    def test_every_step_fails_as_in_the_one_pair_scorers(self, monkeypatch, chunk_chars):
        monkeypatch.setattr(scorers, "_CHUNK_CHARS", chunk_chars)
        corpus = step_fail_corpus()
        cells = score_corpus(corpus, ALL_SCORERS, StepFailMock())
        assert cells == reference_score_corpus(corpus, ALL_SCORERS, StepFailMock())
        reasons = {c.reason.split(":")[0] for c in cells if isinstance(c, ScoreFailure)}
        assert reasons == {"BackendError", "DomainError", "EmptySummaryError", "NoArcsError",
                           "SequenceLengthError"}
        assert sum(isinstance(c, FactualityScore) and c.truncated for c in cells) == 6

    def test_no_op_is_requested_past_a_pairs_failure(self):
        corpus = step_fail_corpus()
        chunked, one_pair = Recorder(StepFailMock()), Recorder(StepFailMock())
        score_corpus(corpus, ALL_SCORERS, chunked)
        reference_score_corpus(corpus, ALL_SCORERS, one_pair)
        # The one-pair scorers tokenized each pair once per scorer.
        tokenize = lambda calls: Counter(call for call in calls if call[0] == "tokenize")
        assert {call: 3 * n for call, n in tokenize(chunked.calls).items()} == \
            tokenize(one_pair.calls)
        other = lambda calls: Counter(call for call in calls if call[0] != "tokenize")
        assert other(chunked.calls) == other(one_pair.calls)

    def test_two_tokenize_calls_per_pair_that_needs_a_cell(self):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        done = {pair.id for pair in corpus.pairs[:10]}
        for skip, needing in ((None, len(corpus)),
                              (lambda pid, scorer: scorer == "greedy" or pid in done,
                               len(corpus) - len(done))):
            backend = Recorder(MockBackend())
            score_corpus(corpus, ALL_SCORERS, backend, skip=skip)
            assert sum(call[0] == "tokenize" for call in backend.calls) == 2 * needing

    @pytest.mark.parametrize("error", [TransportError, RuntimeError])
    def test_an_error_that_is_not_per_pair_aborts(self, error):
        corpus = make_corpus("c", make_pair("p1", "alpha beta", "alpha beta"),
                             make_pair("p2", "alpha FATAL", "alpha beta"))
        with pytest.raises(error, match="fatal on 'alpha FATAL'"):
            score_corpus(corpus, ALL_SCORERS, StepFailMock(fatal=error))

    def test_remote_batches_give_the_in_process_outcomes(self, tmp_path):
        corpus = step_fail_corpus()
        server = tmp_path / "server.py"
        server.write_text(
            "import sys\n"
            f"sys.path[:0] = [{str(Path(__file__).parent)!r}, "
            f"{str(toy_corpus_path().parents[2])!r}]\n"
            "from test_scorers import StepFailMock\n"
            "from factfilter.remote import serve\n"
            "serve(StepFailMock(), sys.stdin, sys.stdout)\n", encoding="utf-8")
        with RemoteBackend([sys.executable, str(server)]) as remote:
            cells = score_corpus(corpus, ALL_SCORERS, remote)
        assert cells == score_corpus(corpus, ALL_SCORERS, StepFailMock())


class TestScoreCorpus:
    def _corpus(self) -> Corpus:
        return make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma delta", "alpha beta"),
            make_pair("p2", "storm hit the harbor", "storm comet"),
            make_pair("p3", "one two three four", "two three four"),
        )

    def test_shape(self, mock_backend):
        cells = score_corpus(self._corpus(), ["greedy", "condll", "dae"], mock_backend)
        assert len(cells) == 9

    def test_permuted_corpus_same_content(self, mock_backend):
        corpus = self._corpus()
        reversed_corpus = Corpus(name="c", pairs=tuple(reversed(corpus.pairs)))
        forward = {(c.scorer, c.pair_id): c for c in
                   score_corpus(corpus, ["greedy", "condll"], mock_backend)}
        backward = {(c.scorer, c.pair_id): c for c in
                    score_corpus(reversed_corpus, ["greedy", "condll"], mock_backend)}
        assert forward == backward

    def test_single_token_summary_gets_sentinel_for_dae_only(self, mock_backend):
        corpus = make_corpus("c", make_pair("p1", "the mayor opened the bridge", "mayor"))
        cells = score_corpus(corpus, ["greedy", "condll", "dae"], mock_backend)
        by_scorer = {c.scorer: c for c in cells}
        assert isinstance(by_scorer["greedy"], FactualityScore)
        assert isinstance(by_scorer["condll"], FactualityScore)
        assert isinstance(by_scorer["dae"], ScoreFailure)
        assert "NoArcsError" in by_scorer["dae"].reason

    def test_out_of_range_value_becomes_sentinel(self, mock_backend, monkeypatch):
        monkeypatch.setitem(SCORERS, "dae", lambda pairs, backend: [1.5] * len(pairs))
        (cell,) = score_corpus(self._corpus().subset(["p1"]), ["dae"], mock_backend)
        assert isinstance(cell, ScoreFailure)
        assert cell.reason == "DomainError: score 1.5 outside the valid range for scorer 'dae'"

    def test_unknown_scorer_rejected_before_scoring(self, mock_backend):
        with pytest.raises(ConfigurationError):
            score_corpus(self._corpus(), ["greedy", "nope"], mock_backend)

    def test_empty_corpus_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            score_corpus(Corpus(name="c", pairs=()), ["greedy"], mock_backend)

    def test_concatenation_equals_union(self, mock_backend):
        c1 = make_corpus("c", make_pair("a1", "alpha beta gamma", "alpha beta"))
        c2 = make_corpus("c", make_pair("b1", "storm harbor town", "storm comet"))
        both = Corpus(name="c", pairs=c1.pairs + c2.pairs)
        separate = {(c.scorer, c.pair_id): c
                    for c in score_corpus(c1, ["greedy"], mock_backend)}
        separate.update({(c.scorer, c.pair_id): c
                         for c in score_corpus(c2, ["greedy"], mock_backend)})
        combined = {(c.scorer, c.pair_id): c
                    for c in score_corpus(both, ["greedy"], mock_backend)}
        assert combined == separate


class TestScoreTable:
    def _score(self, pair_id="p", scorer="greedy", backend_name="mock",
               backend_version="1", value=0.5) -> FactualityScore:
        return FactualityScore(pair_id=pair_id, scorer=scorer, backend_name=backend_name,
                               backend_version=backend_version, value=value, truncated=False)

    def test_rejects_mixed_backends_in_column(self):
        table = ScoreTable("c")
        table.add(self._score(pair_id="a"))
        with pytest.raises(IntegrityError):
            table.add(self._score(pair_id="b", backend_version="2"))

    def test_rejects_duplicate_cell(self):
        table = ScoreTable("c")
        table.add(self._score())
        with pytest.raises(IntegrityError):
            table.add(self._score())

    def test_values_excludes_sentinels(self):
        table = ScoreTable("c")
        table.add(self._score(pair_id="a"))
        table.add(ScoreFailure(pair_id="b", scorer="greedy", backend_name="mock",
                               backend_version="1", reason="boom"))
        assert set(table.values("greedy")) == {"a"}
        assert table.failures("greedy") == {"b": "boom"}

    def test_value_range_validated(self):
        with pytest.raises(DomainError):
            self._score(scorer="dae", value=1.5)
        with pytest.raises(DomainError):
            self._score(scorer="condll", value=0.25)


class TestScoresFile:
    def test_round_trip(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
            make_pair("p2", "storm harbor", "storm"),
        )
        cells = score_corpus(corpus, ["greedy", "dae"], mock_backend)
        path = tmp_path / "scores.jsonl"
        write_scores(cells, path)
        table = load_scores(path, "c")
        assert set(table.scorers) == {"greedy", "dae"}
        assert table.values("greedy")["p1"] == 1.0
        assert "p2" in table.failures("dae")

    def test_resume_skips_done_cells(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
            make_pair("p2", "storm harbor town", "storm harbor"),
        )
        path = tmp_path / "scores.jsonl"
        added_first = score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        assert added_first == 2
        before = path.read_bytes()
        added_again = score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        assert added_again == 0
        assert path.read_bytes() == before
        added_new_scorer = score_corpus_to_file(corpus, ["greedy", "condll"],
                                                mock_backend, path)
        assert added_new_scorer == 2
        table = load_scores(path, "c")
        assert set(table.scorers) == {"greedy", "condll"}

    def test_resume_with_different_backend_rejected(self, tmp_path, mock_backend):
        corpus = make_corpus(
            "c",
            make_pair("p1", "alpha beta gamma", "alpha beta"),
        )
        path = tmp_path / "scores.jsonl"
        score_corpus_to_file(corpus, ["greedy"], mock_backend, path)
        bigger = make_corpus("c", corpus.pairs[0],
                             make_pair("p2", "storm harbor", "storm harbor"))

        class OtherVersion(MockBackend):
            @property
            def descriptor(self):
                from dataclasses import replace
                return replace(super().descriptor, version="2")

        before = path.read_bytes()
        with pytest.raises(IntegrityError):
            score_corpus_to_file(bigger, ["greedy"], OtherVersion(), path)
        assert path.read_bytes() == before


def reference_cell_from_row(row):
    """The per-row cell builder as it was before the positional rewrite."""
    common = dict(
        pair_id=row["pair_id"],
        scorer=row["scorer"],
        backend_name=row["backend_name"],
        backend_version=row["backend_version"],
    )
    if row.get("value") is None:
        return ScoreFailure(reason=str(row.get("error", "unknown failure")), **common)
    return FactualityScore(value=float(row["value"]),
                           truncated=bool(row.get("truncated", False)), **common)


def reference_load_scores(path, corpus_name):
    """The json.loads-per-line loader as it was before the raw_decode rewrite."""
    table = ScoreTable(corpus_name)
    p = Path(path)
    with p.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
                cell = reference_cell_from_row(row)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"bad score row: {exc}", path=str(p), line=lineno) from exc
            table.add(cell)
    return table


def _table_cells(table):
    """Each column in load order, with exact value bits, its provenance and truncated ids."""
    return [(scorer,
             [(pair_id, type(v), v.hex() if isinstance(v, float) else v)
              for pair_id, v in table.column(scorer).items()],
             table.backend_descriptors()[scorer], table.truncated_ids(scorer))
            for scorer in table.scorers]


def _cells_as_columns(cells):
    """What `_table_cells` gives for a table holding `cells`, added in order."""
    columns = {}
    for c in cells:
        entries, _, truncated = columns.setdefault(
            c.scorer, ([], {"name": c.backend_name, "version": c.backend_version}, set()))
        if isinstance(c, FactualityScore):
            entries.append((c.pair_id, float, c.value.hex()))
            if c.truncated:
                truncated.add(c.pair_id)
        else:
            entries.append((c.pair_id, str, c.reason))
    return [(scorer, *column) for scorer, column in columns.items()]


def _generated_cells(seed: int, n_pairs: int):
    rng = random.Random(seed)
    ranges = {"greedy": (-1.0, 1.0), "condll": (-30.0, 0.0), "dae": (0.0, 1.0)}
    edges = {"greedy": [-1.0, 1.0, 0.0, -0.0, 5e-324], "condll": [0.0, -0.0, -1e300],
             "dae": [0.0, 1.0, 1e-310]}
    cells = []
    for scorer, (low, high) in ranges.items():
        for i in range(n_pairs):
            pair_id = f"p{i:04d}-\u00e9\u4e2d" if i % 7 == 0 else f"p{i:04d}"
            if rng.random() < 0.1:
                reason = rng.choice(['NoArcsError: summary yields "no" arcs',
                                     "DomainError: r\u00e9sum\u00e9 \\ tab\t"])
                cells.append(ScoreFailure(pair_id, scorer, "mock", "1", reason))
                continue
            value = edges[scorer][i] if i < len(edges[scorer]) else rng.uniform(low, high)
            cells.append(FactualityScore(pair_id, scorer, "mock", "1", value,
                                         rng.random() < 0.2))
    return cells


class TestLoaderMatchesReference:
    def _assert_same(self, path):
        assert _table_cells(load_scores(path, "c")) == _table_cells(
            reference_load_scores(path, "c"))

    def test_toy_scores_file(self, tmp_path):
        corpus = load_corpus(toy_corpus_path(), name="toy")
        path = tmp_path / "toy_scores.jsonl"
        # A 40-token limit truncates the longer toy documents.
        write_scores(score_corpus(corpus, ["greedy", "condll", "dae"],
                                  MockBackend(max_tokens=40)), path)
        table = load_scores(path, "toy")
        assert sum(len(table.column(s)) for s in table.scorers) == 3 * len(corpus)
        assert any(table.truncated_ids(s) for s in table.scorers)
        self._assert_same(path)

    def test_generated_file_with_sentinels_and_truncation(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=5, n_pairs=400), path)
        # Rows write_scores never produces but the schema allows: padding,
        # blank lines, a missing 'truncated' or 'error', an integer value.
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n   \n")
            handle.write(' {"pair_id": "x1", "scorer": "greedy", "backend_name": "mock", '
                         '"backend_version": "1", "value": 1} \t\n')
            handle.write('{"pair_id": "x1", "scorer": "dae", "backend_name": "mock", '
                         '"backend_version": "1", "value": null}\n')
            handle.write('{"pair_id": "x1", "scorer": "condll", "backend_name": "mock", '
                         '"backend_version": "1", "value": -2.5e-3, "truncated": true, '
                         '"extra": [1, {"k": null}]}')
        self._assert_same(path)

    def test_round_trip_equals_written_cells(self, tmp_path):
        cells = _generated_cells(seed=6, n_pairs=200)
        path = tmp_path / "scores.jsonl"
        write_scores(cells, path)
        assert _table_cells(load_scores(path, "c")) == _cells_as_columns(cells)

    def test_columns_hold_exact_floats_and_reasons_that_values_and_failures_split(
            self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=8, n_pairs=300), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps({**_GOOD_ROW, "pair_id": "int", "value": 1}) + "\n")
        table = load_scores(path, "c")
        table.add(FactualityScore("x", "dae", "mock", "1", 0, False))
        for scorer in table.scorers:
            column = table.column(scorer)
            assert {type(v) for v in column.values()} == {float, str}
            values, failures = table.values(scorer), table.failures(scorer)
            assert values.keys().isdisjoint(failures)
            assert {**values, **failures} == column

    @pytest.mark.parametrize("second", ['{"a": 1}', "{}", "1", "null"])
    def test_two_json_values_on_one_line_rejected(self, tmp_path, second):
        path = tmp_path / "scores.jsonl"
        write_scores(_generated_cells(seed=7, n_pairs=2), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1] = f"{lines[1]} {second}"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError, match="Extra data") as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 2
        assert str(excinfo.value).startswith(f"{path}:2: ")
        with pytest.raises(ParseError, match="Extra data"):
            reference_load_scores(path, "c")


_GOOD_ROW = {"pair_id": "a", "scorer": "greedy", "backend_name": "mock",
             "backend_version": "1", "value": 0.5, "truncated": False}


def _write_rows(path, *rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


class TestScoreRowErrors:
    @pytest.mark.parametrize("bad_row, error, message", [
        (_GOOD_ROW, IntegrityError, "duplicate score for pair 'a'"),
        ({**_GOOD_ROW, "pair_id": "b", "backend_version": "2"}, IntegrityError,
         "mixes backends mock:1 and mock:2"),
        ({**_GOOD_ROW, "pair_id": "b", "scorer": "dae", "value": 1.5}, DomainError,
         "outside the valid range"),
        ({**_GOOD_ROW, "pair_id": "b", "value": float("nan")}, DomainError, "not finite"),
        ({**_GOOD_ROW, "pair_id": "b", "value": float("inf")}, DomainError, "not finite"),
        ({**_GOOD_ROW, "pair_id": 7}, ParseError, "'pair_id' must be a string, got 7"),
        ({**_GOOD_ROW, "pair_id": "b", "value": None, "error": 3}, ParseError,
         "'error' must be a string, got 3"),
    ], ids=["duplicate", "mixed-provenance", "out-of-range", "nan", "infinite",
            "integer-pair-id", "integer-error"])
    def test_error_names_its_line(self, tmp_path, bad_row, error, message):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, _GOOD_ROW, {**_GOOD_ROW, "pair_id": "c"}, bad_row)
        with pytest.raises(error, match=message) as excinfo:
            load_scores(path, "c")
        assert type(excinfo.value) is error
        assert str(excinfo.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("field, value", [
        ("truncated", "false"), ("truncated", "true"), ("truncated", 0),
        ("truncated", 1), ("truncated", None), ("value", True), ("value", False),
        ("pair_id", 7), ("scorer", None), ("backend_name", 1), ("backend_version", 1.0),
        ("error", 3), ("error", None),
    ])
    def test_wrongly_typed_field_is_parse_error(self, tmp_path, field, value):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, {**_GOOD_ROW, "pair_id": "c"}, {**_GOOD_ROW, field: value})
        with pytest.raises(ParseError, match=repr(field)) as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 2

    def test_wrongly_typed_truncated_on_sentinel_is_parse_error(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        _write_rows(path, {**_GOOD_ROW, "value": None, "truncated": "false", "error": "x"})
        with pytest.raises(ParseError, match="'truncated'") as excinfo:
            load_scores(path, "c")
        assert excinfo.value.line == 1
