from __future__ import annotations

import hashlib
import math
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from factfilter import (
    DependencyArc,
    MockBackend,
    TokenEmbeddings,
    create_backend,
    load_corpus,
    toy_corpus_path,
)
from factfilter.backend import _digest_rows
from factfilter.errors import ConfigurationError, DomainError, SequenceLengthError
from factfilter.remote import RemoteBackend


class TestMockEmbeddings:
    def test_identical_tokens_identical_vectors(self, mock_backend):
        emb = mock_backend.embed_tokens("cat cat")
        assert emb.tokens == ("cat", "cat")
        assert np.array_equal(emb.vectors[0], emb.vectors[1])
        assert float(np.dot(emb.vectors[0], emb.vectors[1])) == pytest.approx(1.0, abs=1e-12)

    def test_distinct_tokens_cosine_below_one(self, mock_backend):
        emb = mock_backend.embed_tokens("cat dog")
        cosine = float(np.dot(emb.vectors[0], emb.vectors[1]))
        assert cosine < 1.0

    def test_empty_text_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            mock_backend.embed_tokens("")

    def test_unit_norm_and_finite(self, mock_backend):
        emb = mock_backend.embed_tokens("alpha beta gamma")
        norms = np.linalg.norm(emb.vectors, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)

    def test_bit_deterministic_across_instances(self):
        a = MockBackend().embed_tokens("storm harbor").vectors
        b = MockBackend().embed_tokens("storm harbor").vectors
        assert np.array_equal(a, b)

    def test_tokens_cover_input(self, mock_backend):
        text = "  a   b\tc  "
        emb = mock_backend.embed_tokens(text)
        assert " ".join(emb.tokens) == " ".join(text.split())

    def test_length_limit_carries_limit(self):
        backend = MockBackend(max_tokens=4)
        with pytest.raises(SequenceLengthError) as excinfo:
            backend.embed_tokens("a b c d e")
        assert excinfo.value.limit == 4


def _reference_row(digest: bytes, dim: int) -> np.ndarray:
    """The mock's embedding formula for one token, written out per token."""
    raw = struct.unpack(f"<{dim}I", digest)
    vec = np.array([(u / 2147483648.0) - 1.0 for u in raw], dtype=np.float64)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:  # vanishing hash vector; pin a basis direction
        vec[0] = 1.0
        norm = 1.0
    return vec / norm


def _token_digest(token: str, dim: int) -> bytes:
    return hashlib.blake2b(token.encode("utf-8"), digest_size=4 * dim,
                           person=b"tokvec").digest()


def _toy_vocabulary() -> list[str]:
    corpus = load_corpus(toy_corpus_path())
    return sorted({tok for pair in corpus for tok in (pair.document + " " + pair.summary).split()})


def _generated_vocabulary(n: int = 30_000) -> list[str]:
    rng = random.Random(7)
    letters = "abcdefghijklmnopqrstuvwxyz0123456789-'éüßøλж"
    return sorted({"".join(rng.choice(letters) for _ in range(rng.randint(1, 14)))
                   for _ in range(n)})


def _bits(vectors: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(vectors, dtype=np.float64).view(np.uint64)


class TestMockEmbeddingReference:
    """The batched embedder equals the per-token formula bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    @pytest.mark.parametrize("vocabulary", [_toy_vocabulary, _generated_vocabulary])
    def test_batch_equals_per_token_formula(self, vocabulary, dim):
        words = vocabulary()
        emb = MockBackend(dim=dim, max_tokens=len(words)).embed_tokens(" ".join(words))
        expected = np.stack([_reference_row(_token_digest(w, dim), dim) for w in words])
        assert emb.tokens == tuple(words)
        assert np.array_equal(_bits(emb.vectors), _bits(expected))

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    def test_vanishing_digest_pinned_to_first_axis(self, dim):
        vanishing = struct.pack("<I", 0x80000000) * dim  # every entry maps to 0.0
        digests = [_token_digest("storm", dim), vanishing, _token_digest("harbor", dim)]
        rows = _digest_rows(b"".join(digests), dim)
        expected = np.stack([_reference_row(d, dim) for d in digests])
        assert np.array_equal(_bits(rows), _bits(expected))
        assert rows[1].tolist() == [1.0] + [0.0] * (dim - 1)


class TestDigestRowNorms:
    """`_digest_rows` divides each row by `np.sqrt(row.dot(row))`, bit for bit,
    though it computes all the squared norms in one batch."""

    @staticmethod
    def _rows_alone(digest: bytes, dim: int) -> np.ndarray:
        vecs = np.frombuffer(digest, dtype="<u4").reshape(-1, dim) / 2147483648.0 - 1.0
        rows = []
        for row in vecs:
            norm = np.sqrt(row.dot(row))
            rows.append(np.eye(dim)[0] if norm == 0.0 else row / norm)
        return np.stack(rows)

    @pytest.mark.parametrize("dim", [2, 3, 7, 16])
    @pytest.mark.parametrize("n_rows", [1, 36, 700])
    @pytest.mark.parametrize("vanishing", [(), (0,), (0, -1)], ids=["none", "first", "ends"])
    def test_each_row_is_bit_equal_to_normalising_it_alone(self, dim, n_rows, vanishing):
        rng = np.random.default_rng(1000 * dim + n_rows)
        words = rng.integers(0, 2 ** 32, size=(n_rows, dim), dtype=np.uint32)
        for row in vanishing:
            words[row] = 0x80000000  # every entry maps to 0.0
        digest = words.astype("<u4").tobytes()
        rows = _digest_rows(digest, dim)
        assert np.array_equal(_bits(rows), _bits(self._rows_alone(digest, dim)))
        for row in vanishing:
            assert rows[row].tolist() == [1.0] + [0.0] * (dim - 1)


class TestTokenEmbeddingsShape:
    def test_one_dimensional_vectors_rejected(self):
        with pytest.raises(DomainError, match="2-D"):
            TokenEmbeddings(tokens=("a", "b", "c"), vectors=np.ones(3))

    def test_three_dimensional_vectors_rejected(self):
        with pytest.raises(DomainError, match="2-D"):
            TokenEmbeddings(tokens=("a", "b"), vectors=np.ones((2, 3, 4)))

    def test_zero_rows_rejected(self):
        with pytest.raises(DomainError, match="no token rows"):
            TokenEmbeddings(tokens=(), vectors=np.zeros((0, 16)))


def _old_verdict(tokens: tuple, vectors: np.ndarray) -> str | None:
    """The message of the checks `TokenEmbeddings` made with `np.linalg.norm`,
    or None where they accepted."""
    if vectors.ndim != 2:
        return f"embedding vectors must be 2-D (n_tokens, dim), got shape {vectors.shape}"
    if vectors.shape[0] == 0:
        return "embedding has no token rows"
    if len(tokens) != vectors.shape[0]:
        return f"token/vector mismatch: {len(tokens)} tokens, {vectors.shape[0]} vectors"
    if not np.all(np.isfinite(vectors)):
        return "embedding vectors contain non-finite entries"
    if np.any(np.linalg.norm(vectors, axis=1) == 0.0):
        return "embedding vectors must have nonzero norm"
    return None


# Per dtype: ordinary entries, entries whose squares underflow or overflow in
# that dtype (or wrap, for integers squared in their own dtype), zero and,
# for floats, NaN and infinity.
_ENTRIES = {
    np.float16: [1.5, -2.0, 1e-4, -3e-5, 300.0, 6e4, 0.0, np.nan, np.inf],
    np.float32: [1.5, -2.0, 1e-30, -1e-25, 1e20, 3e38, 0.0, np.nan, -np.inf],
    np.float64: [1.5, -2.0, 1e-200, -1e-170, 1e160, 1e300, 0.0, np.nan, np.inf],
    np.int8: [1, -3, 16, -128, 0],
    np.int32: [1, -3, 65536, -2 ** 31, 0],
    np.int64: [1, -3, 2 ** 32, -2 ** 63, 0],
}


@st.composite
def _embedding_arrays(draw):
    dtype = draw(st.sampled_from(list(_ENTRIES)))
    entries = st.sampled_from(_ENTRIES[dtype])
    if draw(st.booleans()):
        shape = (draw(st.integers(0, 4)),)
    else:
        shape = (draw(st.integers(0, 4)), draw(st.integers(1, 4)))
    flat = draw(st.lists(entries, min_size=math.prod(shape), max_size=math.prod(shape)))
    n_tokens = max(0, (shape[0] if len(shape) == 2 else len(flat)) + draw(st.sampled_from(
        [0, 0, 0, -1, 1])))
    return tuple(f"t{i}" for i in range(n_tokens)), np.array(flat, dtype=dtype).reshape(shape)


class TestTokenEmbeddingsChecks:
    @given(_embedding_arrays())
    def test_same_verdicts_and_messages_as_the_norm_checks(self, drawn):
        tokens, vectors = drawn
        with np.errstate(over="ignore", under="ignore"):
            expected = _old_verdict(tokens, vectors)
            try:
                TokenEmbeddings(tokens=tokens, vectors=vectors)
                got = None
            except DomainError as exc:
                got = str(exc)
        assert got == expected

    @pytest.mark.parametrize("row, dtype", [([1e-4, 0.0], np.float16), ([1e-30], np.float32),
                                            ([1e-200, -1e-200], np.float64)])
    def test_a_row_whose_squares_underflow_is_rejected(self, row, dtype):
        with pytest.raises(DomainError, match="nonzero norm"):
            TokenEmbeddings(tokens=("a", "b"), vectors=np.array([[1.0] * len(row), row], dtype))

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_an_integer_row_whose_squares_wrap_is_accepted(self, dtype):
        big = 16 if dtype is np.int8 else 2 ** 32  # its square wraps to 0 in its own dtype
        TokenEmbeddings(tokens=("a",), vectors=np.array([[big, 0]], dtype))


_WORDS = ["storm", "harbor", "mayor", "x", "éclair", "город", "城市", "🌊", "a-b", "storm."]
_TEXTS = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=9).map(" ".join),
    st.sampled_from(["", "   ", "\t\n"]))


class FatalTokenMock(MockBackend):
    """A mock whose tokenize raises a `RuntimeError`, no per-pair error, on FATAL."""

    def tokenize(self, text):
        if "FATAL" in text.split():
            raise RuntimeError(f"fatal on {text!r}")
        return super().tokenize(text)


class CountingEmbedMock(MockBackend):
    """A mock whose own `embed_tokens` records each text and answers 3-wide."""

    def __init__(self):
        super().__init__()
        self.texts: list[str] = []
        self._narrow = MockBackend(dim=3)

    def embed_tokens(self, text):
        self.texts.append(text)
        return self._narrow.embed_tokens(text)


class RecordingHasher:
    """A hashlib hasher whose copies, and itself, log the data each `update` gets."""

    def __init__(self, inner, log: list):
        self._inner = inner
        self._log = log

    def copy(self):
        return RecordingHasher(self._inner.copy(), self._log)

    def update(self, data):
        self._log.append(data)
        self._inner.update(data)

    def digest(self):
        return self._inner.digest()


def _outcome(item) -> tuple:
    if isinstance(item, Exception):
        return type(item), str(item)
    return item.tokens, [[x.hex() for x in row] for row in item.vectors.tolist()]


class TestEmbedRequestTable:
    """One `embed_tokens` map shares a token table that lives only for the request."""

    @given(texts=st.lists(_TEXTS, max_size=12), dim=st.sampled_from([2, 16]))
    def test_map_equals_one_call_per_text(self, texts, dim):
        backend = MockBackend(dim=dim, max_tokens=6)
        singles = []
        for text in texts:
            try:
                singles.append(backend.embed_tokens(text))
            except (DomainError, SequenceLengthError) as exc:
                singles.append(exc)
        mapped = backend.map("embed_tokens", [(text,) for text in texts])
        assert [_outcome(item) for item in mapped] == [_outcome(item) for item in singles]
        for item in singles:
            if not isinstance(item, Exception):
                expected = np.stack([_reference_row(_token_digest(t, dim), dim)
                                     for t in item.tokens])
                assert np.array_equal(_bits(item.vectors), _bits(expected))
        assert "_request_rows" not in vars(backend)

    def test_a_repeated_token_is_hashed_once_per_request(self, monkeypatch):
        from factfilter import backend as backend_module

        hashed = []
        blake2b = hashlib.blake2b
        monkeypatch.setattr(backend_module.hashlib, "blake2b",
                            lambda *args, **kw: RecordingHasher(blake2b(*args, **kw), hashed))
        backend = MockBackend()
        backend.map("embed_tokens", [("storm harbor storm",), ("harbor mayor",), ("storm",)])
        assert hashed == [b"storm", b"harbor", b"mayor"]
        hashed.clear()
        backend.embed_tokens("storm harbor storm")  # a lone call is a request of its own
        assert hashed == [b"storm", b"harbor"]

    def test_no_table_is_left_after_a_request_a_fatal_error_stopped(self):
        backend = FatalTokenMock()
        with pytest.raises(RuntimeError, match="fatal on"):
            backend.map("embed_tokens", [("storm",), ("a FATAL b",), ("harbor",)])
        assert "_request_rows" not in vars(backend)
        (emb,) = backend.map("embed_tokens", [("harbor",)])
        assert np.array_equal(emb.vectors, MockBackend().embed_tokens("harbor").vectors)

    def test_an_overriding_embed_tokens_is_the_one_asked(self):
        backend = CountingEmbedMock()
        out = backend.map("embed_tokens", [("storm harbor",), ("mayor",)])
        assert backend.texts == ["storm harbor", "mayor"]
        assert [emb.vectors.shape for emb in out] == [(2, 3), (1, 3)]


class TokenizeLogMock(MockBackend):
    """A mock that records each text it tokenizes."""

    def __init__(self):
        super().__init__()
        self.tokenized: list[str] = []

    def tokenize(self, text):
        self.tokenized.append(text)
        return super().tokenize(text)


class CountingFillMock(MockBackend):
    """A mock whose own `masked_fill_accuracy` records each call and answers 0.25."""

    def __init__(self):
        super().__init__()
        self.fills: list[tuple] = []

    def masked_fill_accuracy(self, prefix, sentence, mask_positions):
        self.fills.append((prefix, sentence, mask_positions))
        return 0.25


def _fill_as_written_out(prefix: str, sentence: str, positions: list[int],
                         max_tokens: int):
    """The mock's fill accuracy, or (error class, message), for one call."""
    if not positions:
        return DomainError, "mask position set must be non-empty"
    sentence_tokens, prefix_tokens = sentence.split(), prefix.split()
    n_tokens = len(prefix_tokens) + len(sentence_tokens)
    if n_tokens > max_tokens:
        return (SequenceLengthError,
                f"prefix + sentence has {n_tokens} tokens (limit: {max_tokens} tokens)")
    if min(positions) < 0 or max(positions) >= len(sentence_tokens):
        return (DomainError,
                f"mask position out of range for a {len(sentence_tokens)}-token sentence")
    hits = sum(1 for i in set(positions) if sentence_tokens[i] in prefix_tokens)
    return (hits / len(set(positions))).hex()


@st.composite
def _fill_calls(draw) -> list[tuple]:
    """Fill calls over a few prefixes and sentences, so that calls repeat a
    prefix, share a sentence across prefixes, or run past the limit."""
    prefixes = draw(st.lists(_TEXTS, min_size=1, max_size=3))
    sentences = draw(st.lists(_TEXTS, min_size=1, max_size=3))
    call = st.tuples(st.sampled_from(prefixes), st.sampled_from(sentences),
                     st.lists(st.integers(-1, 9), max_size=4))
    return draw(st.lists(call, max_size=12))


def _fill_outcome(item):
    if isinstance(item, Exception):
        return type(item), str(item)
    return item.hex()


class TestFillRequestVocabulary:
    """One `masked_fill_accuracy` map tokenizes each distinct prefix once, into
    vocabularies that live only for the request."""

    @given(calls=_fill_calls())
    def test_map_equals_one_call_at_a_time(self, calls):
        backend = MockBackend(max_tokens=6)
        singles = []
        for call in calls:
            try:
                singles.append(backend.masked_fill_accuracy(*call))
            except (DomainError, SequenceLengthError) as exc:
                singles.append(exc)
        mapped = backend.map("masked_fill_accuracy", calls)
        assert [_fill_outcome(item) for item in mapped] == [_fill_outcome(item)
                                                            for item in singles]
        assert [_fill_outcome(item) for item in singles] == [
            _fill_as_written_out(*call, max_tokens=6) for call in calls]
        assert "_request_vocabularies" not in vars(backend)

    def test_a_prefix_is_tokenized_once_per_request(self):
        backend = TokenizeLogMock()
        calls = [("storm harbor", "storm hit", [0]), ("the the", "storm hit", [0]),
                 ("storm harbor", "harbor mayor", [0]), ("the the", "harbor mayor", [0])]
        assert backend.map("masked_fill_accuracy", calls) == [1.0, 0.0, 1.0, 0.0]
        assert backend.tokenized == ["storm hit", "storm harbor", "storm hit", "the the",
                                     "harbor mayor", "harbor mayor"]
        backend.tokenized.clear()
        for call in calls[::2]:  # a lone call is a request of its own
            backend.masked_fill_accuracy(*call)
        assert backend.tokenized == ["storm hit", "storm harbor", "harbor mayor", "storm harbor"]

    def test_no_vocabulary_is_left_after_a_request_a_fatal_error_stopped(self):
        backend = FatalTokenMock()
        with pytest.raises(RuntimeError, match="fatal on"):
            backend.map("masked_fill_accuracy", [("storm", "storm hit", [0]),
                                                 ("a FATAL b", "storm hit", [0]),
                                                 ("harbor", "storm hit", [0])])
        assert "_request_vocabularies" not in vars(backend)
        assert "_request_rows" not in vars(backend)
        assert backend.map("masked_fill_accuracy", [("harbor", "storm hit", [0]),
                                                    ("storm", "storm hit", [0])]) == [0.0, 1.0]

    def test_an_overriding_masked_fill_accuracy_is_the_one_asked(self):
        backend = CountingFillMock()
        calls = [("storm", "storm hit", [0]), ("the", "storm hit", [0])]
        assert backend.map("masked_fill_accuracy", calls) == [0.25, 0.25]
        assert backend.fills == calls


class TestMockConditional:
    def test_present_and_absent_rules(self, mock_backend):
        logprobs = mock_backend.conditional_token_logprobs("the cat sat", "cat flew")
        assert logprobs[0] == math.log(0.9)
        assert logprobs[1] == math.log(0.1)

    def test_all_outputs_nonpositive(self, mock_backend):
        logprobs = mock_backend.conditional_token_logprobs("x y z", "x q y z w")
        assert all(lp <= 0.0 for lp in logprobs)
        assert len(logprobs) == 5

    def test_empty_inputs_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            mock_backend.conditional_token_logprobs("", "x")
        with pytest.raises(DomainError):
            mock_backend.conditional_token_logprobs("x", "  ")


class TestMockEntailment:
    def test_supported_and_unsupported_arcs(self, mock_backend):
        arcs = [
            DependencyArc("cat", "sat", "dep", 0, 1),
            DependencyArc("cat", "flew", "dep", 0, 2),
        ]
        probs = mock_backend.arc_entailment_probs("the cat sat down", arcs)
        assert probs == [1.0, 0.0]

    def test_output_length_matches_input(self, mock_backend):
        arcs = [DependencyArc("a", "b", "dep", 0, 1)] * 3
        assert len(mock_backend.arc_entailment_probs("a b", arcs)) == 3

    def test_empty_arcs_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            mock_backend.arc_entailment_probs("doc", [])


class TestMockMaskedFill:
    def test_all_in_prefix(self, mock_backend):
        acc = mock_backend.masked_fill_accuracy("storm harbor", "storm hit the harbor",
                                                [0, 3])
        assert acc == 1.0

    def test_none_in_prefix(self, mock_backend):
        acc = mock_backend.masked_fill_accuracy("calm seas", "storm hit the harbor", [0, 3])
        assert acc == 0.0

    def test_empty_mask_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            mock_backend.masked_fill_accuracy("a", "b c", [])

    def test_out_of_range_rejected(self, mock_backend):
        with pytest.raises(DomainError):
            mock_backend.masked_fill_accuracy("a", "b c", [5])


class TestMockParser:
    def test_middle_token_heads_neighbors(self, mock_backend):
        arcs = mock_backend.parse_dependencies("a b c")
        assert [(a.head_token, a.child_token) for a in arcs] == [("b", "a"), ("b", "c")]
        assert all(a.head_index == 1 for a in arcs)

    def test_single_token_gives_no_arcs(self, mock_backend):
        assert mock_backend.parse_dependencies("word") == []

    def test_deterministic(self, mock_backend):
        text = "one two three four five"
        assert mock_backend.parse_dependencies(text) == mock_backend.parse_dependencies(text)

    def test_multi_token_gives_arcs(self, mock_backend):
        assert len(mock_backend.parse_dependencies("x y")) == 1


class TestArcInvariants:
    def test_self_attachment_rejected(self):
        with pytest.raises(DomainError):
            DependencyArc("a", "a", "dep", 2, 2)


class TestRegistry:
    def test_mock_registered(self):
        backend = create_backend("mock")
        assert backend.descriptor.name == "mock"
        assert backend.descriptor.deterministic

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            create_backend("does-not-exist")


class ClosingMock(MockBackend):
    """A mock that counts its `close` calls."""

    def __init__(self):
        super().__init__()
        self.closed = 0

    def close(self):
        self.closed += 1


class TestLifetime:
    def test_mock_is_a_context_manager(self):
        with MockBackend() as backend:
            assert backend.map("tokenize", [("a b",)]) == [["a", "b"]]
        backend.close()  # the default close holds nothing and may run again

    def test_leaving_the_block_closes_once_even_on_an_error(self):
        backend = ClosingMock()
        with pytest.raises(RuntimeError, match="boom"):
            with backend as entered:
                assert entered is backend
                raise RuntimeError("boom")
        assert backend.closed == 1


class TestRemoteProtocol:
    """End-to-end over a real subprocess speaking the line-JSON protocol."""

    @pytest.fixture()
    def remote(self):
        backend = RemoteBackend([sys.executable, "-m", "factfilter.remote",
                                 "--backend", "mock"])
        yield backend
        backend.close()

    def test_descriptor_round_trip(self, remote, mock_backend):
        assert remote.descriptor.name == mock_backend.descriptor.name
        assert remote.descriptor.version == mock_backend.descriptor.version
        assert remote.descriptor.max_tokens == mock_backend.descriptor.max_tokens

    def test_embeddings_bit_identical_to_local(self, remote, mock_backend):
        local = mock_backend.embed_tokens("storm harbor festival")
        over_wire = remote.embed_tokens("storm harbor festival")
        assert over_wire.tokens == local.tokens
        assert np.array_equal(over_wire.vectors, local.vectors)

    def test_all_ops_round_trip(self, remote, mock_backend):
        assert remote.tokenize(" a  b ") == ["a", "b"]
        assert remote.conditional_token_logprobs("x y", "x z") == \
            mock_backend.conditional_token_logprobs("x y", "x z")
        arcs = remote.parse_dependencies("a b c")
        assert arcs == mock_backend.parse_dependencies("a b c")
        assert remote.arc_entailment_probs("a b c", arcs) == [1.0, 1.0]
        assert remote.masked_fill_accuracy("cats", "cats and dogs", [0]) == 1.0

    def test_errors_cross_the_wire(self, remote):
        with pytest.raises(DomainError) as single:
            remote.embed_tokens("")
        (batched,) = remote.map("embed_tokens", [("",)])
        # The server's own DomainError stays a per-pair error on both paths.
        for exc in (single.value, batched):
            assert type(exc) is DomainError and str(exc) == "cannot embed empty text"

    def test_length_error_reads_as_in_process(self, remote, mock_backend):
        text = " ".join(["w"] * 600)
        with pytest.raises(SequenceLengthError) as local:
            mock_backend.embed_tokens(text)
        assert str(local.value) == "text has 600 tokens (limit: 512 tokens)"
        with pytest.raises(SequenceLengthError) as single:
            remote.embed_tokens(text)
        (batched,) = remote.map("embed_tokens", [(text,)])
        for exc in (single.value, batched):
            assert isinstance(exc, SequenceLengthError)
            assert str(exc) == str(local.value) and exc.limit == 512

    def test_length_error_preserves_limit(self):
        backend = RemoteBackend([sys.executable, "-c",
                                 "from factfilter.backend import MockBackend\n"
                                 "from factfilter.remote import serve\n"
                                 "import sys\n"
                                 "serve(MockBackend(max_tokens=3), sys.stdin, sys.stdout)"])
        try:
            with pytest.raises(SequenceLengthError) as excinfo:
                backend.embed_tokens("a b c d")
            assert excinfo.value.limit == 3
        finally:
            backend.close()
