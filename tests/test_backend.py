from __future__ import annotations

import hashlib
import math
import random
import struct
import sys

import numpy as np
import pytest

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
