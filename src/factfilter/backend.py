"""Inference contracts for the scorers plus a deterministic mock backend.

Real neural models (token embedders, conditional generators, arc entailment
classifiers, masked-token fillers) plug in behind the `Backend` interface.
The bundled mock backend is bit-deterministic across runs and platforms
(seeded hashing, fixed arithmetic order) so the whole pipeline is testable
without model weights.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import PER_PAIR_ERRORS, ConfigurationError, DomainError, SequenceLengthError


@dataclass(frozen=True)
class BackendDescriptor:
    """Identity and operating limits of a backend.

    (name, version) uniquely identifies scorer provenance; score tables
    refuse to mix values produced under different descriptors in one column.
    """

    name: str
    version: str
    deterministic: bool
    max_tokens: int


@dataclass(frozen=True, eq=False)
class TokenEmbeddings:
    """Per-token vectors aligned index-wise with the token sequence."""

    tokens: tuple[str, ...]
    vectors: np.ndarray  # shape (n_tokens, dim)

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise DomainError(f"embedding vectors must be 2-D (n_tokens, dim), "
                              f"got shape {self.vectors.shape}")
        if self.vectors.shape[0] == 0:
            raise DomainError("embedding has no token rows")
        if len(self.tokens) != self.vectors.shape[0]:
            raise DomainError(
                f"token/vector mismatch: {len(self.tokens)} tokens, "
                f"{self.vectors.shape[0]} vectors"
            )
        if not np.isfinite(self.vectors).all():
            raise DomainError("embedding vectors contain non-finite entries")
        # A zero norm is all-zero squares in the dtype `np.linalg.norm` squares in.
        v = self.vectors if self.vectors.dtype.kind in "fc" else self.vectors.astype(float)
        if not (v * v).any(axis=1).all():
            raise DomainError("embedding vectors must have nonzero norm")


@dataclass(frozen=True)
class DependencyArc:
    """One head->child dependency relation over summary token positions."""

    head_token: str
    child_token: str
    relation_label: str
    head_index: int
    child_index: int

    def __post_init__(self) -> None:
        if self.head_index == self.child_index:
            raise DomainError("dependency arc cannot attach a token to itself")
        if self.head_index < 0 or self.child_index < 0:
            raise DomainError("arc indices must be non-negative")


class Backend(ABC):
    """All neural inference the scorers and the informativeness metric need."""

    @property
    @abstractmethod
    def descriptor(self) -> BackendDescriptor: ...

    @abstractmethod
    def tokenize(self, text: str) -> list[str]: ...

    @abstractmethod
    def embed_tokens(self, text: str) -> TokenEmbeddings:
        """Per-token embeddings covering the input. Raises SequenceLengthError on overflow."""

    @abstractmethod
    def conditional_token_logprobs(self, source: str, target: str) -> list[float]:
        """Log-probability (<= 0) of each target token conditioned on the source."""

    @abstractmethod
    def arc_entailment_probs(self, document: str, arcs: Sequence[DependencyArc]) -> list[float]:
        """Probability in [0, 1] that the document entails each arc, order-aligned."""

    @abstractmethod
    def masked_fill_accuracy(self, prefix: str, sentence: str,
                             mask_positions: Iterable[int]) -> float:
        """Fraction of masked sentence tokens correctly reconstructed given the prefix."""

    @abstractmethod
    def parse_dependencies(self, summary: str) -> list[DependencyArc]:
        """Dependency arcs of the summary; empty for single-token input."""

    def map(self, op: str, calls: Sequence[tuple]) -> list:
        """Run the single op `op` once per argument tuple in `calls`, in order.

        The i-th item is the i-th call's result, or the `PER_PAIR_ERRORS`
        exception that call raised; any other error propagates. This default
        loops over the single ops, so a backend that implements only those
        works unchanged; a backend that can serve a whole batch at once (the
        remote one) overrides it.
        """
        method = getattr(self, op)
        out: list = []
        for args in calls:
            try:
                out.append(method(*args))
            except PER_PAIR_ERRORS as exc:
                out.append(exc)
        return out

    def close(self) -> None:
        """Release what the backend holds; `with backend:` calls it on the way out."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MockBackend(Backend):
    """Deterministic token-identity backend for model-free testing.

    Rules:
      * tokens are whitespace-split, case-sensitive;
      * each token embeds to a unit vector derived from a seeded hash of the
        token string (context-free), so identical tokens embed identically;
        an `embed_tokens` request (one `map`, or a lone call) hashes each
        distinct token once into a table that lives only for the request,
        normalising rows bit-equal to normalising each alone;
      * a target token gets log(0.9) if its string occurs among the source
        tokens, else log(0.1);
      * an arc is entailed (prob 1.0) iff both its head and child token
        strings occur among the document tokens, else 0.0;
      * a masked token is reconstructed iff it occurs among the prefix tokens;
        a `masked_fill_accuracy` request tokenizes each distinct prefix once
        into a vocabulary that lives only for the request, as the token
        table does, so no state outlives a request;
      * the parser attaches every token to the middle token of the sentence.
    """

    LOGPROB_PRESENT = math.log(0.9)
    LOGPROB_ABSENT = math.log(0.1)
    _request_rows: _TokenRows | None = None  # the current `map` request's token table
    # The current request's prefix vocabularies: text -> (token count, token set).
    _request_vocabularies: dict[str, tuple[int, set[str]]] | None = None

    def __init__(self, dim: int = 16, max_tokens: int = 512):
        if dim < 2 or dim > 16:
            raise ConfigurationError("mock embedding dim must be in [2, 16]")
        self._dim = dim
        self._max_tokens = max_tokens
        self._descriptor = BackendDescriptor(
            name="mock",
            version="1",
            deterministic=True,
            max_tokens=max_tokens,
        )

    @property
    def descriptor(self) -> BackendDescriptor:
        return self._descriptor

    def tokenize(self, text: str) -> list[str]:
        return text.split()

    def _check_length(self, n_tokens: int, what: str) -> None:
        if n_tokens > self._max_tokens:
            raise SequenceLengthError(f"{what} has {n_tokens} tokens", self._max_tokens)

    def map(self, op: str, calls: Sequence[tuple]) -> list:
        """`Backend.map`; the `embed_tokens` calls of a request share a token
        table, and its `masked_fill_accuracy` calls their prefix vocabularies."""
        self._request_rows = _TokenRows(self._dim)
        self._request_vocabularies = {}
        try:
            return super().map(op, calls)
        finally:
            del self._request_rows
            del self._request_vocabularies

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        tokens = self.tokenize(text)
        if not tokens:
            raise DomainError("cannot embed empty text")
        self._check_length(len(tokens), "text")
        rows = self._request_rows or _TokenRows(self._dim)
        return TokenEmbeddings(tokens=tuple(tokens), vectors=rows.gather(tokens))

    def conditional_token_logprobs(self, source: str, target: str) -> list[float]:
        source_tokens = self.tokenize(source)
        target_tokens = self.tokenize(target)
        if not source_tokens or not target_tokens:
            raise DomainError("source and target must be non-empty")
        self._check_length(len(source_tokens), "source")
        self._check_length(len(target_tokens), "target")
        vocabulary = set(source_tokens)
        return [self.LOGPROB_PRESENT if tok in vocabulary else self.LOGPROB_ABSENT
                for tok in target_tokens]

    def arc_entailment_probs(self, document: str,
                             arcs: Sequence[DependencyArc]) -> list[float]:
        if not arcs:
            raise DomainError("arc list must be non-empty")
        doc_tokens = self.tokenize(document)
        self._check_length(len(doc_tokens), "document")
        vocabulary = set(doc_tokens)
        return [1.0 if arc.head_token in vocabulary and arc.child_token in vocabulary
                else 0.0
                for arc in arcs]

    def masked_fill_accuracy(self, prefix: str, sentence: str,
                             mask_positions: Iterable[int]) -> float:
        positions = sorted(set(mask_positions))
        if not positions:
            raise DomainError("mask position set must be non-empty")
        sentence_tokens = self.tokenize(sentence)
        vocabularies = self._request_vocabularies
        if vocabularies is None:  # a lone call is a request of its own
            vocabularies = {}
        if prefix not in vocabularies:
            prefix_tokens = self.tokenize(prefix)
            vocabularies[prefix] = len(prefix_tokens), set(prefix_tokens)
        n_prefix, known = vocabularies[prefix]
        self._check_length(n_prefix + len(sentence_tokens), "prefix + sentence")
        if positions[0] < 0 or positions[-1] >= len(sentence_tokens):
            raise DomainError(
                f"mask position out of range for a {len(sentence_tokens)}-token sentence"
            )
        hits = sum(1 for i in positions if sentence_tokens[i] in known)
        return hits / len(positions)

    def parse_dependencies(self, summary: str) -> list[DependencyArc]:
        tokens = self.tokenize(summary)
        if not tokens:
            raise DomainError("cannot parse empty text")
        self._check_length(len(tokens), "summary")
        if len(tokens) < 2:
            return []
        head = (len(tokens) - 1) // 2
        return [
            DependencyArc(head_token=tokens[head], child_token=tokens[i],
                          relation_label="dep", head_index=head, child_index=i)
            for i in range(len(tokens))
            if i != head
        ]


def _digest_rows(digest: bytes, dim: int) -> np.ndarray:
    """Unit rows from `dim` little-endian uint32 per row, each mapped to u / 2^31 - 1.

    Every row's squared norm comes from one batched matmul of the rows as
    1 x dim by dim x 1 matrices. numpy computes each such product with the
    same dot as `row.dot(row)`, the BLAS dot `np.linalg.norm` takes on one
    vector, so each row is bit-equal to normalising it alone. (`einsum` and
    `(vecs * vecs).sum(axis=1)` sum in another order and are not.) A
    vanishing row is pinned to e_0.
    """
    vecs = np.frombuffer(digest, dtype="<u4").reshape(-1, dim) / 2147483648.0 - 1.0
    norms = np.sqrt((vecs[:, None, :] @ vecs[:, :, None]).reshape(-1))
    vanishing = norms == 0.0
    vecs[vanishing, 0] = 1.0
    norms[vanishing] = 1.0
    return vecs / norms[:, None]


class _TokenRows:
    """The unit rows of the distinct tokens one request has seen, each hashed once."""

    def __init__(self, dim: int):
        self._dim = dim
        # blake2b with a fixed person tag is stable across runs, platforms and
        # Pythons; each token's digest comes from a copy of this blank hasher.
        self._blank = hashlib.blake2b(digest_size=4 * dim, person=b"tokvec")
        self._row_of: dict[str, int] = {}
        self._rows = np.empty((0, dim))

    def gather(self, tokens: list[str]) -> np.ndarray:
        """The rows of `tokens`, in order; a token new to the table is hashed first."""
        row_of = self._row_of
        try:
            return self._rows[np.fromiter(map(row_of.__getitem__, tokens), np.intp, len(tokens))]
        except KeyError:
            new = [t for t in dict.fromkeys(tokens) if t not in row_of]
        start, stop = len(row_of), len(row_of) + len(new)
        if stop > len(self._rows):  # amortised growth: the table at least doubles
            self._rows = np.resize(self._rows, (2 * stop, self._dim))
        self._rows[start:stop] = _digest_rows(b"".join(map(self._digest, new)), self._dim)
        row_of.update(zip(new, range(start, stop)))
        return self.gather(tokens)

    def _digest(self, token: str) -> bytes:
        h = self._blank.copy()
        h.update(token.encode("utf-8"))
        return h.digest()


_BACKENDS: dict[str, Callable[..., Backend]] = {}


def register_backend(name: str, factory: Callable[..., Backend], *, replace: bool = False) -> None:
    """Register a backend constructor under a string id."""
    if name in _BACKENDS and not replace:
        raise ConfigurationError(f"backend {name!r} already registered")
    _BACKENDS[name] = factory


def registered_backend(name: str) -> str:
    """`name`; a ConfigurationError unless a backend is registered under it."""
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS)) or "(none)"
        raise ConfigurationError(f"unknown backend {name!r}; registered: {known}")
    return name


def create_backend(name: str, **options) -> Backend:
    """Instantiate a registered backend; ConfigurationError on unknown names."""
    return _BACKENDS[registered_backend(name)](**options)


# Names a Python file whose import registers more backends.
BACKEND_REGISTRY_ENV = "FACTFILTER_BACKENDS"


# The resolved registry files this process has executed.
_LOADED_REGISTRIES: set[Path] = set()


def load_extra_backends() -> Path | None:
    """Import the backend-registration module that `BACKEND_REGISTRY_ENV`
    names, if it is set, once per process; return its path."""
    location = os.environ.get(BACKEND_REGISTRY_ENV)
    if not location:
        return None
    path = Path(location)
    if not path.exists():
        raise ConfigurationError(f"{BACKEND_REGISTRY_ENV} points to missing file {path}")
    if path.resolve() in _LOADED_REGISTRIES:
        return path
    spec = importlib.util.spec_from_file_location("factfilter_extra_backends", path)
    if spec is None or spec.loader is None:
        raise ConfigurationError(f"cannot import backend registry {path}")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    _LOADED_REGISTRIES.add(path.resolve())
    return path


register_backend("mock", MockBackend)
