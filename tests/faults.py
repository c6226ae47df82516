"""A backend that fails on marker tokens and records its calls, and the
corpora that fail at each step of each scorer and of BLANC.

`python faults.py MAX_TOKENS` serves a `FaultBackend` over the remote
protocol on stdin/stdout.
"""

from __future__ import annotations

import dataclasses
import sys
import types

import numpy as np

from factfilter.backend import Backend, MockBackend
from factfilter.errors import BackendError, DomainError, NoArcsError
from factfilter.metrics import FILLER_TOKEN
from factfilter.remote import serve


def _plain(text: str) -> str:
    return " ".join(token for token in text.split() if token != "NIL")


class FaultBackend(Backend):
    """A `MockBackend` whose ops fail on marker tokens, recording every call.

    TOKFAIL fails tokenize and NIL tokenizes to nothing. TOKFATAL makes
    tokenize, and FATAL every other op, raise `fatal` (a `RuntimeError`, which
    is no per-pair error, unless another class is given), so FATAL in a pair
    passes its preparation and stops its first scorer op. EMBFAIL fails
    embed_tokens and NARROW embeds 8-wide, so
    greedy's arithmetic fails; FLAT makes embed_tokens return 1-D vectors, and
    ARCLESS parse_dependencies return pairs, results the remote server cannot
    encode; LPFAIL fails conditional_token_logprobs, POSLP makes a log-prob
    positive and NOLP makes the list empty; PARSEFAIL fails parse_dependencies
    and NOARCS makes it raise a `NoArcsError`; ENTFAIL in the document fails
    arc_entailment_probs, SHORTENT drops one of its probabilities, NANENT
    makes the first one NaN and HIGHENT makes it 1.5; SUMFAIL in a sentence
    fails its fill after the summary, FILLFAIL its fill after the filler, and
    HIGHFILL makes its fills 1.5 and NANFILL NaN. The mock sees text without NIL.

    `calls` holds the `(op, *args)` of every single op asked of it, those a
    `map` loops over included; `requests` the op of every `map` request.
    `deterministic=False` makes the descriptor say that the answers may vary.
    """

    def __init__(self, max_tokens: int = 512, fatal: type[Exception] = RuntimeError,
                 deterministic: bool = True):
        self._mock = MockBackend(max_tokens=max_tokens)
        self._narrow = MockBackend(dim=8)
        self._fatal = fatal
        self._descriptor = dataclasses.replace(self._mock.descriptor,
                                               deterministic=deterministic)
        self.calls: list[tuple] = []
        self.requests: list[str] = []

    @property
    def descriptor(self):
        return self._descriptor

    def map(self, op, calls):
        self.requests.append(op)
        return super().map(op, calls)

    def _record(self, op, *args):
        """Record the call, and raise `fatal` if a text holds the op's marker."""
        self.calls.append((op, *(tuple(a) if isinstance(a, list) else a for a in args)))
        marker = "TOKFATAL" if op == "tokenize" else "FATAL"
        for text in args:
            if isinstance(text, str) and marker in text.split():
                raise self._fatal(f"fatal on {text!r}")

    def tokenize(self, text):
        self._record("tokenize", text)
        if "TOKFAIL" in text.split():
            raise BackendError(f"cannot tokenize {text!r}")
        return _plain(text).split()

    def embed_tokens(self, text):
        self._record("embed_tokens", text)
        if "EMBFAIL" in text.split():
            raise DomainError(f"cannot embed {text!r}")
        if "FLAT" in text.split():
            return types.SimpleNamespace(tokens=tuple(text.split()), vectors=np.ones(2))
        mock = self._narrow if "NARROW" in text.split() else self._mock
        return mock.embed_tokens(_plain(text))

    def conditional_token_logprobs(self, source, target):
        self._record("conditional_token_logprobs", source, target)
        if "LPFAIL" in target.split():
            raise BackendError(f"no log-probs for {target!r}")
        if "NOLP" in target.split():
            return []
        logprobs = self._mock.conditional_token_logprobs(_plain(source), _plain(target))
        return [0.5, *logprobs[1:]] if "POSLP" in target.split() else logprobs

    def parse_dependencies(self, summary):
        self._record("parse_dependencies", summary)
        if "PARSEFAIL" in summary.split():
            raise DomainError(f"cannot parse {summary!r}")
        if "NOARCS" in summary.split():
            raise NoArcsError(f"no arcs in {summary!r}")
        if "ARCLESS" in summary.split():
            return [("ARCLESS", "root")]
        return self._mock.parse_dependencies(_plain(summary))

    def arc_entailment_probs(self, document, arcs):
        self._record("arc_entailment_probs", document, arcs)
        if "ENTFAIL" in document.split():
            raise BackendError(f"no entailment for {document!r}")
        probs = self._mock.arc_entailment_probs(_plain(document), arcs)
        if "NANENT" in document.split():
            probs[0] = float("nan")
        if "HIGHENT" in document.split():
            probs[0] = 1.5
        return probs[:-1] if "SHORTENT" in document.split() else probs

    def masked_fill_accuracy(self, prefix, sentence, mask_positions):
        self._record("masked_fill_accuracy", prefix, sentence, mask_positions)
        marker = "FILLFAIL" if set(prefix.split()) == {FILLER_TOKEN} else "SUMFAIL"
        if marker in sentence.split():
            raise DomainError(f"cannot fill {sentence!r} after {prefix!r}")
        if "HIGHFILL" in sentence.split():
            return 1.5
        if "NANFILL" in sentence.split():
            return float("nan")
        return self._mock.masked_fill_accuracy(_plain(prefix), _plain(sentence),
                                               mask_positions)


# (pair id, document, summary): at a 6-token limit, a pair failing at each step
# of each scorer next to healthy, truncated and at-the-limit pairs.
STEP_FAIL_LIMIT = 6
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
    ("condll-no-logprobs", "alpha beta", "alpha NOLP"),
    ("dae-parse", "alpha beta", "alpha PARSEFAIL"),
    ("dae-no-arcs", "alpha beta", "alpha"),
    ("dae-entailment", "ENTFAIL alpha beta", "alpha beta"),
    ("dae-arithmetic", "SHORTENT alpha beta", "alpha beta"),
    ("dae-out-of-range", "HIGHENT alpha beta", "alpha beta"),
    ("marker-past-the-limit", "one two three four five six ENTFAIL", "two three four"),
    ("healthy-2", "one two three four", "two three four"),
]

S1 = "storm flooded harbor town quickly ."
S2 = "mayor opened bridge festival today ."
S3 = "library closed monday evening early ."
# case -> (document, summary): BLANC failing at each step, at the default limit.
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
    "fill-above-one": (f"{S1} HIGHFILL {S2}", "storm mayor"),
    "fill-nan": (f"{S1} {S2} NANFILL {S3}", "storm mayor"),
    "later-fill-before-fill-out-of-range": (f"HIGHFILL {S1} FILLFAIL {S2}", "storm mayor"),
    "later-tokenize-before-fill-out-of-range": (f"NANFILL {S1} TOKFAIL {S2}", "storm mayor"),
    "empty-summary": (f"{S1} {S2}", "NIL NIL"),
    "empty-summary-before-sentence-tokenize": (f"TOKFAIL {S1}", "NIL"),
    "no-sentences": ("   ", "storm mayor"),
    "summary-tokenize-before-no-sentences": ("   ", "TOKFAIL"),
    "no-maskable-token": ("ab cd ef . gh ij kl .", "storm mayor"),
    "some-sentences-maskable": (f"ab cd ef . {S2}", "mayor"),
}
HEALTHY_BLANC_CASES = ("healthy", "no-maskable-token", "some-sentences-maskable")


if __name__ == "__main__":
    serve(FaultBackend(max_tokens=int(sys.argv[1])), sys.stdin, sys.stdout)
