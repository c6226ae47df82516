"""Every scoring path gives each pair the outcome `reference.py` gives it alone."""

from __future__ import annotations

import ast
import logging
import sys
from collections import Counter
from pathlib import Path
from types import ModuleType
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import faults
import reference
from factfilter import evaluate_outputs, score_corpus, scorers
from factfilter.experiments import mock_train_eval_hook, table_eval_hook
from factfilter.metrics import REFERENCE_FREE_METRICS
from factfilter.remote import RemoteBackend
from factfilter.scorers import ScoreTable
from faults import BLANC_CASES, STEP_FAIL_LIMIT, STEP_FAIL_PAIRS, FaultBackend

from conftest import make_corpus, make_pair

ALL_SCORERS = ["greedy", "condll", "dae"]
METRICS = list(REFERENCE_FREE_METRICS)

_WORDS = ["alpha", "beta", "storm", "harbor", "mayor", "quickly", "bridge", "ab", "cd"]
_MARKERS = ["TOKFAIL", "NIL", "EMBFAIL", "NARROW", "LPFAIL", "POSLP", "NOLP", "PARSEFAIL",
            "ENTFAIL", "SHORTENT", "HIGHENT", "SUMFAIL", "FILLFAIL", "HIGHFILL", "NANFILL"]
_TOKENS = st.sampled_from(_WORDS * 6 + _MARKERS)  # most pairs get past a few steps
_SENTENCES = st.lists(_TOKENS, min_size=1, max_size=4).map(lambda words: " ".join(words) + " .")
_DOCUMENTS = st.lists(_SENTENCES, min_size=1, max_size=3).map(" ".join)
# Summaries that tokenize to nothing, one-token ones (no dependency arcs) and longer ones.
_SUMMARIES = st.one_of(st.just("NIL NIL"), st.lists(_TOKENS, min_size=1, max_size=4).map(" ".join))


@st.composite
def _pairs(draw):
    """`(pair_id, document, summary)`s, some sharing their text under other ids."""
    texts = draw(st.lists(st.tuples(_DOCUMENTS, _SUMMARIES), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=8))
    return [(f"p{i}", *texts[k]) for i, k in enumerate(picks)]


# A pair's document is never blank, so the cases without sentences stay out.
_BLANC_PAIRS = [(case, *texts) for case, texts in BLANC_CASES.items() if texts[0].strip()]


@pytest.fixture(scope="module")
def servers():
    """One remote server per token limit, serving a `FaultBackend`, reused
    across the examples of this module."""
    started: dict[int, RemoteBackend] = {}

    def server(max_tokens: int) -> RemoteBackend:
        if max_tokens not in started:
            started[max_tokens] = RemoteBackend(
                [sys.executable, faults.__file__, str(max_tokens)])
        return started[max_tokens]

    yield server
    for backend in started.values():
        backend.close()


@given(pairs=_pairs(), chunk_chars=st.one_of(st.integers(1, 120), st.just(10 ** 9)),
       embed_rows=st.one_of(st.integers(1, 30), st.just(10 ** 9)),
       max_tokens=st.sampled_from([STEP_FAIL_LIMIT, 512]), remote=st.booleans())
@example(pairs=STEP_FAIL_PAIRS, chunk_chars=1, embed_rows=10 ** 9, max_tokens=STEP_FAIL_LIMIT,
         remote=False)
@example(pairs=STEP_FAIL_PAIRS, chunk_chars=60, embed_rows=7, max_tokens=STEP_FAIL_LIMIT,
         remote=True)
@example(pairs=STEP_FAIL_PAIRS, chunk_chars=10 ** 9, embed_rows=10 ** 9,
         max_tokens=STEP_FAIL_LIMIT, remote=False)
@example(pairs=STEP_FAIL_PAIRS, chunk_chars=10 ** 9, embed_rows=1, max_tokens=STEP_FAIL_LIMIT,
         remote=False)
@example(pairs=STEP_FAIL_PAIRS, chunk_chars=10 ** 9, embed_rows=12,
         max_tokens=STEP_FAIL_LIMIT, remote=True)
@example(pairs=_BLANC_PAIRS, chunk_chars=1, embed_rows=1, max_tokens=512, remote=False)
@example(pairs=_BLANC_PAIRS, chunk_chars=2 ** 14, embed_rows=2 ** 12, max_tokens=512,
         remote=True)
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_score_evaluate_and_hook_give_the_one_pair_outcomes(servers, caplog, pairs, chunk_chars,
                                                            embed_rows, max_tokens, remote):
    corpus = make_corpus("c", *(make_pair(*pair, split="test") for pair in pairs))
    texts = {pair.id: (pair.document, pair.summary) for pair in corpus}
    generated = {pair.id: pair.summary for pair in corpus}
    backend = servers(max_tokens) if remote else FaultBackend(max_tokens=max_tokens)
    oracle = FaultBackend(max_tokens=max_tokens)

    with mock.patch.object(scorers, "_CHUNK_CHARS", chunk_chars), \
            mock.patch.object(scorers, "_EMBED_ROWS", embed_rows):
        cells = score_corpus(corpus, ALL_SCORERS, backend)
        assert reference.as_cells(cells) == reference.score_corpus(corpus, ALL_SCORERS, oracle)
        if not remote:  # the same single ops, each as often
            assert Counter(backend.calls) == Counter(oracle.calls)
        report = evaluate_outputs(generated, corpus, backend, metrics=METRICS)
        table = ScoreTable(corpus.name)
        for cell in cells:
            table.add(cell)
        selections = [corpus, corpus.subset(list(texts)[::2]), corpus]
        runs = []  # `mock_train_eval_hook`, then the hook reading scorer metrics from `table`
        for make_hook in (lambda: mock_train_eval_hook(backend, METRICS),
                          lambda: table_eval_hook(corpus, table, backend)):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
                hook = make_hook()
                means = [hook(selection) for selection in selections]
            runs.append((means, [record.args for record in caplog.records
                                 if "excluded from" in record.msg]))
    assert (report.per_pair, report.failures) == reference.evaluate(
        generated, corpus, METRICS, oracle)
    excluded = set()
    for k, selection in enumerate(selections):
        expected, reasons = reference.hook(selection, METRICS, oracle)
        assert [means[k] for means, _ in runs] == [expected, expected]
        excluded |= reasons

    def by_text(entries):
        return [(*texts[pair_id], metric, reason) for pair_id, metric, reason in entries]

    (_, logged), (_, table_logged) = runs
    # `mock_train_eval_hook` logs an exclusion once per text, the table hook a reused
    # metric's once per pair and BLANC's once per text.
    for got, want in ((by_text(logged), by_text(excluded)),
                      (by_text(e for e in table_logged if e[1] == "blanc"),
                       by_text(e for e in excluded if e[1] == "blanc")),
                      ([e for e in table_logged if e[1] != "blanc"],
                       [e for e in excluded if e[1] != "blanc"])):
        assert sorted(got) == sorted(set(want))


def test_step_fail_pairs_fail_at_every_step():
    cells = reference.score_corpus(make_corpus("c", *(make_pair(*p) for p in STEP_FAIL_PAIRS)),
                                   ALL_SCORERS, FaultBackend(max_tokens=STEP_FAIL_LIMIT))
    reasons = {value.split(":")[0] for _, _, value, _ in cells if isinstance(value, str)}
    assert reasons == {"BackendError", "DomainError", "EmptySummaryError", "NoArcsError",
                       "SequenceLengthError"}
    assert sum(truncated for *_, truncated in cells) == 6


# What the oracle may take from the modules it checks: BLANC's definitions,
# the error classes and `failure_reason`.
_SHARED = {"split_sentences", "mask_schedule", "FILLER_TOKEN", "BlancScore", "failure_reason"}
_CHECKED = ("factfilter.scorers", "factfilter.metrics")


def _leaks(source: str) -> list[str]:
    """Where `source` calls `.map(`, imports a `factfilter` module whole or takes
    from `_CHECKED` more than `_SHARED` and the error classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "map":
            found.append(f"line {node.lineno}: .map(")
        elif isinstance(node, ast.Import):  # `factfilter.` reaches every module
            found += [f"line {node.lineno}: import {alias.name}" for alias in node.names
                      if alias.name.split(".")[0] == "factfilter"]
        elif isinstance(node, ast.ImportFrom) and node.module in (*_CHECKED, "factfilter"):
            for alias in node.names:
                value = getattr(sys.modules[node.module], alias.name, None)
                origin = node.module if node.module in _CHECKED else getattr(  # a re-export
                    value, "__name__" if isinstance(value, ModuleType) else "__module__", "")
                shared = alias.name in _SHARED or (
                    isinstance(value, type) and issubclass(value, Exception))
                if origin in _CHECKED and not shared:
                    found.append(f"line {node.lineno}: {alias.name} from {node.module}")
    return found


def test_the_oracle_shares_no_chunk_code():
    assert _leaks(Path(reference.__file__).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("planted", [
    "from factfilter.scorers import prepare_pairs",
    "from factfilter import score_corpus",
    "import factfilter.metrics",
    "import factfilter",
    "import factfilter.backend",
    "values = backend.map('tokenize', calls)",
])
def test_the_independence_check_sees_a_planted_leak(planted):
    source = Path(reference.__file__).read_text(encoding="utf-8")
    assert len(_leaks(f"{source}\n{planted}\n")) == 1
