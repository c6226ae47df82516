"""The per-pair failure policy, shared by every consumer of the scorer registry."""

from __future__ import annotations

import ast
import logging
import math
from pathlib import Path

import pytest

import reference
from factfilter import MockBackend, evaluate_outputs, metrics, score_corpus
from factfilter.cli import main
from factfilter.errors import PER_PAIR_ERRORS, TransportError
from factfilter.experiments import mock_train_eval_hook
from factfilter.metrics import BlancScore
from factfilter.scorers import ScoreFailure
from faults import FaultBackend

from conftest import make_corpus, make_pair

SRC = Path(__file__).resolve().parent.parent / "src" / "factfilter"


def _corpus(bad_document):
    return make_corpus(
        "c",
        make_pair("good", "the mayor opened the bridge", "mayor opened the bridge",
                  split="test"),
        make_pair("bad", bad_document, "storm hit the harbor", split="test"),
    )


def _score_corpus_reasons(corpus, backend, caplog):
    cells = score_corpus(corpus, ["greedy"], backend)
    assert [c.pair_id for c in cells] == ["good", "bad"]
    return [c.reason for c in cells if isinstance(c, ScoreFailure)]


def _evaluate_reasons(corpus, backend, caplog):
    generated = {pair.id: pair.summary for pair in corpus}
    report = evaluate_outputs(generated, corpus, backend, metrics=["greedy"])
    assert report.per_pair["greedy"] == {"good": 1.0}
    return list(report.failures["greedy"].values())


def _sweep_hook_reasons(corpus, backend, caplog):
    with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
        means = mock_train_eval_hook(backend, ["greedy"])(corpus)
    assert means == {"greedy": 1.0}
    prefix = "pair bad excluded from the greedy mean: "
    assert all(message.startswith(prefix) for message in caplog.messages)
    return [message[len(prefix):] for message in caplog.messages]


@pytest.mark.parametrize("consumer", [_score_corpus_reasons, _evaluate_reasons,
                                      _sweep_hook_reasons],
                         ids=["score_corpus", "evaluate_outputs", "sweep_hook"])
@pytest.mark.parametrize("error", [*PER_PAIR_ERRORS, RuntimeError, TransportError],
                         ids=lambda error: error.__name__)
# FATAL passes tokenize and stops greedy's embed_tokens; TOKFATAL stops tokenize.
@pytest.mark.parametrize("marker, op", [("TOKFATAL", "tokenize"), ("FATAL", "embed_tokens")])
def test_one_failure_policy(consumer, error, marker, op, caplog):
    backend = FaultBackend(fatal=error)
    bad_document = f"{marker} the storm hit the harbor"
    if error not in PER_PAIR_ERRORS:
        with pytest.raises(error, match="fatal on"):
            consumer(_corpus(bad_document), backend, caplog)
        assert backend.calls[-1][0] == op
        return
    assert consumer(_corpus(bad_document), backend, caplog) == [
        f"{error.__name__}: fatal on {bad_document!r}"]


class NanEntailment(MockBackend):
    """Entails no arc of a document that holds "storm": its probabilities are NaN."""

    def arc_entailment_probs(self, document, arcs):
        if "storm" in document.split():
            return [math.nan] * len(arcs)
        return super().arc_entailment_probs(document, arcs)


def test_a_non_finite_value_fails_alike_in_every_consumer(tmp_path, caplog):
    corpus = _corpus("the storm hit the harbor")
    generated = {pair.id: pair.summary for pair in corpus}
    backend = NanEntailment()
    reason = "DomainError: score nan for scorer 'dae' is not finite"
    assert [cell.reason for cell in score_corpus(corpus, ["dae"], backend)
            if isinstance(cell, ScoreFailure)] == [reason]
    report = evaluate_outputs(generated, corpus, backend, metrics=["dae"])
    assert report.failures == {"dae": {"bad": reason}}
    assert (report.per_pair, report.failures) == reference.evaluate(
        generated, corpus, ["dae"], backend)
    with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
        means = mock_train_eval_hook(backend, ["dae"])(corpus)
    assert (means, caplog.messages) == (
        {"dae": 1.0}, [f"pair bad excluded from the dae mean: {reason}"])
    assert reference.hook(corpus, ["dae"], backend) == (means, {("bad", "dae", reason)})
    # `compare` reads the report that `evaluate` wrote.
    report.to_csv(tmp_path / "report.csv")
    assert main(["compare", "--report-a", str(tmp_path / "report.csv"),
                 "--report-b", str(tmp_path / "report.csv"),
                 "--out", str(tmp_path / "comparison.csv")]) == 0


def test_a_nan_blanc_value_fails_alike_in_evaluate_and_the_hook(tmp_path, caplog,
                                                                  monkeypatch):
    corpus = _corpus("the storm hit the harbor")
    generated = {pair.id: pair.summary for pair in corpus}
    monkeypatch.setattr(metrics, "blanc_help", lambda document, summary, backend: BlancScore(
        math.nan if "storm" in document.split() else 0.5, 1, 1))
    reason = "DomainError: score nan for scorer 'blanc' is not finite"
    evaluate_outputs(generated, corpus, MockBackend(),
                     metrics=["blanc"]).to_csv(tmp_path / "report.csv")
    assert f"failure,bad,blanc,,,,{reason}\n" in (tmp_path / "report.csv").read_text()
    with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
        means = mock_train_eval_hook(MockBackend(), ["blanc"])(corpus)
    assert (means, caplog.messages) == (
        {"blanc": 0.5}, [f"pair bad excluded from the blanc mean: {reason}"])


def _handlers() -> list[tuple[str, list[str] | None]]:
    """(`module.function` site, names caught) of every `except` clause in src;
    a bare `except:` catches None."""
    handlers: list[tuple[str, list[str] | None]] = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        enclosing: dict[ast.AST, str] = {}
        for node in ast.walk(tree):
            name = node.name if isinstance(node, (ast.FunctionDef,
                                                  ast.AsyncFunctionDef)) \
                else enclosing.get(node, "<module>")
            for child in ast.iter_child_nodes(node):
                enclosing[child] = name
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            site = f"{path.stem}.{enclosing[node]}"
            if node.type is None:
                handlers.append((site, None))
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            handlers.append((site, [t.id if isinstance(t, ast.Name) else getattr(t, "attr", "")
                                    for t in caught]))
    return handlers


def test_only_the_remote_keep_alive_guard_catches_everything():
    handlers = _handlers()
    assert [site for site, caught in handlers
            if caught and {"Exception", "BaseException"} & set(caught)] == ["remote.serve"]
    assert [site for site, caught in handlers if caught is None] == []


def test_only_the_backend_maps_and_the_scoring_loop_catch_per_pair_errors():
    assert [site for site, caught in _handlers() if caught and "PER_PAIR_ERRORS" in caught] \
        == ["backend.map", "remote.map", "scorers._per_pair"]


SINGLE_OPS = ("tokenize", "embed_tokens", "conditional_token_logprobs",
              "arc_entailment_probs", "masked_fill_accuracy", "parse_dependencies")


def _single_op_calls(source: str) -> list[int]:
    """Lines of the calls in `source` whose target is a single backend op by name."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in SINGLE_OPS]


def test_only_the_backend_modules_call_a_single_op():
    """Consumers ask a backend for work through `Backend.map`; `backend.py`
    holds the mock's own ops and the `map` default, `remote.py` the server."""
    calls = {path.name: lines for path in sorted(SRC.glob("*.py"))
             if path.name not in ("backend.py", "remote.py")
             and (lines := _single_op_calls(path.read_text(encoding="utf-8")))}
    assert calls == {}


def test_the_single_op_guard_sees_a_direct_call():
    source = ("tokens = backend.tokenize(sentence)\n"
              "fills = backend.map('masked_fill_accuracy', calls)\n"
              "fill = self._backend.masked_fill_accuracy(summary, sentence, positions)\n")
    assert _single_op_calls(source) == [1, 3]
