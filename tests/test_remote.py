"""The remote backend over its pipes: a server's faults and replies, the
exit code and scores file a `score` over a failing server leaves, and every
op's round trip through both codecs."""

from __future__ import annotations

import base64
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfilter import DependencyArc, MockBackend, TokenEmbeddings
from factfilter.cli import main
from factfilter.corpus import toy_corpus_path
from factfilter.remote import PROTOCOL

from test_cli import _generated, _score, toy  # noqa: F401 (`toy` is a fixture)


class TestServedBatches:
    """The server hands each `batch` request to the served backend's `map`."""

    def test_one_map_request_per_batch(self):
        from factfilter.remote import serve
        from faults import FaultBackend

        requests = ['{"op": "batch", "args": {"op": "tokenize", '
                    '"calls": [{"text": "a b"}, {"text": "TOKFAIL"}, {"text": "c"}]}}',
                    '{"op": "embed_tokens", "args": {"text": "a"}}',
                    '{"op": "batch", "args": {"op": "parse_dependencies", '
                    '"calls": [{"summary": "a b c"}, {"summary": "a NOARCS"}]}}']
        backend = FaultBackend()
        out = io.StringIO()
        serve(backend, io.StringIO("\n".join(requests) + "\n"), out)
        assert backend.requests == ["tokenize", "parse_dependencies"]
        assert [call[0] for call in backend.calls] == [
            "tokenize", "tokenize", "tokenize", "embed_tokens", "parse_dependencies",
            "parse_dependencies"]
        tokens, _, arcs = out.getvalue().splitlines()
        # Compact JSON, a bare value per call and an error object in place of a failed one.
        assert tokens == ('{"result":[["a","b"],{"error":{"type":"BackendError",'
                          '"message":"cannot tokenize \'TOKFAIL\'"}},["c"]]}')
        assert arcs == ('{"result":[[["b","a","dep",1,0],["b","c","dep",1,2]],'
                        '{"error":{"type":"NoArcsError","message":"no arcs in \'a NOARCS\'"}}]}')

    def test_an_integrity_error_aborts_the_batch_as_in_process(self):
        from factfilter.errors import IntegrityError
        from factfilter.remote import _decode, serve
        from faults import FaultBackend

        calls = [("a",), ("a FATAL",), ("b",)]
        with pytest.raises(IntegrityError, match="fatal on 'a FATAL'"):
            FaultBackend(fatal=IntegrityError).map("embed_tokens", calls)
        out = io.StringIO()
        request = {"op": "batch", "args": {"op": "embed_tokens",
                                           "calls": [{"text": text} for text, in calls]}}
        serve(FaultBackend(fatal=IntegrityError), io.StringIO(json.dumps(request) + "\n"), out)
        reply = json.loads(out.getvalue())
        assert reply == {"error": {"type": "IntegrityError", "message": "fatal on 'a FATAL'"}}
        with pytest.raises(IntegrityError, match="fatal on 'a FATAL'"):
            _decode("batch", reply)

    @pytest.mark.parametrize("name", ["ScoringError", "EmptySummaryError", "NoArcsError",
                                      "IntegrityError", "DomainError", "BackendError",
                                      "ParseError", "CoverageError", "TransportError",
                                      "FactFilterError"])
    def test_an_error_reply_keeps_its_class(self, name):
        from factfilter import errors
        from factfilter.remote import _decode

        with pytest.raises(getattr(errors, name)) as excinfo:
            _decode("parse_dependencies", {"error": {"type": name, "message": "m"}})
        assert type(excinfo.value) is getattr(errors, name) and str(excinfo.value) == "m"

    def test_per_pair_errors_score_the_same_bytes_in_process_and_over_remote(
            self, tmp_path, monkeypatch):
        import faults
        from factfilter import backend as backend_module

        monkeypatch.setitem(backend_module._BACKENDS, "fault", faults.FaultBackend)
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(
            json.dumps({"id": i, "document": d, "summary": s, "split": "test", "meta": {}})
            + "\n" for i, d, s in [("ok", "alpha beta gamma", "alpha beta"),
                                   ("no-arcs", "alpha beta gamma", "alpha NOARCS"),
                                   ("one-token", "alpha beta", "alpha"),
                                   ("parse", "alpha beta", "alpha PARSEFAIL"),
                                   ("embed", "EMBFAIL alpha", "alpha beta"),
                                   ("logprobs", "alpha beta", "beta LPFAIL")]),
            encoding="utf-8")
        outputs = []
        for backend in (["--backend", "fault"],
                        ["--backend", "remote", "--remote-command",
                         f"{sys.executable} {faults.__file__} 512"]):
            out = tmp_path / f"scores-{len(outputs)}.jsonl"
            assert main(["score", "--in", str(corpus), "--out", str(out),
                         "--scorers", "greedy,condll,dae", *backend]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert b"NoArcsError: no arcs in 'alpha NOARCS'" in outputs[0]

class TestServerFaults:
    """The server names an exception a backend op raises by its type; only a
    request that does not decode is a bad request. Both are `BackendError`
    replies, and the client exits 3."""

    def test_replies(self):
        from factfilter.remote import serve
        from faults import FaultBackend

        # Arcs too short, with a bool index, and misaligned (four items, then six).
        bad_arcs = ['[["a", "b", "dep", 0]]', '[["a", "b", "dep", true, 1]]',
                    '[["a", "b", "dep", 0], [1, "c", "d", "dep", 2, 3]]']
        requests = ['{"op": "embed_tokens", "args": {"text": "a FATAL b"}}',
                    '{"op": "batch", "args": {"op": "tokenize", '
                    '"calls": [{"text": "a"}, {"text": "TOKFATAL"}]}}',
                    '{"op": "embed_tokens", "args": {"text": "a FLAT"}}',
                    '{"op": "parse_dependencies", "args": {"summary": "ARCLESS"}}',
                    "not json", '["op"]', '{"op": "tokenize", "args": {}}',
                    '{"op": "batch", "args": {"op": "tokenize", "calls": [{"text": "a"}, 7]}}',
                    *['{"op": "arc_entailment_probs", "args": {"document": "a", "arcs": %s}}'
                      % arcs for arcs in bad_arcs],
                    '\xa0{"op": "tokenize", "args": {"text": "a"}}',
                    '{"op": "tokenize", "args": {"text": "TOKFAIL"}}',
                    '{"op": "nope", "args": {}}']
        out = io.StringIO()
        serve(FaultBackend(), io.StringIO("\n".join(requests) + "\n"), out)
        errors = [json.loads(line)["error"] for line in out.getvalue().splitlines()]
        assert {error["type"] for error in errors} == {"BackendError"}
        assert [error["message"] for error in errors] == [
            "RuntimeError: fatal on 'a FATAL b'",
            "RuntimeError: fatal on 'TOKFATAL'",
            "IndexError: tuple index out of range",
            "AttributeError: 'tuple' object has no attribute 'head_token'",
            "bad request: Expecting value: line 1 column 1 (char 0)",
            "bad request: 'list' object has no attribute 'get'",
            "bad request: 'text'",
            "bad request: 'int' object is not subscriptable",
            *[f"bad request: arcs must be [head_token, child_token, relation_label, "
              f"head_index, child_index] arrays, got {json.loads(arcs)!r}" for arcs in bad_arcs],
            "bad request: Expecting value: line 1 column 1 (char 0)",
            "cannot tokenize 'TOKFAIL'",
            "unknown op 'nope'"]

    def test_score_exits_three_naming_the_fault(self, tmp_path, capsys):
        import faults

        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": i, "document": d, "summary": s,
                                              "split": "test", "meta": {}}) + "\n"
                                  for i, d, s in [("ok", "alpha beta", "alpha"),
                                                  ("oom", "alpha FATAL beta", "alpha")]),
                          encoding="utf-8")
        out = tmp_path / "scores.jsonl"
        code = main(["score", "--in", str(corpus), "--out", str(out), "--scorers", "greedy",
                     "--backend", "remote", "--remote-command",
                     f"{sys.executable} {faults.__file__} 512"])
        assert code == 3
        assert "backend error: RuntimeError: fatal on 'alpha FATAL beta'" in \
            capsys.readouterr().err
        assert not out.exists()


def test_transport_error_is_never_per_pair():
    from factfilter.errors import PER_PAIR_ERRORS, TransportError

    assert not issubclass(TransportError, PER_PAIR_ERRORS)


def test_remote_runs_release_every_pipe(tmp_path, toy, monkeypatch):
    """A remote `score` and a failed handshake leave no unclosed pipe and no
    running server for the garbage collector to find."""
    import gc
    import warnings

    from factfilter.errors import TransportError
    from factfilter.remote import RemoteBackend

    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        assert main(["score", "--in", str(toy), "--out", str(tmp_path / "scores.jsonl"),
                     "--scorers", "greedy", "--backend", "remote", "--remote-command",
                     f"{sys.executable} -m factfilter.remote --backend mock"]) == 0
        with pytest.raises(TransportError, match="unparseable reply"):
            RemoteBackend([sys.executable, "-c", "print('no handshake')"])
        gc.collect()
    assert [f"{u.exc_type.__name__}: {u.exc_value}" for u in unraisable] == []


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


def _handshake(**changes) -> str:
    """The mock backend's handshake reply with `changes`; a field changed to
    None is left out."""
    info = {"name": "mock", "version": "1", "deterministic": True, "max_tokens": 512,
            "protocol": PROTOCOL, **changes}
    return json.dumps({"result": {k: v for k, v in info.items() if v is not None}})


# What a malformed handshake reply reads as: a missing or mistyped field, or a
# server of another protocol.
_MISTYPED = "reply to 'descriptor' has a missing or mistyped field: "
_NEEDS_PROTOCOL = f"descriptor reply needs 'protocol' {PROTOCOL}, got "

# The mock backend's handshake reply, which the stub server below sends
# without importing `factfilter` (`test_handshake_reply_is_the_mock_descriptor`).
_HANDSHAKE_REPLY = _handshake()

# Serves its first k requests, then answers the next with `reply` and serves
# on. `factfilter`, whose numpy import is most of a spawn, is imported only to
# serve a request beyond the handshake.
_FAULTY_SERVER = """
import itertools, json, sys
sys.path.insert(0, {src!r})


def serve(lines):
    from factfilter.backend import MockBackend
    from factfilter.remote import serve

    serve(MockBackend(), lines, sys.stdout)


k, reply = int(sys.argv[1]), sys.argv[2]
if k == 1:
    sys.stdin.readline()
    sys.stdout.write({handshake!r} + "\\n")
    sys.stdout.flush()
else:
    serve(itertools.islice(sys.stdin, k))
if reply != "exit":
    request = json.loads(sys.stdin.readline())
    if reply == "invalid-utf8":
        sys.stdout.buffer.write(b"\\xff\\xfe\\n")
    elif reply == "non-object-item":
        calls = len(request["args"]["calls"])
        sys.stdout.buffer.write(json.dumps({{"result": [1] * calls}}).encode() + b"\\n")
    elif reply.startswith("item:"):  # every item of the batch reply is this value
        calls = len(request["args"]["calls"])
        item = json.loads(reply[len("item:"):])
        sys.stdout.buffer.write(json.dumps({{"result": [item] * calls}}).encode() + b"\\n")
    else:
        sys.stdout.buffer.write(reply.encode() + b"\\n")
    sys.stdout.flush()
    line = sys.stdin.readline()
    if line:
        serve(itertools.chain([line], sys.stdin))
"""


def test_handshake_reply_is_the_mock_descriptor():
    from factfilter import MockBackend
    from factfilter.remote import _descriptor_result

    assert json.loads(_HANDSHAKE_REPLY) == {"result": _descriptor_result(MockBackend())}


_ARC = [DependencyArc("a", "b", "dep", 0, 1)]
_ARC_OBJECT = ('{"head_token": "a", "child_token": "b", "relation_label": "dep", '
               '"head_index": 0, "child_index": 1}')
_VECTORS = '{"tokens": ["a"], "dim": 2, "vectors": "%s"}'

# (op, argument tuple, result) of replies whose fields the client cannot read.
# A result is an op's bare value or an error object; a reply is `{"result":
# <value>}` or the error object, a batch item the result itself. They hold a
# missing key, a mistyped value (a string or an object where a list is due
# included), a number that does not parse, a value the client's own checks
# reject (NaN vectors, one token with two rows, a self-attached arc), or an
# error object with a field missing, mistyped or extra.
MALFORMED_FIELDS = [
    ("tokenize", ("a",), "null"),
    ("tokenize", ("a",), "5"),
    ("tokenize", ("a",), '"abc"'),
    ("conditional_token_logprobs", ("a", "a"), '"12"'),
    ("arc_entailment_probs", ("a b", _ARC), '{"0.5": 1}'),
    ("parse_dependencies", ("a b",), "{}"),
    ("conditional_token_logprobs", ("a", "a"), '["x"]'),
    ("embed_tokens", ("a",), '{"tokens": ["a"], "dim": 2}'),
    ("parse_dependencies", ("a b",), '[["a", "b", "dep", 1]]'),
    ("tokenize", ("a",), '{"error": {"type": "SequenceLengthError", "limit": 512}}'),
    ("tokenize", ("a",), "[1, null]"),
    ("embed_tokens", ("a",), '{"tokens": [1], "dim": 2, "vectors": "AAAAAAAA8D8AAAAAAAAAAA=="}'),
    ("conditional_token_logprobs", ("a", "a"), '["-0.5"]'),
    ("conditional_token_logprobs", ("a", "a"), "[-0.5, true]"),
    ("arc_entailment_probs", ("a b", _ARC), '["0.5"]'),
    ("masked_fill_accuracy", ("a", "b c", [0]), '"0.5"'),
    ("masked_fill_accuracy", ("a", "b c", [0]), "true"),
    ("parse_dependencies", ("a b",), '[["a", "b", "dep", "0", 1]]'),
    ("parse_dependencies", ("a b",), '[["a", "b", "dep", false, 1]]'),
    ("parse_dependencies", ("a b",), "[5]"),
    ("embed_tokens", ("a",), _VECTORS
     % base64.b64encode(np.array([np.nan, 1.0], dtype="<f8").tobytes()).decode()),
    ("embed_tokens", ("a",),
     _VECTORS % base64.b64encode(np.eye(2, dtype="<f8").tobytes()).decode()),
    ("parse_dependencies", ("a b",), '[["a", "a", "dep", 0, 0]]'),
    ("parse_dependencies", ("a b",), f"[{_ARC_OBJECT}]"),
    ("parse_dependencies", ("a b",), '[["a", "b", "dep", 0], [1, "c", "d", "dep", 2, 3]]'),
    ("parse_dependencies", ("a b",), '[["a", "b", "dep", 0, 1, 2]]'),
    ("tokenize", ("a",),
     '{"error": {"type": "SequenceLengthError", "message": "m (limit: 5 tokens)", "limit": 5.9}}'),
    ("tokenize", ("a",),
     '{"error": {"type": "SequenceLengthError", "message": "m (limit: 1 tokens)", '
     '"limit": true}}'),
    ("tokenize", ("a",), '{"error": {"type": "SequenceLengthError", "message": "m"}}'),
    ("tokenize", ("a",), '{"error": {"type": "BackendError", "message": 123}}'),
    ("tokenize", ("a",), '{"error": {"type": 7, "message": "m"}}'),
    ("tokenize", ("a",), '{"error": {"type": "BackendError"}}'),
    ("tokenize", ("a",), '{"error": {"message": "m"}}'),
    ("tokenize", ("a",), '{"error": "boom"}'),
    ("tokenize", ("a",), '{"error": {"type": "BackendError", "message": "m"}, "result": ["a"]}'),
]
MALFORMED_IDS = [
    "tokenize-no-tokens", "tokenize-int-tokens", "tokenize-string-tokens", "logprobs-string",
    "probs-object", "arcs-object", "logprobs-not-numbers", "embed-no-vectors",
    "arc-no-head-index", "length-error-no-message", "tokenize-non-string-items",
    "embed-int-tokens", "logprobs-quoted", "logprobs-bool", "probs-quoted", "accuracy-quoted",
    "accuracy-bool", "arc-string-index", "arc-bool-index", "arcs-non-object-item",
    "embed-nan-vectors", "embed-one-token-two-rows", "arc-self-attached", "arc-as-object",
    "arcs-misaligned", "arc-six-items", "length-error-float-limit",
    "length-error-bool-limit", "length-error-no-limit", "error-int-message",
    "error-int-type", "error-no-message", "error-no-type", "error-not-an-object",
    "error-with-result"]

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
        path.write_text(_FAULTY_SERVER.format(src=str(toy_corpus_path().parents[2]),
                                              handshake=_HANDSHAKE_REPLY), encoding="utf-8")
        return path

    @pytest.fixture()
    def partial(self, tmp_path, toy):
        full = _score(tmp_path, toy)
        partial = tmp_path / "partial.jsonl"
        partial.write_bytes(b"".join(full.read_bytes().splitlines(keepends=True)[:25]))
        return full, partial

    @pytest.mark.parametrize("reply, message", [
        ('{"result": {}}', f"{_MISTYPED}KeyError: 'name'"),
        ('{"result": [1]}', f"{_MISTYPED}TypeError: 'result' must be an object, got [1]"),
        (_handshake(name=None), f"{_MISTYPED}KeyError: 'name'"),
        (_handshake(version=1), f"{_MISTYPED}TypeError: 'version' must be a string, got 1"),
        (_handshake(deterministic=1),
         f"{_MISTYPED}TypeError: 'deterministic' must be true or false, got 1"),
        (_handshake(max_tokens="512"),
         f"{_MISTYPED}TypeError: 'max_tokens' must be an integer, got '512'"),
        (_handshake(max_tokens=True),
         f"{_MISTYPED}TypeError: 'max_tokens' must be an integer, got True"),
        (_handshake(protocol=None), f"{_NEEDS_PROTOCOL}None"),
        (_handshake(protocol=1), f"{_NEEDS_PROTOCOL}1"),
        (_handshake(protocol=PROTOCOL - 1), f"{_NEEDS_PROTOCOL}{PROTOCOL - 1}"),
        (_handshake(protocol=PROTOCOL + 1), f"{_NEEDS_PROTOCOL}{PROTOCOL + 1}"),
        (_handshake(protocol=float(PROTOCOL)), f"{_NEEDS_PROTOCOL}{float(PROTOCOL)}"),
    ], ids=["empty", "non-object", "no-name", "int-version", "int-deterministic",
            "string-max-tokens", "bool-max-tokens", "no-protocol", "protocol-1",
            "older-protocol", "newer-protocol", "float-protocol"])
    def test_malformed_handshake_exits_three(self, toy, tmp_path, capsys, monkeypatch,
                                             server, reply, message):
        from factfilter import remote
        from factfilter.errors import TransportError

        spawned = []
        popen = subprocess.Popen
        monkeypatch.setattr(remote.subprocess, "Popen",
                            lambda *args, **kwargs: spawned.append(popen(*args, **kwargs))
                            or spawned[-1])
        with pytest.raises(TransportError) as excinfo:
            remote.RemoteBackend([sys.executable, str(server), "0", reply])
        assert str(excinfo.value) == message
        assert spawned[0].poll() is not None  # the server was stopped
        monkeypatch.undo()
        out = tmp_path / "scores.jsonl"
        code = main(["score", "--in", str(toy), "--out", str(out), "--scorers", "greedy",
                     "--backend", "remote", "--remote-command",
                     f"{sys.executable} {server} 0 '{reply}'"])
        assert code == 3
        assert f"backend error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_request_to_an_exited_server_is_a_transport_error(self, server):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        backend = RemoteBackend([sys.executable, str(server), "1", "exit"])
        assert backend._proc.wait(timeout=30) == 0
        with pytest.raises(TransportError, match="exited with 0"):
            backend.tokenize("a b")
        backend.close()

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

    @pytest.mark.parametrize("reply, message", [
        ('{"result": {"a": ["a"], "b": ["b"]}}', "is not a list of 2 items"),
        ('{"result": [["a"]]}', "is not a list of 2 items"),
        ("non-object-item", "reply to 'tokenize' has a missing or mistyped field"),
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
    @pytest.mark.parametrize("reply", ["{}", "[1]", '{"results": ["a"]}'],
                             ids=["empty", "non-object", "misspelt-result"])
    def test_reply_without_result_or_error_is_a_transport_error(self, server, path, reply):
        """Not read as an error the server sent, which would be per pair."""
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        backend = RemoteBackend([sys.executable, str(server), "1", reply])
        try:
            with pytest.raises(TransportError, match="has neither a result nor an error"):
                backend.map("tokenize", [("a",)]) if path == "map" else backend.tokenize("a")
        finally:
            backend.close()

    @pytest.mark.parametrize("k, reply", [
        (1, "exit"), (_FAULT_AFTER, "exit"), (_FAULT_AFTER, "not json"),
        (_FAULT_AFTER, "{}"), (_FAULT_AFTER, '{"error": "boom"}'), (_FAULT_AFTER, "[1]"),
        (_FAULT_AFTER, "invalid-utf8"), (_FAULT_AFTER, '{"result": {}}'),
        (_FAULT_AFTER, '{"result": []}'), (_FAULT_AFTER, "non-object-item"),
        (_FAULT_AFTER, "item:{}"),
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
                     f"{sys.executable} {server} 1 'item:5'"])
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
                     f"{sys.executable} {server} 1 'item:[1]'"])
        assert code == 3
        assert "backend error: reply to 'tokenize' has a missing or mistyped field: " \
            "TypeError" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", ["single", "map"])
    @pytest.mark.parametrize("op, args, result", MALFORMED_FIELDS, ids=MALFORMED_IDS)
    def test_malformed_reply_field_is_a_transport_error(self, server, path, op, args, result):
        from factfilter.errors import TransportError
        from factfilter.remote import RemoteBackend

        if path == "map":
            reply = f'{{"result": [{result}]}}'
        else:
            reply = result if result.startswith('{"error"') else f'{{"result": {result}}}'
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


class _ServedPipe:
    """Both pipes of an in-process server: a request line written to it is
    answered at once by `serve`, and `readline` returns the reply line."""

    def __init__(self, backend):
        self._backend = backend
        self._replies: list[str] = []

    def write(self, line: str) -> None:
        from factfilter.remote import serve

        out = io.StringIO()
        serve(self._backend, io.StringIO(line), out)
        self._replies.append(out.getvalue())

    def readline(self) -> str:
        return self._replies.pop(0)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ServedProcess:
    """Stands in for the server process of a `RemoteBackend`."""

    returncode = None

    def __init__(self, backend):
        self.stdin = self.stdout = _ServedPipe(backend)

    def poll(self):
        return None

    def wait(self, timeout=None):
        return 0


def _plain(outcome):
    """An op's value or per-pair error in a form that compares floats by their bits."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome), getattr(outcome, "limit", None)
    if isinstance(outcome, TokenEmbeddings):
        return outcome.tokens, outcome.vectors.shape, list(map(float.hex, outcome.vectors.flat))
    if isinstance(outcome, float):
        return outcome.hex()
    if isinstance(outcome, list) and any(isinstance(x, float) for x in outcome):
        return list(map(float.hex, outcome))
    return outcome


def _single(backend, op, args):
    from factfilter.errors import PER_PAIR_ERRORS

    try:
        return getattr(backend, op)(*args)
    except PER_PAIR_ERRORS as exc:
        return exc


# Words of non-ASCII text, whitespace included; joined, texts from empty to
# past the served backend's four-token limit.
_WORDS = st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)
_TEXTS = st.lists(st.lists(_WORDS, max_size=6).map(" ".join), min_size=1, max_size=4)
_ARCS = st.lists(st.builds(DependencyArc, _WORDS, _WORDS, _WORDS, st.integers(0, 4),
                           st.integers(5, 9)), max_size=3)


@given(texts=_TEXTS, arcs=_ARCS, positions=st.lists(st.integers(-1, 4), max_size=3))
@settings(max_examples=60)
def test_every_op_round_trips_through_both_codecs(texts, arcs, positions):
    """Over an in-process server, with no subprocess: the client's encoder,
    JSON, the server's decoder, the served backend, the server's encoder, JSON
    and the client's decoder give each op what the backend gives in process,
    single and batched, floats to the bit and per-pair errors in place."""
    from unittest import mock

    from factfilter import remote

    with mock.patch.object(remote.subprocess, "Popen",
                           lambda *args, **kwargs: _ServedProcess(MockBackend(max_tokens=4))):
        client = remote.RemoteBackend(["served in process"])
    direct = MockBackend(max_tokens=4)
    assert client.descriptor == direct.descriptor
    calls = {
        "tokenize": [(text,) for text in texts],
        "embed_tokens": [(text,) for text in texts],
        "conditional_token_logprobs": [(a, b) for a in texts for b in texts],
        "arc_entailment_probs": [(text, arcs) for text in texts],
        "masked_fill_accuracy": [(a, b, positions) for a in texts for b in texts],
        "parse_dependencies": [(text,) for text in texts],
    }
    for op, op_calls in calls.items():
        expected = [_plain(_single(direct, op, args)) for args in op_calls]
        assert [_plain(_single(client, op, args)) for args in op_calls] == expected, op
        assert list(map(_plain, client.map(op, op_calls))) == expected, op
        assert list(map(_plain, direct.map(op, op_calls))) == expected, op
