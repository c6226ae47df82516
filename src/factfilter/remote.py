"""Out-of-process backend adapter speaking line-delimited JSON.

Protocol 3: one compact JSON object per line, a request on the server's stdin
and its reply on stdout. A reply's `result` is the op's bare value:

    {"op":"parse_dependencies","args":{"summary":"a b"}} -> {"result":[["a","b","dep",0,1]]}
    -> {"error":{"type":"SequenceLengthError","message":"...","limit":512}}

An arc is `[head_token, child_token, relation_label, head_index, child_index]`
both ways: three strings, then two integers (a bool is none). Embeddings travel
as `{"tokens":[...],"dim":16,"vectors":"<base64>"}`, the base64 of their
little-endian float64 bytes row after row, so they decode to the same bits. A
`batch` runs one op over many argument objects through one `map` of the
served backend. Its result is a flat list of the calls' bare values, in order,
with a failed call's error object in its place; no op's value is an object
whose only key is "error":

    {"op":"batch","args":{"op":"tokenize","calls":[{"text":"a"},{"text":"b"}]}}
    -> {"result":[["a"],{"error":{"type":"BackendError","message":"..."}}]}

The `descriptor` handshake reply carries `"protocol": 3`; the client refuses a
server that does not. `python -m factfilter.remote --backend mock` serves any
registered backend, those the file named by `FACTFILTER_BACKENDS` adds too.
"""

from __future__ import annotations

import argparse
import base64
import contextlib
import json
import os
import subprocess
import sys
from itertools import chain, starmap
from operator import attrgetter
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from . import errors
from .backend import (
    Backend,
    BackendDescriptor,
    DependencyArc,
    TokenEmbeddings,
    create_backend,
    load_extra_backends,
    register_backend,
)
from .records import (JSON_BOOLS, JSON_INTEGERS, JSON_NUMBERS, JSON_OBJECTS, JSON_STRINGS,
                      JSON_WHITESPACE, json_field, json_fields, json_items, json_value)

PROTOCOL = 3
# Seconds `RemoteBackend.close` waits for the server to exit once its input closes.
_CLOSE_TIMEOUT_S = 10

# Error replies by type: every toolkit error class, so an error crosses the
# link as it was raised; any other type reads as a BackendError.
_ERROR_TYPES = {cls.__name__: cls for cls in vars(errors).values()
                if isinstance(cls, type) and issubclass(cls, errors.FactFilterError)}

# Both sides write compact JSON.
_dumps = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode

# An arc on the wire: a tuple of its fields in this order, which JSON writes as an array.
_arc_to_wire = attrgetter("head_token", "child_token", "relation_label", "head_index",
                          "child_index")
_ARC_TYPES = [str, str, str, int, int]


def _arcs_from_wire(arcs: Any) -> list[DependencyArc]:
    """The arcs of a list of arc arrays, else a `TypeError`: each array holds
    five items, three strings then two integers (no string or object yields
    integers). One pass checks all types; the lengths align it with the arcs."""
    if (type(arcs) is not list or not {5}.issuperset(map(len, arcs))
            or list(map(type, chain.from_iterable(arcs))) != _ARC_TYPES * len(arcs)):
        raise TypeError(f"arcs must be [head_token, child_token, relation_label, "
                        f"head_index, child_index] arrays, got {arcs!r}")
    return list(starmap(DependencyArc, arcs))


def _descriptor_result(backend: Backend) -> dict[str, Any]:
    d = backend.descriptor
    return {"name": d.name, "version": d.version, "deterministic": d.deterministic,
            "max_tokens": d.max_tokens, "protocol": PROTOCOL}


def _embeddings_result(emb: TokenEmbeddings) -> dict[str, Any]:
    vectors = np.ascontiguousarray(emb.vectors, dtype="<f8")
    return {"tokens": list(emb.tokens), "dim": vectors.shape[1],
            "vectors": base64.b64encode(vectors.tobytes()).decode("ascii")}


def _bare(value: Any) -> Any:
    return value


# Each op's positional arguments from its argument object, and its result
# from its value: the server's mirror of the client's `_CODECS`.
_SERVER_CODECS: dict[str, tuple[Callable[[Any], tuple], Callable[[Any], Any]]] = {
    "tokenize": (lambda a: (a["text"],), _bare),
    "embed_tokens": (lambda a: (a["text"],), _embeddings_result),
    "conditional_token_logprobs": (lambda a: (a["source"], a["target"]), _bare),
    "arc_entailment_probs": (lambda a: (a["document"], _arcs_from_wire(a["arcs"])), _bare),
    "masked_fill_accuracy": (lambda a: (a["prefix"], a["sentence"], a["mask_positions"]), _bare),
    "parse_dependencies": (lambda a: (a["summary"],), lambda arcs: list(map(_arc_to_wire, arcs))),
}


def _parse_request(op: Any, args: Any) -> Callable[[Backend], Any]:
    """The request as a function that runs its op on a backend and encodes the
    result. Every field of the request is read here, before any op runs. A
    `batch` runs as one `backend.map`; a per-pair error it returns is that
    call's error object, and any other error aborts the request."""
    if op == "descriptor":
        return _descriptor_result
    batch = op == "batch"
    if batch:
        op, args = args["op"], args["calls"]
    if not isinstance(op, str) or op not in _SERVER_CODECS:
        raise errors.BackendError(f"unknown op {op!r}")
    read, encode = _SERVER_CODECS[op]
    if not batch:
        call = read(args)
        return lambda backend: encode(getattr(backend, op)(*call))
    calls = [read(call) for call in args]
    return lambda backend: [
        _error(value) if isinstance(value, errors.PER_PAIR_ERRORS) else encode(value)
        for value in backend.map(op, calls)]


def _error(exc: errors.FactFilterError) -> dict[str, Any]:
    payload: dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, errors.SequenceLengthError):
        payload["limit"] = exc.limit
    return {"error": payload}


def serve(backend: Backend, in_stream: TextIO, out_stream: TextIO) -> None:
    """Answer protocol requests until the input stream closes. A request that
    fails with an exception that is no toolkit error gets a `BackendError`
    reply, `bad request: <message>` if it does not parse (`_parse_request`; only
    JSON whitespace may surround it), else `<Type>: <message>`; serving goes on."""
    for line in in_stream:
        line = line.strip(JSON_WHITESPACE)
        if not line:
            continue
        call = None
        try:
            request = json.loads(line)
            call = _parse_request(request.get("op"), request.get("args", {}))
            response = _dumps({"result": call(backend)})
        except errors.FactFilterError as exc:  # an unknown op, a rejected arc, an op's error
            response = _dumps(_error(exc))
        except Exception as exc:
            fault = "bad request" if call is None else type(exc).__name__
            response = _dumps({"error": {"type": "BackendError", "message": f"{fault}: {exc}"}})
        out_stream.write(response + "\n")
        out_stream.flush()


def _descriptor_from_reply(info: Any) -> BackendDescriptor:
    """The handshake reply as a descriptor. A missing or mistyped field raises
    the `KeyError` or `TypeError` that `_decode` reports; a server of another
    protocol, or of protocol 1, which sends none, is a `TransportError`."""
    json_value(info, "result", JSON_OBJECTS)
    name, version = json_fields(info, ("name", "version"), JSON_STRINGS)
    deterministic = json_field(info, "deterministic", JSON_BOOLS)
    max_tokens = json_field(info, "max_tokens", JSON_INTEGERS)
    protocol = info.get("protocol")
    if type(protocol) is not int or protocol != PROTOCOL:
        raise errors.TransportError(f"descriptor reply needs 'protocol' {PROTOCOL}, "
                                    f"got {protocol!r}")
    return BackendDescriptor(name, version, deterministic, max_tokens)


def _failure(reply: dict[str, Any]) -> errors.FactFilterError:
    """The toolkit error an error object names. Its only key is "error", which
    holds a string "type" and "message", and an integer "limit" for a
    SequenceLengthError; else a `TypeError` or `KeyError`."""
    if len(reply) != 1:
        raise TypeError(f"an error object has keys besides 'error': {sorted(reply)}")
    err = reply["error"]
    exc_type = _ERROR_TYPES.get(json_field(err, "type", JSON_STRINGS), errors.BackendError)
    message = json_field(err, "message", JSON_STRINGS)
    if exc_type is not errors.SequenceLengthError:
        return exc_type(message)
    # The message is the server's str(exc), which already ends in the limit
    # suffix that SequenceLengthError appends.
    limit = json_field(err, "limit", JSON_INTEGERS)
    return errors.SequenceLengthError(message.removesuffix(f" (limit: {limit} tokens)"), limit)


def _embeddings_from_reply(result: dict[str, Any]) -> TokenEmbeddings:
    try:
        vectors = np.frombuffer(base64.b64decode(result["vectors"], validate=True),
                                dtype="<f8").reshape(-1, result["dim"])
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise errors.TransportError(f"undecodable embedding vectors: {exc}") from exc
    return TokenEmbeddings(tokens=tuple(json_items(result["tokens"], "tokens", JSON_STRINGS)),
                           vectors=vectors)


# Each op's argument object from its positional arguments, and its value from
# its result. A `batch` result is the list of its calls' results.
_CODECS: dict[str, tuple[Callable[..., dict[str, Any]], Callable[[Any], Any]]] = {
    "descriptor": (lambda: {}, _descriptor_from_reply),
    "batch": (lambda op, calls: {"op": op, "calls": calls}, _bare),
    "tokenize": (lambda text: {"text": text}, lambda r: json_items(r, "tokens", JSON_STRINGS)),
    "embed_tokens": (lambda text: {"text": text}, _embeddings_from_reply),
    "conditional_token_logprobs": (
        lambda source, target: {"source": source, "target": target},
        lambda r: list(map(float, json_items(r, "logprobs", JSON_NUMBERS)))),
    "arc_entailment_probs": (
        lambda document, arcs: {"document": document, "arcs": list(map(_arc_to_wire, arcs))},
        lambda r: list(map(float, json_items(r, "probs", JSON_NUMBERS)))),
    "masked_fill_accuracy": (
        lambda prefix, sentence, mask_positions: {
            "prefix": prefix, "sentence": sentence,
            "mask_positions": sorted(set(mask_positions))},
        lambda r: float(json_value(r, "accuracy", JSON_NUMBERS))),
    "parse_dependencies": (lambda summary: {"summary": summary}, _arcs_from_wire),
}


def _decode(op: str, reply: Any, batched: bool = False) -> Any:
    """The op's value from a reply, `{"result": value}`, or from a batch item,
    the bare value, if `batched`. An error object in their place raises as the
    toolkit error it names (`_failure`), which is per pair. A reply that is
    neither, a field it lacks or mistypes, or a value the client's own checks
    reject (a `DomainError` from building `TokenEmbeddings` or a
    `DependencyArc`) is a `TransportError` naming `op`: the server broke the
    protocol, so no pair is to blame."""
    try:
        if type(reply) is dict and "error" in reply:
            failure = _failure(reply)
        elif batched or type(reply) is dict and "result" in reply:
            return _CODECS[op][1](reply if batched else reply["result"])
        else:
            raise errors.TransportError(f"reply to {op!r} has neither a result nor an error")
    except (KeyError, TypeError, ValueError, errors.DomainError) as exc:
        raise errors.TransportError(f"reply to {op!r} has a missing or mistyped field: "
                                    f"{type(exc).__name__}: {exc}") from exc
    raise failure


class RemoteBackend(Backend):
    """Client half of the protocol; runs the server as a subprocess."""

    def __init__(self, command: Sequence[str]):
        self._command = list(command)
        self._proc = subprocess.Popen(self._command, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True, encoding="utf-8")
        try:
            self._descriptor = self._call("descriptor")
        except errors.FactFilterError:  # a failed handshake leaves no server behind
            self._proc.kill()
            self.close()
            raise

    @property
    def descriptor(self) -> BackendDescriptor:
        return self._descriptor

    def _request(self, op: str, args: dict[str, Any]) -> Any:
        if self._proc.poll() is not None:
            raise errors.TransportError(f"backend process exited with {self._proc.returncode}")
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(_dumps({"op": op, "args": args}) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
        except (OSError, ValueError) as exc:  # broken pipe, undecodable bytes
            raise errors.TransportError(f"backend stream failed during {op!r}: {exc}") from exc
        if not line:
            raise errors.TransportError("backend process closed its output stream")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise errors.TransportError(f"unparseable reply to {op!r}: {exc}") from exc

    def _call(self, op: str, *args: Any) -> Any:
        return _decode(op, self._request(op, _CODECS[op][0](*args)))

    def map(self, op: str, calls: Sequence[tuple]) -> list:
        """One `batch` request for all of `calls`; see `Backend.map`."""
        if not calls:
            return []
        encode = _CODECS[op][0]
        items = self._call("batch", op, [encode(*args) for args in calls])
        if not isinstance(items, list) or len(items) != len(calls):
            raise errors.TransportError(
                f"batch reply to {op!r} is not a list of {len(calls)} items")
        out: list = []
        for item in items:
            try:
                out.append(_decode(op, item, batched=True))
            except errors.PER_PAIR_ERRORS as exc:
                out.append(exc)
        return out

    def close(self) -> None:
        """Close the server's input, wait for it to exit and close its output.
        A server still running `_CLOSE_TIMEOUT_S` seconds later is killed: a
        `TransportError`. Both pipes are closed on every path."""
        proc = self._proc
        assert proc.stdin is not None and proc.stdout is not None
        try:
            # A request still buffered for a server that has exited is dropped.
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.wait(timeout=_CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise errors.TransportError(
                f"backend process still running {_CLOSE_TIMEOUT_S} s after its "
                f"input closed; killed it") from None
        finally:
            proc.stdout.close()

    def tokenize(self, text: str) -> list[str]:
        return self._call("tokenize", text)

    def embed_tokens(self, text: str) -> TokenEmbeddings:
        return self._call("embed_tokens", text)

    def conditional_token_logprobs(self, source: str, target: str) -> list[float]:
        return self._call("conditional_token_logprobs", source, target)

    def arc_entailment_probs(self, document: str,
                             arcs: Sequence[DependencyArc]) -> list[float]:
        return self._call("arc_entailment_probs", document, arcs)

    def masked_fill_accuracy(self, prefix: str, sentence: str,
                             mask_positions: Iterable[int]) -> float:
        return self._call("masked_fill_accuracy", prefix, sentence, mask_positions)

    def parse_dependencies(self, summary: str) -> list[DependencyArc]:
        return self._call("parse_dependencies", summary)


register_backend("remote", lambda command: RemoteBackend(command))


def main(argv: Sequence[str] | None = None) -> int:
    """Serve until stdin closes, close the backend and end the process at once
    with `os._exit(0)`, so the client's wait for it is short; `atexit`
    handlers do not run. A configuration error is one stderr line and exit 1;
    an error while serving propagates."""
    parser = argparse.ArgumentParser(
        prog="factfilter.remote",
        description="Serve a registered backend over stdin/stdout (line-delimited JSON).",
    )
    parser.add_argument("--backend", default="mock", help="registered backend id to serve")
    args = parser.parse_args(argv)
    try:
        load_extra_backends()
        backend = create_backend(args.backend)
    except errors.ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    serve(backend, sys.stdin, sys.stdout)
    backend.close()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


if __name__ == "__main__":
    raise SystemExit(main())
