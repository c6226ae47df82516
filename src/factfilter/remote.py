"""Out-of-process backend adapter speaking line-delimited JSON.

Protocol 2: one request object per line on the server's stdin,
one response per line on stdout.

    {"op": "embed_tokens", "args": {"text": "..."}}
    -> {"result": {"tokens": [...], "vectors": "<base64>", "dim": 16}}
    -> {"error": {"type": "SequenceLengthError", "message": "...", "limit": 512}}

Embedding vectors travel as the base64 of their little-endian float64 bytes,
row after row, so they decode to the same bits. A `batch` request runs one op
over many argument objects and answers with one reply object per call, in
order:

    {"op": "batch", "args": {"op": "tokenize", "calls": [{"text": "a"}, ...]}}
    -> {"result": [{"result": {"tokens": ["a"]}}, {"error": {...}}, ...]}

The `descriptor` handshake reply carries `"protocol": 2`; the client refuses a
server that does not. Heavyweight model servers implement the same contract
and can live in a different process (or container) from the pipeline.
`python -m factfilter.remote --backend mock` serves any registered backend.
"""

from __future__ import annotations

import argparse
import base64
import json
import subprocess
import sys
from typing import Any, Callable, Iterable, Sequence, TextIO

import numpy as np

from . import errors
from .backend import (
    Backend,
    BackendDescriptor,
    DependencyArc,
    TokenEmbeddings,
    create_backend,
    register_backend,
)
from .records import JSON_NUMBERS, JSON_OBJECTS, JSON_STRINGS, json_field, json_list

PROTOCOL = 2
# Seconds `RemoteBackend.close` waits for the server to exit once its input closes.
_CLOSE_TIMEOUT_S = 10

_ERROR_TYPES = {
    "DomainError": errors.DomainError,
    "DegenerateInputError": errors.DegenerateInputError,
    "BackendError": errors.BackendError,
    "SequenceLengthError": errors.SequenceLengthError,
    "ConfigurationError": errors.ConfigurationError,
}


_ARC_FIELDS = ("head_token", "child_token", "relation_label", "head_index", "child_index")
_ARC_TYPES = [str, str, str, int, int]


def _arc_to_dict(arc: DependencyArc) -> dict[str, Any]:
    return {name: getattr(arc, name) for name in _ARC_FIELDS}


def _arc_from_dict(obj: dict[str, Any]) -> DependencyArc:
    values = [obj[name] for name in _ARC_FIELDS]
    if list(map(type, values)) != _ARC_TYPES:  # a bool is no index
        raise TypeError(f"arc needs string tokens and label and integer indices: {obj!r}")
    return DependencyArc(*values)


def _result(backend: Backend, op: Any, args: dict[str, Any]) -> Any:
    if op == "descriptor":
        d = backend.descriptor
        return {"name": d.name, "version": d.version, "deterministic": d.deterministic,
                "max_tokens": d.max_tokens, "protocol": PROTOCOL}
    if op == "batch":
        return [_reply(backend, args["op"], call) for call in args["calls"]]
    if op == "tokenize":
        return {"tokens": backend.tokenize(args["text"])}
    if op == "embed_tokens":
        emb = backend.embed_tokens(args["text"])
        vectors = np.ascontiguousarray(emb.vectors, dtype="<f8")
        return {"tokens": list(emb.tokens), "dim": vectors.shape[1],
                "vectors": base64.b64encode(vectors.tobytes()).decode("ascii")}
    if op == "conditional_token_logprobs":
        return {"logprobs": backend.conditional_token_logprobs(args["source"], args["target"])}
    if op == "arc_entailment_probs":
        arcs = [_arc_from_dict(a) for a in args["arcs"]]
        return {"probs": backend.arc_entailment_probs(args["document"], arcs)}
    if op == "masked_fill_accuracy":
        return {"accuracy": backend.masked_fill_accuracy(
            args["prefix"], args["sentence"], args["mask_positions"])}
    if op == "parse_dependencies":
        arcs = backend.parse_dependencies(args["summary"])
        return {"arcs": [_arc_to_dict(a) for a in arcs]}
    raise errors.BackendError(f"unknown op {op!r}")


def _reply(backend: Backend, op: Any, args: dict[str, Any]) -> dict[str, Any]:
    """`{"result": ...}`, or `{"error": ...}` for a toolkit error."""
    try:
        return {"result": _result(backend, op, args)}
    except errors.FactFilterError as exc:
        payload: dict[str, Any] = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, errors.SequenceLengthError):
            payload["limit"] = exc.limit
        return {"error": payload}


def serve(backend: Backend, in_stream: TextIO, out_stream: TextIO) -> None:
    """Answer protocol requests until the input stream closes."""
    for line in in_stream:
        line = line.strip()
        if not line:
            continue
        try:
            request = json.loads(line)
            response = _reply(backend, request.get("op"), request.get("args", {}))
        except Exception as exc:  # malformed request; keep the server alive
            response = {"error": {"type": "BackendError", "message": f"bad request: {exc}"}}
        out_stream.write(json.dumps(response, ensure_ascii=False) + "\n")
        out_stream.flush()


_DESCRIPTOR_FIELDS = {"name": str, "version": str, "deterministic": bool, "max_tokens": int}


def _descriptor_from_reply(info: Any) -> BackendDescriptor:
    """The handshake reply as a descriptor; a malformed one is a `TransportError`."""
    if not isinstance(info, dict):
        raise errors.TransportError(f"descriptor reply is not an object: {info!r}")
    for name, kind in _DESCRIPTOR_FIELDS.items():
        if type(info.get(name)) is not kind:  # a bool is no max_tokens
            raise errors.TransportError(
                f"descriptor reply needs {name!r} of type {kind.__name__}, "
                f"got {info.get(name)!r}")
    if type(info.get("protocol")) is not int or info["protocol"] != PROTOCOL:
        raise errors.TransportError(f"descriptor reply needs 'protocol' {PROTOCOL}, "
                                    f"got {info.get('protocol')!r}")
    return BackendDescriptor(**{name: info[name] for name in _DESCRIPTOR_FIELDS})


def _unwrap(response: Any, op: str) -> Any:
    """The `result` of one reply object, or its `error` as the toolkit error,
    returned rather than raised so that `_decode` can tell it from its own."""
    err = response.get("error") if isinstance(response, dict) else None
    if isinstance(err, dict):
        exc_type = _ERROR_TYPES.get(err.get("type", ""), errors.BackendError)
        if exc_type is errors.SequenceLengthError:
            # The message is the server's str(exc), which already ends in the
            # limit suffix that SequenceLengthError appends.
            limit, message = int(err.get("limit", 0)), err["message"]
            if not isinstance(message, str):
                raise TypeError(f"error message {message!r} is not a string")
            return errors.SequenceLengthError(
                message.removesuffix(f" (limit: {limit} tokens)"), limit)
        return exc_type(err.get("message", "remote backend error"))
    if not isinstance(response, dict) or "result" not in response:
        raise errors.TransportError(f"reply to {op!r} has neither a result nor an error")
    return response["result"]


def _embeddings_from_reply(result: dict[str, Any]) -> TokenEmbeddings:
    try:
        vectors = np.frombuffer(base64.b64decode(result["vectors"], validate=True),
                                dtype="<f8").reshape(-1, result["dim"])
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise errors.TransportError(f"undecodable embedding vectors: {exc}") from exc
    return TokenEmbeddings(tokens=tuple(json_list(result, "tokens", JSON_STRINGS)),
                           vectors=vectors)


# Each op's argument object from its positional arguments, and its value from
# the reply's result. A `batch` result is the list of its calls' reply objects.
_CODECS: dict[str, tuple[Callable[..., dict[str, Any]], Callable[[Any], Any]]] = {
    "descriptor": (lambda: {}, _descriptor_from_reply),
    "batch": (lambda op, calls: {"op": op, "calls": calls}, lambda r: r),
    "tokenize": (lambda text: {"text": text}, lambda r: json_list(r, "tokens", JSON_STRINGS)),
    "embed_tokens": (lambda text: {"text": text}, _embeddings_from_reply),
    "conditional_token_logprobs": (
        lambda source, target: {"source": source, "target": target},
        lambda r: list(map(float, json_list(r, "logprobs", JSON_NUMBERS)))),
    "arc_entailment_probs": (
        lambda document, arcs: {"document": document,
                                "arcs": [_arc_to_dict(a) for a in arcs]},
        lambda r: list(map(float, json_list(r, "probs", JSON_NUMBERS)))),
    "masked_fill_accuracy": (
        lambda prefix, sentence, mask_positions: {
            "prefix": prefix, "sentence": sentence,
            "mask_positions": sorted(set(mask_positions))},
        lambda r: float(json_field(r, "accuracy", JSON_NUMBERS))),
    "parse_dependencies": (
        lambda summary: {"summary": summary},
        lambda r: list(map(_arc_from_dict, json_list(r, "arcs", JSON_OBJECTS)))),
}


def _decode(op: str, reply: Any) -> Any:
    """`_unwrap` then the op's `_CODECS` decoder. An error the server sent
    raises as that toolkit error, which is per pair. A field the reply lacks or
    mistypes, or a value the client's own checks reject (a `DomainError` from
    building `TokenEmbeddings` or a `DependencyArc`), is a `TransportError`
    naming `op`: the server broke the protocol, so no pair is to blame."""
    try:
        outcome = _unwrap(reply, op)
        if not isinstance(outcome, errors.FactFilterError):
            return _CODECS[op][1](outcome)
    except (KeyError, TypeError, ValueError, errors.DomainError) as exc:
        raise errors.TransportError(f"reply to {op!r} has a missing or mistyped field: "
                                    f"{type(exc).__name__}: {exc}") from exc
    raise outcome


class RemoteBackend(Backend):
    """Client half of the protocol; runs the server as a subprocess."""

    def __init__(self, command: Sequence[str]):
        self._command = list(command)
        self._proc = subprocess.Popen(
            self._command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
        )
        try:
            self._descriptor = self._call("descriptor")
        except errors.FactFilterError:  # a failed handshake leaves no server behind
            self._proc.kill()
            self._proc.wait()
            raise

    @property
    def descriptor(self) -> BackendDescriptor:
        return self._descriptor

    def _request(self, op: str, args: dict[str, Any]) -> Any:
        if self._proc.poll() is not None:
            raise errors.TransportError(f"backend process exited with {self._proc.returncode}")
        assert self._proc.stdin is not None and self._proc.stdout is not None
        try:
            self._proc.stdin.write(json.dumps({"op": op, "args": args},
                                              ensure_ascii=False) + "\n")
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
                out.append(_decode(op, item))
            except errors.PER_PAIR_ERRORS as exc:
                out.append(exc)
        return out

    def close(self) -> None:
        """Close the server's input and wait for it to exit. A server still
        running `_CLOSE_TIMEOUT_S` seconds later is killed: a `TransportError`."""
        if self._proc.poll() is None:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            try:
                self._proc.wait(timeout=_CLOSE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
                raise errors.TransportError(
                    f"backend process still running {_CLOSE_TIMEOUT_S} s after its "
                    f"input closed; killed it") from None

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
    parser = argparse.ArgumentParser(
        prog="factfilter.remote",
        description="Serve a registered backend over stdin/stdout (line-delimited JSON).",
    )
    parser.add_argument("--backend", default="mock", help="registered backend id to serve")
    args = parser.parse_args(argv)
    backend = create_backend(args.backend)
    serve(backend, sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
