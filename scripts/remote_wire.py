#!/usr/bin/env python3
"""Wire accounting of one resumed remote `score`: bytes each way per op, and
the time the client and the server spend encoding and decoding.

    python3 scripts/remote_wire.py [--seed 3] [--runs 5]

Generates the `remote_resume` benchmark inputs for `--seed` with
`perfbench/inputs.py`, then resumes their part-written scores file with
`factfilter score --backend remote` `--runs` times, in this process. No
server process is spawned: `subprocess.Popen` in `factfilter.remote` is
replaced by a stand-in whose pipes hand each request line to `remote.serve`
over a `MockBackend` and return its reply line. So every byte and codec step
of the protocol runs, and none of the pipe or process switching does. Per
request it takes these times:

- client encode: from entering the client's op (`map` or a single op) to
  writing the request line; client decode: from reading the reply line to
  returning from the op;
- server decode: from `serve` receiving the line to the served backend's
  first op call; server encode: from its last op return to `serve` writing
  the reply (all of `serve` for the handshake, which calls no op);
- backend ops: time inside the served backend's ops.

It prints one JSON object: per op the requests and bytes each way (the
request and reply lines in UTF-8, newline included), and the median over the
runs of each time, per op and in total. Imports this checkout's `src/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from factfilter import remote  # noqa: E402
from factfilter.backend import MockBackend  # noqa: E402
from factfilter.cli import main as cli_main  # noqa: E402

_OPS = ("tokenize", "embed_tokens", "conditional_token_logprobs", "arc_entailment_probs",
        "masked_fill_accuracy", "parse_dependencies")
_TIMES = ("client_encode_s", "client_decode_s", "server_decode_s", "server_encode_s",
          "backend_ops_s")


class Ledger:
    """The bytes and times of one run, by op, and the time marks of the request
    in flight."""

    def __init__(self):
        self.requests: dict[str, int] = defaultdict(int)
        self.bytes_to: dict[str, int] = defaultdict(int)
        self.bytes_from: dict[str, int] = defaultdict(int)
        self.times: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(_TIMES, 0.0))
        self.depth = 0  # client ops in progress (`map` calls `_call`)
        self.entered = self.written = self.read = 0.0
        self.op_start: float | None = None
        self.op_end = 0.0
        self.op_depth = 0  # served backend ops in progress (`map` calls single ops)
        self.current = "descriptor"


class ServedPipes:
    """Both pipes of an in-process server, timed by `ledger`."""

    def __init__(self, ledger: Ledger, backend: MockBackend):
        self._ledger = ledger
        self._backend = backend
        self._reply = ""

    def write(self, line: str) -> None:
        ledger = self._ledger
        ledger.written = time.perf_counter()
        request = json.loads(line)  # outside every timed span
        op = request["args"]["op"] if request["op"] == "batch" else request["op"]
        ledger.current = op
        ledger.requests[op] += 1
        ledger.bytes_to[op] += len(line.encode("utf-8"))
        ledger.op_start = None
        out = io.StringIO()
        start = time.perf_counter()
        remote.serve(self._backend, io.StringIO(line), out)
        end = time.perf_counter()
        times = ledger.times[op]
        if ledger.op_start is None:  # the handshake
            times["server_decode_s"] += end - start
        else:
            times["server_decode_s"] += ledger.op_start - start
            times["server_encode_s"] += end - ledger.op_end
        self._reply = out.getvalue()
        ledger.bytes_from[op] += len(self._reply.encode("utf-8"))

    def readline(self) -> str:
        reply, self._reply = self._reply, ""
        self._ledger.read = time.perf_counter()
        return reply

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class ServedProcess:
    """Stands in for the server process a `RemoteBackend` spawns."""

    returncode = None

    def __init__(self, ledger: Ledger):
        self.stdin = self.stdout = ServedPipes(ledger, timed_backend(ledger))

    def poll(self):
        return None

    def wait(self, timeout=None):
        return 0

    def kill(self):
        pass


def timed_backend(ledger: Ledger) -> MockBackend:
    """A `MockBackend` whose outermost op calls mark `ledger`'s op span."""
    backend = MockBackend()
    for name in (*_OPS, "map"):
        method = getattr(backend, name)

        def timed(*args, _method=method):
            ledger.op_depth += 1
            start = time.perf_counter()
            try:
                return _method(*args)
            finally:
                ledger.op_depth -= 1
                if ledger.op_depth == 0:
                    end = time.perf_counter()
                    ledger.times[ledger.current]["backend_ops_s"] += end - start
                    if ledger.op_start is None:
                        ledger.op_start = start
                    ledger.op_end = end

        setattr(backend, name, timed)
    return backend


class Current:
    """The ledger of the run in progress, which the client's wrappers mark."""

    ledger = Ledger()


def time_client() -> None:
    """Wrap `RemoteBackend`'s `map`, single ops and handshake so that the
    outermost call marks the client's encode and decode spans."""
    for name in (*_OPS, "map", "_call"):
        method = getattr(remote.RemoteBackend, name)

        def timed(self, *args, _method=method):
            ledger = Current.ledger
            ledger.depth += 1
            if ledger.depth == 1:
                ledger.entered = time.perf_counter()
            try:
                return _method(self, *args)
            finally:
                ledger.depth -= 1
                if ledger.depth == 0:
                    end = time.perf_counter()
                    times = ledger.times[ledger.current]
                    times["client_encode_s"] += ledger.written - ledger.entered
                    times["client_decode_s"] += end - ledger.read

        setattr(remote.RemoteBackend, name, timed)


def run_once(inputs: Path, spec: dict, work: Path) -> Ledger:
    """Resume the scores file once over a fresh in-process server; its ledger."""
    ledger = Current.ledger = Ledger()
    scores = work / "scores.jsonl"
    shutil.copyfile(inputs / spec["partial_scores"], scores)
    with mock.patch.object(remote.subprocess, "Popen",
                           lambda *args, **kwargs: ServedProcess(ledger)):
        code = cli_main(["score", "--in", str(inputs / spec["corpus"]), "--out", str(scores),
                         "--scorers", "greedy,condll,dae", "--backend", "remote",
                         "--remote-command", "served-in-process"])
    if code != 0:
        raise SystemExit(f"score exited {code}")
    if scores.read_bytes() != (inputs / spec["inprocess_scores"]).read_bytes():
        raise SystemExit("the resumed scores differ from the in-process scores")
    return ledger


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    time_client()
    with tempfile.TemporaryDirectory(prefix="remote-wire-") as temp:
        inputs, work = Path(temp) / "inputs", Path(temp) / "work"
        work.mkdir()
        subprocess.run([sys.executable, str(ROOT / "perfbench" / "inputs.py"), "remote_resume",
                        str(args.seed), str(inputs)],
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       check=True, capture_output=True)
        spec = json.loads((inputs / "inputs.json").read_text(encoding="utf-8"))
        ledgers = [run_once(inputs, spec, work) for _ in range(args.runs)]
    first = ledgers[0]
    ops = {op: {"requests": first.requests[op], "bytes_to_server": first.bytes_to[op],
                "bytes_from_server": first.bytes_from[op],
                **{name: statistics.median(ledger.times[op][name] for ledger in ledgers)
                   for name in _TIMES}}
           for op in first.requests}
    total = {"requests": sum(first.requests.values()),
             "bytes_to_server": sum(first.bytes_to.values()),
             "bytes_from_server": sum(first.bytes_from.values()),
             **{name: statistics.median(sum(times[name] for times in ledger.times.values())
                                        for ledger in ledgers) for name in _TIMES}}
    print(json.dumps({"seed": args.seed, "runs": args.runs, "protocol": remote.PROTOCOL,
                      "total": total, "ops": ops}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
