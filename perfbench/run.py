#!/usr/bin/env python3
"""End-to-end benchmark of the factfilter pipeline, one workload per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The run generates the workload's
inputs from the seed in a separate process (see inputs.py), times the
set-up a user pays, then repeats the workload's CLI chain (see workloads.py)
for about `--seconds` seconds and reports medians over the passes.

With `--trace 0` the last line of standard output carries the end-to-end
metrics, whose times are normalised by the loop in reference.py; the lines
before it give every stage's median time, the per-pair operation counts, the
transport line of the remote workload and the run record. With `--trace 1`
passes alternate between untraced and traced (see tracing.py) and the last
line carries the per-layer metrics of the traced passes plus the tracing
overhead.

Every pass's data outputs are hashed. The first pass is checked against the
mock backend's rules (workloads.check_outputs) and, for pinned seeds, against
the digests in digests.json (`--record-digests` pins a new seed once those
checks pass); every later pass, traced or not, must reproduce the first pass
byte for byte. A run whose check fails reports `"correct": false`, records no
timing and exits with status 1.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from reference import NOMINAL_S, reference_loop
from tracing import Shim, layer_metric_units
from workloads import STAGES, WORKLOADS, CheckFailed, check_outputs, remote_command

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 7
CHILD_TIMEOUT = 150

# Set-up a user pays before the first stage runs: importing the CLI, building
# the backend and reading its descriptor (for remote: spawn plus handshake).
# The probe then times the reference loop, which normalises the set-up time.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
import factfilter.cli
kind = sys.argv[1]
if kind == "mock":
    from factfilter.backend import create_backend
    create_backend("mock").descriptor
elif kind == "remote":
    from factfilter.remote import RemoteBackend
    backend = RemoteBackend([sys.executable, "-m", "factfilter.remote", "--backend", "mock"])
    backend.descriptor
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from reference import reference_time
print(elapsed, reference_time())
if kind == "remote":
    backend.close()
"""


class RunFailed(Exception):
    pass


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def data_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every data output; config echoes record argv, not data."""
    return {path.relative_to(out).as_posix(): sha256(path)
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith(".config.json")}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(kind: str | None) -> list[tuple[float, float]]:
    """(set-up seconds, reference loop seconds) from fresh interpreters."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, kind or "none",
                               str(BENCH)],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=False)
        if done.returncode != 0:
            raise RunFailed(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        setup, reference = (float(v) for v in done.stdout.split()[:2])
        samples.append((setup, reference))
    return samples


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "factfilter").rglob("*.py"))),
    }


def count_ops(out: Path, spec: dict) -> dict[str, int]:
    """Per-pair operations of one pass: score cells, evaluation values and
    sweep cells; the failed ones are sentinels, failure rows and failed sweep
    rows."""
    attempted = failed = cells = 0
    scores = out / "scores.jsonl"
    if scores.exists():
        rows = scores.read_text(encoding="utf-8").splitlines()[spec.get("cells_done", 0):]
        cells = len(rows)
        attempted += cells
        failed += sum(json.loads(row)["value"] is None for row in rows)
    for path in sorted(out.glob("report*.csv")):
        with path.open(encoding="utf-8", newline="") as handle:
            for row in csv.reader(handle):
                attempted += row[0] in ("pair", "failure")
                failed += row[0] == "failure"
    if (out / "sweep.csv").exists():
        with (out / "sweep.csv").open(encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
        attempted += len(rows)
        failed += sum(row["status"] != "ok" for row in rows)
    return {"attempted": attempted, "failed": failed, "score_cells": cells}


class Runner:
    def __init__(self, workload: str, seed: int, work: Path, spec: dict,
                 record: bool = False):
        from factfilter import cli

        self.name = workload
        self.seed = seed
        self.workload = WORKLOADS[workload]
        self.stages = STAGES
        self.main = cli.main
        self.inp = work / "inputs"
        self.work = work
        self.spec = spec
        self.first_digests: dict[str, str] | None = None
        self.record = record
        self.commands = 0
        self.shim = None

    def _run(self, argv: list[str], call) -> float:
        self.commands += 1
        start = time.perf_counter()
        code = call(argv)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RunFailed(f"`factfilter {argv[0]}` exited with {code}")
        return elapsed

    def one_pass(self, index: int, traced: bool) -> dict:
        out = self.work / f"pass{index}"
        out.mkdir()
        if self.workload.prepare is not None:
            self.workload.prepare(self.inp, out, self.spec)
        call = self.main
        if traced:
            self.shim.install()
            call = lambda argv: self.shim.call(self.main, argv)  # noqa: E731
        stages: dict[str, float] = {}
        cpu = 0.0
        norms: list[float] = []
        references = [reference_loop()]
        try:
            for argv in self.workload.chain(self.inp, out, self.spec,
                                            self.workload.backend_args(traced)):
                stage = self.stages[argv[0]]
                start = time.process_time()
                elapsed = self._run(argv, call)
                cpu += time.process_time() - start
                references.append(reference_loop())
                stages[stage] = stages.get(stage, 0.0) + elapsed
                norms.append(elapsed / ((references[-2] + references[-1]) / 2))
        finally:
            if traced:
                self.shim.uninstall()
        result = {"wall_s": sum(stages.values()), "stages": stages, "cpu_s": cpu,
                  "norms": norms, "reference_s": statistics.median(references)}
        if traced:
            result["layers"] = self.shim.tracer.layer_metrics()
        if self.workload.backend == "remote" and not traced:
            # The same resume with the in-process backend: the transport baseline.
            result["score_inproc_s"] = self.score_against_inprocess(
                f"pass{index}-inprocess", ["--backend", "mock"], resume=True)
        self._check(index, out)
        if index == 0:
            result["ops"] = count_ops(out, self.spec)
        shutil.rmtree(out)
        return result

    def score_against_inprocess(self, name: str, backend: list[str], resume: bool) -> float:
        """Score the remote_resume corpus apart from the passes; the result must
        equal the in-process scores byte for byte. Returns the command's time."""
        out = self.work / name
        out.mkdir()
        if resume:
            self.workload.prepare(self.inp, out, self.spec)
        (argv,) = self.workload.chain(self.inp, out, self.spec, backend)
        elapsed = self._run(argv, self.main)
        if (out / "scores.jsonl").read_bytes() != \
                (self.inp / self.spec["inprocess_scores"]).read_bytes():
            raise RunFailed(f"{name} scores differ from the in-process scores")
        shutil.rmtree(out)
        return elapsed

    def _check(self, index: int, out: Path) -> None:
        digests = data_digests(out)
        if self.first_digests is not None:
            if digests != self.first_digests:
                changed = sorted(k for k in digests.keys() | self.first_digests.keys()
                                 if digests.get(k) != self.first_digests.get(k))
                raise RunFailed(f"pass {index} outputs differ from pass 0: {changed}")
            return
        try:
            check_outputs(self.name, self.inp, out, self.spec)
        except CheckFailed as exc:
            raise RunFailed(str(exc)) from exc
        table = pinned_digests()
        pinned = table.get(self.name, {}).get(str(self.seed))
        if pinned is None and self.record:
            table.setdefault(self.name, {})[str(self.seed)] = digests
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                               encoding="utf-8")
        elif pinned is not None and pinned != digests:
            changed = sorted(k for k in digests.keys() | pinned.keys()
                             if digests.get(k) != pinned.get(k))
            raise RunFailed(f"outputs differ from the digests pinned for seed "
                            f"{self.seed}: {changed}")
        self.first_digests = digests

    def passes(self, seconds: float, trace: bool) -> list[dict]:
        if trace:
            self.shim = Shim(shlex.split(remote_command()))
        results: list[dict] = []
        measured = 0.0
        while True:
            traced = trace and len(results) % 2 == 1
            start = time.perf_counter()
            results.append(self.one_pass(len(results), traced))
            last = time.perf_counter() - start
            measured += last
            if len(results) >= (4 if trace else 2) and measured + last > seconds:
                return results


def pinned_digests() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text(encoding="utf-8"))
    return {}


def median(values) -> float:
    return statistics.median(list(values))


def report_plain(results: list[dict],
                 setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    stage_names = sorted({s for r in results for s in r["stages"]})
    metrics = {
        # Seconds at the reference loop's nominal speed; see reference.py.
        "setup_s": {"value": median(t / ref for t, ref in setup) * NOMINAL_S, "unit": "s"},
        # Per command, the median over passes; a burst of machine load that
        # hits one command in one pass does not move the sum.
        "wall_norm": {"value": sum(median(r["norms"][i] for r in results)
                                   for i in range(len(results[0]["norms"]))),
                      "unit": "ref_loops"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    lines = [f"passes {len(results)}; medians over passes"]
    for name in stage_names:
        lines.append(f"{name:22s} {median(r['stages'][name] for r in results):12.6f} s")
    ops = results[0]["ops"]
    attempted, failed = ops["attempted"], ops["failed"]
    if "score_s" in stage_names:
        score = median(r["stages"]["score_s"] for r in results)
        lines.append(f"{'score_cells_per_s':22s} {ops['score_cells'] / score:12.3f} 1/s")
    lines.append(f"{'ops_attempted':22s} {attempted:12d} count")
    lines.append(f"{'ops_failed':22s} {failed:12d} count "
                 f"({failed / attempted if attempted else 0.0:.4f} of attempted)")
    if "score_inproc_s" in results[0]:
        inproc = median(r["score_inproc_s"] for r in results)
        score = median(r["stages"]["score_s"] for r in results)
        lines.append(f"{'score_inprocess_s':22s} {inproc:12.6f} s")
        lines.append(f"{'transport_overhead_s':22s} {score - inproc:12.6f} s "
                     f"(remote/in-process {score / inproc:.2f}x)")
    lines.append(f"{'wall_s':22s} {median(r['wall_s'] for r in results):12.6f} s")
    lines.append(f"{'setup_raw_s':22s} {median(t for t, _ in setup):12.6f} s")
    lines.append(f"{'reference_loop_s':22s} "
                 f"{median(r['reference_s'] for r in results):12.6f} s")
    for name, entry in metrics.items():
        lines.append(f"{name:22s} {entry['value']:12.6f} {entry['unit']}")
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["short_curate", "long_truncate", "remote_resume",
                                 "analyze_large"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="pin this seed's output digests in digests.json once the "
                             "independent checks pass")
    args = parser.parse_args(argv)

    if not (SRC / "factfilter" / "__init__.py").is_file():
        print(f"no factfilter sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = child_env()["PYTHONPATH"]
    import factfilter

    if Path(factfilter.__file__).resolve().parent != (SRC / "factfilter").resolve():
        print(f"imported factfilter from {factfilter.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if WORKLOADS[args.workload].one_cpu:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    runner = None
    try:
        done = subprocess.run([sys.executable, str(BENCH / "inputs.py"), args.workload,
                               str(args.seed), str(work / "inputs")],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT, check=False)
        if done.returncode != 0:
            raise RunFailed(f"input generation failed: {done.stderr.strip()[-2000:]}")
        spec = json.loads((work / "inputs" / "inputs.json").read_text(encoding="utf-8"))
        runner = Runner(args.workload, args.seed, work, spec, args.record_digests)
        setup = [] if args.trace else measure_setup(runner.workload.backend)
        if runner.workload.backend == "remote":
            runner.score_against_inprocess(
                "uninterrupted", runner.workload.backend_args(False), resume=False)
        results = runner.passes(args.seconds, bool(args.trace))
    except RunFailed as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        attempted = runner.commands if runner is not None else 0
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = run_record(args.workload, args.seed, bool(args.trace))
    if args.trace:
        plain = [r for r in results if "layers" not in r]
        traced = [r for r in results if "layers" in r]
        layers = {name: median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        cpu = median(r["cpu_s"] for r in traced)
        layers["proc.cpu_s"] = cpu
        layers["proc.cpu_share"] = cpu / median(r["wall_s"] for r in traced)
        layers["trace.overhead_s"] = (median(r["wall_s"] for r in traced)
                                      - median(r["wall_s"] for r in plain))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in layer_metric_units().items()}
        print(json.dumps({"record": record, "untraced_passes": len(plain),
                          "traced_passes": len(traced)}))
    else:
        metrics, lines = report_plain(results, setup)
        print("\n".join(lines))
        print(json.dumps({"record": record, "setup_samples_s": setup}))
    print(json.dumps({"correct": True, "attempted": runner.commands, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
