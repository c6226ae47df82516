#!/usr/bin/env python3
"""Record a baseline: every workload over several seeds, plus one traced run.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/BASELINE.json]

Run from the root of a source checkout. Each seed runs `run.py --trace 0`
for the run length in BENCHMARK.json; the baseline keeps, per workload and
metric, the median, the quartiles and the quartile distance over the median
(the spread), for the end-to-end metrics and for the stage lines printed
before them. One `--trace 1` run on the first seed adds the per-layer
metrics. Any failed run aborts the recording.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    record = json.loads(lines[-2])["record"]
    stages = {}
    for line in lines[:-2]:
        fields = line.split()
        try:
            stages[fields[0]] = {"value": float(fields[1]), "unit": fields[2]}
        except (IndexError, ValueError):
            continue
    return result, stages, record


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", default=str(BENCH / "BASELINE.json"))
    args = parser.parse_args()
    first, last = (int(part) for part in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    config = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = config["run_seconds"]
    baseline: dict = {"run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in config["workloads"]):
        metrics: dict[str, list[float]] = {}
        stage_values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result, stages, record = run(workload, seed, seconds, 0)
            for name, entry in result["metrics"].items():
                metrics.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
            for name, entry in stages.items():
                if name not in result["metrics"]:
                    stage_values.setdefault(name, []).append(entry["value"])
                    units[name] = entry["unit"]
            print(workload, seed, {k: round(v["value"], 4)
                                   for k, v in result["metrics"].items()}, flush=True)
        traced, _, _ = run(workload, seeds[0], seconds, 1)
        baseline["record"] = {k: v for k, v in record.items()
                              if k not in ("workload", "seed", "trace")}
        baseline["workloads"][workload] = {
            "end_to_end": {name: {**summary(values), "unit": units[name]}
                           for name, values in metrics.items()},
            "stages": {name: {**summary(values), "unit": units[name]}
                       for name, values in stage_values.items()},
            "per_layer": {name: entry["value"] for name, entry in traced["metrics"].items()},
        }
    Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
