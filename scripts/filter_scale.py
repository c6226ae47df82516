#!/usr/bin/env python3
"""Time `factfilter filter` on a corpus-sized scores file.

    python scripts/filter_scale.py [--pairs 300000] [--seed 0] [--runs 1]

Writes a seeded synthetic scores file of `--pairs` pairs x 3 scorers (greedy,
condll, dae; 1% of the dae cells are failure sentinels) to a temporary
directory, runs `python -m factfilter.cli filter --q 0.25` on it `--runs`
times, each in a fresh subprocess importing this checkout's `src/`, and
prints one JSON line: the wall seconds of each run, their median, and the
children's peak resident memory (`RUSAGE_CHILDREN`, the largest child). The
temporary directory is deleted at the end. Needs only the standard library
and numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
SENTINEL_SHARE = 0.01


def write_scores(path: Path, n_pairs: int, seed: int) -> None:
    """Scorer-major rows, as `factfilter score` writes them."""
    rng = np.random.default_rng(seed)
    ids = [f"pair-{token:016x}" for token in rng.integers(0, 2 ** 63, size=n_pairs)]
    columns = {
        "greedy": rng.uniform(-1.0, 1.0, n_pairs),
        "condll": -rng.exponential(2.0, n_pairs),
        "dae": rng.uniform(0.0, 1.0, n_pairs),
    }
    failed = rng.random(n_pairs) < SENTINEL_SHARE
    truncated = rng.random(n_pairs) < 0.05
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        for scorer, values in columns.items():
            for i, pair_id in enumerate(ids):
                row = {"pair_id": pair_id, "scorer": scorer, "backend_name": "mock",
                       "backend_version": "1"}
                if scorer == "dae" and failed[i]:
                    row.update(value=None, truncated=False,
                               error="NoArcsError: summary yields no dependency arcs")
                else:
                    row.update(value=float(values[i]), truncated=bool(truncated[i]))
                handle.write(json.dumps(row) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=300_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1)
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    walls = []
    with tempfile.TemporaryDirectory() as tmp:
        scores = Path(tmp) / "scores.jsonl"
        write_scores(scores, args.pairs, args.seed)
        for _ in range(args.runs):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "factfilter.cli", "filter",
                            "--scores", str(scores), "--out", str(Path(tmp) / "manifest.json"),
                            "--q", "0.25"], env=env, check=True, stderr=subprocess.DEVNULL)
            walls.append(time.perf_counter() - start)
        manifest = json.loads((Path(tmp) / "manifest.json").read_text(encoding="utf-8"))
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    print(json.dumps({"pairs": args.pairs, "scorers": 3, "seed": args.seed,
                      "kept": len(manifest["kept_ids"]), "n_pairs": manifest["n_pairs"],
                      "wall_s": walls, "wall_s_median": statistics.median(walls),
                      "peak_rss_mb": peak_kb / 1024}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
