"""The fixed reference computation that timings are normalised by.

On a shared 2-vCPU VM the machine's speed drifts by up to a quarter within a
minute, and the drift moves this loop and the pipeline alike: a time divided
by the loop's time measured next to it varies far less between runs than the
time itself. The loop is independent of the toolkit, so a change to the
toolkit moves only the numerator. Its mix of JSON, dicts, string splitting,
hashing, sorting and small numpy reductions resembles the pipeline's own.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

# The loop's time on an unloaded 2.1 GHz Xeon vCPU; `setup_s` is reported in
# seconds at this speed.
NOMINAL_S = 0.04


def reference_loop() -> float:
    """Seconds one run of the reference computation takes now."""
    start = time.perf_counter()
    table = {}
    for i in range(5000):
        text = json.dumps({"id": f"p{i:05d}", "value": i * 0.37,
                           "words": "mayor river bridge storm harbor . opened"})
        row = json.loads(text)
        table[row["id"]] = (hashlib.blake2b(text.encode(), digest_size=16).digest(),
                            len(row["words"].split()))
    sorted(table, key=table.__getitem__)
    vectors = np.arange(64 * 16, dtype=np.float64).reshape(64, 16) / 1024.0
    for i in range(600):
        np.max(1.0 - np.sum((vectors - vectors[i % 64]) ** 2, axis=1) / 2.0)
    return time.perf_counter() - start


def reference_time(samples: int = 3) -> float:
    return statistics.median(reference_loop() for _ in range(samples))
