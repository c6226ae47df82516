"""Acceptance suite: one test per release criterion, strictest tolerances pinned.

Each criterion prints a PASS/FAIL line (visible with `pytest -s`); a FAIL
line is always accompanied by the assertion details pytest reports.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from factfilter import (
    FactualityAnnotation,
    FilterManifest,
    MockBackend,
    flip_analysis,
    load_corpus,
    partial_pearson,
    pearson,
    rouge2,
    wilcoxon_signed_rank,
)
from factfilter import scorers
from factfilter.cli import main
from factfilter.corpus import toy_corpus_path
from factfilter.filtration import intersect_filter, percentile_keep_set
from factfilter.remote import RemoteBackend
from factfilter.scorers import FactualityScore, ScoreTable
from factfilter.stats import _average_ranks, _exact_two_sided_p, _normal_two_sided_p
from factfilter.validation import CATEGORIES

from conftest import make_pair, score_one
from toy_chain import run_toy_chain

# Frozen outputs of the toy pipeline (score -> filter(q=0.25) -> stats ->
# evaluate, and score -> sweep over combined, random and single:dae at the
# default thresholds; mock backend). Regenerating the toy corpus moves these.
TOY_MANIFEST_HASH = "b8078f630e1a5d0b9475da632c2476b0b01b0c6cc45ea7aaa9cf213f564c12a6"
TOY_SCORES_SHA = "191ff0a99a521252b0b14aaa1b7e4b87cbab4102b712a36291173c13eb250400"
TOY_STATS_SHA = "cea0d39e406db0c601162ca3e077065de992e900e5e060db513a353588c46661"
TOY_DISTRIBUTIONS_SHA = "cb8e8fe87cd2aa0df6a6f2732db83a9a464cd0efe2c6cb0781e8fdc485e9bb39"
TOY_REPORT_SHA = "bb7ec85ce8374108833b96e62a9e9eec571fd0171828e55965e33e55b2ccbe6f"
TOY_SWEEP_SHA = "c3ad5befa7ec80d35100a59e0dbcd3413c4e33221ef94da52a64f84b62435d23"
TOY_HASHES = {"manifest_hash": TOY_MANIFEST_HASH, "scores": TOY_SCORES_SHA,
              "stats": TOY_STATS_SHA, "distributions": TOY_DISTRIBUTIONS_SHA,
              "report": TOY_REPORT_SHA, "sweep": TOY_SWEEP_SHA}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({description}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number} ({description}): PASS", flush=True)


def oracle_rouge2(candidate: str, reference: str):
    ctoks = candidate.lower().split()
    rtoks = reference.lower().split()
    cbi = [(ctoks[i], ctoks[i + 1]) for i in range(len(ctoks) - 1)]
    rbi = [(rtoks[i], rtoks[i + 1]) for i in range(len(rtoks) - 1)]
    remaining = list(rbi)
    overlap = 0
    for bigram in cbi:
        if bigram in remaining:
            remaining.remove(bigram)
            overlap += 1
    p = overlap / len(cbi) if cbi else 0.0
    r = overlap / len(rbi) if rbi else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def test_criterion_1_rouge2_oracle_agreement():
    with criterion(1, "bigram metric agrees exactly with multiset oracle"):
        start = time.monotonic()
        worked = rouge2("the cat sat", "the cat slept")
        assert (worked.precision, worked.recall, worked.f1) == (0.5, 0.5, 0.5)
        rng = np.random.default_rng(1001)
        alphabet = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"]
        for _ in range(1000):
            cand = " ".join(rng.choice(alphabet, size=rng.integers(0, 16)))
            ref = " ".join(rng.choice(alphabet, size=rng.integers(0, 16)))
            score = rouge2(cand, ref)
            p, r, f = oracle_rouge2(cand, ref)
            assert (score.precision, score.recall, score.f1) == (p, r, f)
        assert time.monotonic() - start < 5.0


def oracle_partial_pearson(x, y, z) -> float:
    design = np.column_stack([np.ones(len(x)), np.asarray(z, float)])
    projector = np.linalg.inv(design.T @ design) @ design.T
    rx = np.asarray(x, float) - design @ (projector @ np.asarray(x, float))
    ry = np.asarray(y, float) - design @ (projector @ np.asarray(y, float))
    rxc = rx - rx.mean()
    ryc = ry - ry.mean()
    return float((rxc * ryc).sum() / np.sqrt((rxc ** 2).sum() * (ryc ** 2).sum()))


def test_criterion_2_partial_pearson_oracle():
    with criterion(2, "partial correlation matches normal-equations oracle"):
        rng = np.random.default_rng(1002)
        for _ in range(200):
            n = 20
            k = int(rng.integers(0, 4))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            z = rng.normal(size=(n, k))
            result = partial_pearson(x, y, z if k else None)
            expected = oracle_partial_pearson(x, y, z) if k else pearson(x, y)
            assert abs(result.r - expected) < 1e-10
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        assert partial_pearson(x, y).r == pearson(x, y)


def test_criterion_3_wilcoxon_exact_and_band():
    with criterion(3, "exact signed-rank p-values and approximation band"):
        result = wilcoxon_signed_rank([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.p_value == 0.0625 == 2 / 32
        assert result.method == "exact"
        # independent oracle: literally enumerate all 32 sign patterns
        ranks = [1, 2, 3, 4, 5]
        count = 0
        for signs in itertools.product((0, 1), repeat=5):
            w = sum(r for r, s in zip(ranks, signs) if s)
            if w >= 15 or w <= 0:
                count += 1
        assert count / 32 == result.p_value
        rng = np.random.default_rng(1003)
        for _ in range(100):
            d = rng.normal(size=20)
            r = _average_ranks(np.abs(d))
            w = float(r[d > 0].sum())
            assert abs(_exact_two_sided_p(r, w)
                       - _normal_two_sided_p(r, np.abs(d), w)) < 0.02


def _random_table(rng, n: int) -> tuple[ScoreTable, dict[str, dict[str, float]]]:
    ids = [f"p{i:04d}" for i in range(n)]
    columns = {s: {pid: float(v) for pid, v in zip(ids, rng.uniform(size=n))}
               for s in ("s1", "s2", "s3")}
    table = ScoreTable("c")
    for scorer, scores in columns.items():
        for pid, value in scores.items():
            table.add(FactualityScore(pair_id=pid, scorer=scorer, backend_name="m",
                                      backend_version="1", value=value, truncated=False))
    return table, columns


def test_criterion_4_filtration_set_algebra():
    with criterion(4, "filtration set algebra on randomized tables"):
        start = time.monotonic()
        for seed in range(500):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(20, 1001))
            q = float(rng.uniform(0.05, 0.45))
            table, columns = _random_table(rng, n)
            manifest = intersect_filter(table, q)
            ratio = manifest.selection_ratio
            assert 1 - 3 * q - 1e-12 <= ratio <= 1 - q + 1e-12, (seed, n, q, ratio)
            keep_one = percentile_keep_set(columns["s1"], q)
            transformed = {k: math.exp(3.0 * v) - 2.0 for k, v in columns["s1"].items()}
            assert percentile_keep_set(transformed, q) == keep_one
            stricter = min(q * 1.8, 0.9)
            assert percentile_keep_set(columns["s1"], stricter) <= keep_one
            kept = manifest.kept_id_set()
            for scorer in columns:
                assert kept <= percentile_keep_set(columns[scorer], q)
        assert time.monotonic() - start < 30.0


def _score_toy(out: Path, backend: list[str]) -> bytes:
    out.mkdir()
    scores = out / "scores.jsonl"
    assert main(["score", "--in", str(toy_corpus_path()), "--out", str(scores),
                 "--scorers", "greedy,condll,dae", *backend]) == 0
    return scores.read_bytes()


def test_criterion_5_toy_pipeline_bit_exact(tmp_path, monkeypatch):
    with criterion(5, "end-to-end toy pipeline reproduces frozen hashes"):
        first = run_toy_chain(tmp_path / "run_1", ["--backend", "mock"])
        second = run_toy_chain(tmp_path / "run_2", ["--backend", "mock"])
        assert first == second
        assert first == TOY_HASHES

        # Chunks and greedy groups of one pair, the default budgets and the
        # whole corpus in one chunk and one group, in process and over the
        # remote protocol, give the same bytes.
        remote = f"{sys.executable} -m factfilter.remote --backend mock"
        for chunk_chars, embed_rows in itertools.product((1, scorers._CHUNK_CHARS, 10 ** 9),
                                                         (1, scorers._EMBED_ROWS, 10 ** 9)):
            monkeypatch.setattr(scorers, "_CHUNK_CHARS", chunk_chars)
            monkeypatch.setattr(scorers, "_EMBED_ROWS", embed_rows)
            for name, backend in (("mock", ["--backend", "mock"]),
                                  ("remote", ["--backend", "remote",
                                              "--remote-command", remote])):
                bounds = (chunk_chars, embed_rows, name)
                scores = _score_toy(tmp_path / "chunk_{}_{}_{}".format(*bounds), backend)
                assert hashlib.sha256(scores).hexdigest() == TOY_SCORES_SHA, bounds

        # Embedding vectors cross the wire as bytes and decode to the same bits.
        local = MockBackend()
        texts = [text for pair in load_corpus(toy_corpus_path())
                 for text in (pair.document, pair.summary)]
        with RemoteBackend(shlex.split(remote)) as over_wire:
            batched = over_wire.map("embed_tokens", [(text,) for text in texts])
            single = [over_wire.embed_tokens(text) for text in texts[:4]]
            for got, text in zip(batched + single, texts + texts[:4]):
                want = local.embed_tokens(text)
                assert got.tokens == want.tokens
                assert got.vectors.dtype == want.vectors.dtype
                assert got.vectors.tobytes() == want.vectors.tobytes()


@pytest.mark.parametrize("blas_threads", ["1", None], ids=["one-blas-thread", "default-blas"])
@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_criterion_5_toy_chain_under_a_hostile_interpreter(tmp_path, hash_seed, blas_threads):
    """The toy chain, in process and over remote, gives the frozen hashes in
    dev mode with every warning an error, whatever the hash seed and however
    many threads BLAS (which the batched greedy screen goes through) runs."""
    # The flags hold for the chain's process, the environment also for the
    # remote server it starts.
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONDEVMODE": "1",
           "PYTHONWARNINGS": "error"}
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        env.pop(name, None)
        if blas_threads is not None:
            env[name] = blas_threads
    done = subprocess.run([sys.executable, "-X", "dev", "-W", "error",
                           str(Path(__file__).with_name("toy_chain.py")), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"in process": TOY_HASHES,
                                                         "remote": TOY_HASHES}


def _synthetic_annotations(rng, n: int, flag_rate: float = 0.3,
                           flagged_value: float | None = 0.1):
    annotations = []
    for i in range(n):
        flags = {c: bool(rng.random() < flag_rate) for c in CATEGORIES}
        if not any(flags.values()):
            factuality = 1.0
        else:
            factuality = flagged_value if flagged_value is not None \
                else float(rng.uniform(0.0, 0.8))
        annotations.append(FactualityAnnotation(
            summary_id=f"s{i:05d}", source_dataset="cnndm",
            system_id=("sysA", "sysB")[i % 2], factuality=factuality,
            category_flags=flags))
    return annotations


def test_criterion_6_flip_analysis_synthetic():
    with criterion(6, "flip analysis isolates the constructed error category"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            target = CATEGORIES[seed % len(CATEGORIES)]
            annotations = _synthetic_annotations(rng, 400)
            scores = {a.summary_id: 0.0 if a.category_flags[target] else 1.0
                      for a in annotations}
            report = flip_analysis({"probe": scores}, annotations)
            deltas = {c: report.delta("probe", "cnndm", c) for c in CATEGORIES}
            assert max(deltas, key=deltas.get) == target, (seed, target, deltas)
        rng = np.random.default_rng(4242)
        annotations = _synthetic_annotations(rng, 1000, flagged_value=None)
        noise = {a.summary_id: float(rng.normal()) for a in annotations}
        report = flip_analysis({"noise": noise}, annotations)
        for row in report.rows:
            assert abs(row.delta) < 0.1, row


def test_criterion_7_mock_scorer_analytics(mock_backend):
    with criterion(7, "mock-backend scorer values are analytically exact"):
        copied = make_pair("p", "the mayor opened the bridge on friday",
                           "mayor opened the bridge")
        assert score_one("greedy", copied.document, copied.summary, mock_backend).value == 1.0
        assert score_one("dae", copied.document, copied.summary, mock_backend).value == 1.0
        assert abs(score_one("condll", copied.document, copied.summary, mock_backend).value
                   - math.log(0.9)) < 1e-12

        mixed_embed = make_pair("p", "alpha beta gamma", "alpha beta zzzz")
        doc_vectors = mock_backend.embed_tokens(mixed_embed.document).vectors.tolist()
        best = []
        for u in mock_backend.embed_tokens(mixed_embed.summary).vectors.tolist():
            sims = [1.0 - sum((ui - vi) ** 2 for ui, vi in zip(u, v)) / 2.0
                    for v in doc_vectors]
            best.append(max(sims))
        expected_greedy = sum(best) / len(best)
        got = score_one("greedy", mixed_embed.document, mixed_embed.summary, mock_backend).value
        assert abs(got - expected_greedy) < 1e-12
        assert got < 1.0

        mixed_condll = make_pair("p", "storm hit", "storm hit comet meteor")
        expected_condll = (2 * math.log(0.9) + 2 * math.log(0.1)) / 4
        assert abs(score_one("condll", mixed_condll.document, mixed_condll.summary,
                             mock_backend).value - expected_condll) < 1e-12

        mixed_dae = make_pair("p", "the mayor opened the bridge", "mayor opened comet")
        assert score_one("dae", mixed_dae.document, mixed_dae.summary, mock_backend).value == 0.5


REAL_DATA_ENV = "FACTFILTER_REAL_DATA"


@pytest.mark.skipif(REAL_DATA_ENV not in os.environ,
                    reason=f"set {REAL_DATA_ENV} to a directory of real corpora "
                           "and score files to enable")
def test_criterion_8_full_scale_structure(tmp_path):
    """Full-scale structural check; only meaningful with real corpora and backends.

    Expects $FACTFILTER_REAL_DATA to hold <name>.jsonl corpora with matching
    <name>_scores.jsonl produced by real backends. Selection ratios are
    asserted only against the loose [0.25, 0.75] band; published full-scale
    ratios land in the 52-59% regime but are not a gate.
    """
    with criterion(8, "full-scale stats structure and loose ratio band"):
        data_dir = Path(os.environ[REAL_DATA_ENV])
        corpora = sorted(data_dir.glob("*.jsonl"))
        corpora = [p for p in corpora if not p.stem.endswith("_scores")]
        assert corpora, f"no corpora found in {data_dir}"
        for corpus_path in corpora:
            scores_path = data_dir / f"{corpus_path.stem}_scores.jsonl"
            assert scores_path.exists(), f"missing scores for {corpus_path.stem}"
            manifest_path = tmp_path / f"{corpus_path.stem}_manifest.json"
            assert main(["filter", "--q", "0.25", "--scores", str(scores_path),
                         "--out", str(manifest_path),
                         "--corpus-name", corpus_path.stem]) == 0
            manifest = FilterManifest.load(manifest_path)
            assert 0.25 <= manifest.selection_ratio <= 0.75
            stats_path = tmp_path / f"{corpus_path.stem}_stats.csv"
            assert main(["stats", "--in", str(corpus_path),
                         "--manifest", str(manifest_path),
                         "--out", str(stats_path)]) == 0
            lines = stats_path.read_text().strip().splitlines()
            assert lines[0] == ("record,corpus,n_pairs,n_train,n_validation,"
                                "n_test,mean_doc_words,mean_sum_words,selection_ratio")
            assert lines[1].startswith("full,")
            assert lines[2].startswith("selection,")
