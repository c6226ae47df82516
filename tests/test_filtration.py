from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factfilter import (
    FilterManifest,
    ScoreTable,
    apply_manifest,
    intersect_filter,
    percentile_keep_set,
    random_selection,
)
from factfilter.errors import ConfigurationError, DomainError, IntegrityError, ParseError
from factfilter.scorers import FactualityScore, ScoreFailure

import reference
from conftest import make_corpus, make_pair


def build_table(corpus_name: str, columns: dict[str, dict[str, float]],
                failures: dict[str, list[str]] | None = None) -> ScoreTable:
    table = ScoreTable(corpus_name)
    for scorer, scores in columns.items():
        for pair_id, value in scores.items():
            table.add(FactualityScore(pair_id=pair_id, scorer=scorer,
                                      backend_name="mock", backend_version="1",
                                      value=value, truncated=False))
        for pair_id in (failures or {}).get(scorer, []):
            table.add(ScoreFailure(pair_id=pair_id, scorer=scorer, backend_name="mock",
                                   backend_version="1", reason="boom"))
    return table


class TestPercentileKeepSet:
    def test_rank_enumeration(self):
        scores = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        assert percentile_keep_set(scores, 0.25) == {"b", "c", "d"}

    def test_tie_break_by_ascending_id(self):
        scores = {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}
        assert percentile_keep_set(scores, 0.25) == {"b", "c", "d"}

    def test_single_entry_always_kept(self):
        for q in (0.01, 0.5, 0.99):
            assert percentile_keep_set({"only": 1.0}, q) == {"only"}

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.5, 2.0])
    def test_q_outside_unit_interval_rejected(self, q):
        with pytest.raises(DomainError):
            percentile_keep_set({"a": 1.0}, q)

    def test_empty_scores_rejected(self):
        with pytest.raises(DomainError):
            percentile_keep_set({}, 0.25)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_score_is_rejected_naming_its_id(self, bad):
        with pytest.raises(DomainError, match="'a' is not finite"):
            percentile_keep_set({"b": 1.0, "a": bad, "c": 0.5, "d": 0.2}, 0.5)

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.floats(-10, 10),
                           min_size=1, max_size=40),
           st.floats(0.05, 0.45), st.floats(0.5, 0.95))
    @settings(max_examples=60)
    def test_threshold_monotonicity(self, scores, q_low, q_high):
        assert percentile_keep_set(scores, q_high) <= percentile_keep_set(scores, q_low)

    @given(st.dictionaries(st.text(min_size=1, max_size=4),
                           st.integers(-500, 500).map(lambda i: i / 100),
                           min_size=2, max_size=30),
           st.floats(0.1, 0.9))
    @settings(max_examples=60)
    def test_monotone_transform_invariance(self, scores, q):
        # quantized inputs keep exp(v) + 3 strictly increasing in float64 too
        transformed = {k: math.exp(v) + 3.0 for k, v in scores.items()}
        assert percentile_keep_set(scores, q) == percentile_keep_set(transformed, q)


class TestIntersectFilter:
    def test_set_intersection_example(self):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        manifest = intersect_filter(table, 0.25)
        assert set(manifest.kept_ids) == {"2", "3"}
        assert manifest.selection_ratio == 0.5
        assert manifest.n_pairs == 4
        assert '"seed":null' in manifest.to_canonical_json()
        assert '"seedless":true' in manifest.to_canonical_json()

    def test_perfectly_correlated_scorers(self):
        scores = {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4}
        table = build_table("c", {"s1": dict(scores), "s2": dict(scores)})
        manifest = intersect_filter(table, 0.25)
        assert manifest.selection_ratio == 0.75

    def test_thresholds_record_lowest_kept_score(self):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        manifest = intersect_filter(table, 0.25)
        assert manifest.per_scorer_thresholds == {"s1": 0.2, "s2": 0.2}

    def test_a_signed_zero_tie_at_the_cut_gives_the_same_bytes_under_every_hash_seed(
            self, tmp_path):
        # p2..p5 tie at zero with alternating signs; the cut keeps all four, and
        # the threshold is the zero of the lowest-ranked one, p2.
        script = tmp_path / "manifest.py"
        script.write_text(
            "import sys\n"
            "from factfilter import ScoreTable, intersect_filter\n"
            "table = ScoreTable('c')\n"
            "columns = {'x': [-0.5, -0.25, 0.0, -0.0, 0.0, -0.0, 0.5, 1.0],\n"
            "           'y': [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3]}\n"
            "for scorer, values in columns.items():\n"
            "    for i, value in enumerate(values):\n"
            "        table.add_row({'pair_id': f'p{i}', 'scorer': scorer, 'value': value,\n"
            "                       'backend_name': 'm', 'backend_version': '1'})\n"
            "intersect_filter(table, 0.25).save(sys.argv[1])\n", encoding="utf-8")
        written = []
        # A `min` over the kept set returns -0.0 under one seed and 0.0 under the other.
        for seed in ("0", "1"):
            path = tmp_path / f"manifest-{seed}.json"
            subprocess.run([sys.executable, str(script), str(path)], check=True, timeout=60,
                           env={**os.environ, "PYTHONHASHSEED": seed})
            written.append(path.read_bytes())
        assert written[0] == written[1]
        threshold = FilterManifest.load(tmp_path / "manifest-0.json").per_scorer_thresholds["x"]
        assert math.copysign(1.0, threshold) == 1.0

    def test_failures_dropped_before_percentiles(self):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.1, "2": 0.2, "3": 0.3},
        }, failures={"s2": ["4"]})
        manifest = intersect_filter(table, 0.25)
        # population is {1,2,3}; each scorer keeps ceil(.75*3)=3 of them
        assert manifest.n_pairs == 3
        assert set(manifest.kept_ids) == {"1", "2", "3"}

    def test_single_scorer_rejected(self):
        table = build_table("c", {"s1": {"1": 0.1, "2": 0.2}})
        with pytest.raises(DomainError):
            intersect_filter(table, 0.25)

    def test_repeated_scorer_rejected(self):
        table = build_table("c", {"s1": {"1": 0.1, "2": 0.2}})
        with pytest.raises(ConfigurationError, match="scorers repeat"):
            intersect_filter(table, 0.25, ["s1", "s1"])

    def test_misaligned_columns_rejected(self):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2},
            "s2": {"1": 0.1},
        })
        with pytest.raises(IntegrityError):
            intersect_filter(table, 0.25)

    def test_manifest_round_trip_and_hash_stability(self, tmp_path):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        manifest = intersect_filter(table, 0.25)
        path = tmp_path / "manifest.json"
        manifest.save(path)
        reloaded = FilterManifest.load(path)
        assert reloaded == manifest
        assert reloaded.content_hash() == manifest.content_hash()

    @pytest.mark.parametrize("seedless", [True, False])
    def test_loaded_manifest_is_always_bounds_checked(self, tmp_path, seedless):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        obj = json.loads(intersect_filter(table, 0.25).to_canonical_json())
        obj.update(kept_ids=["1", "2", "3", "4"], selection_ratio=1.0, seedless=seedless)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(IntegrityError, match="violates the intersection bounds"):
            FilterManifest.load(path)

    def test_a_loaded_manifest_with_a_repeated_scorer_is_rejected(self, tmp_path):
        table = build_table("c", {"s1": {"1": 0.1, "2": 0.2}, "s2": {"1": 0.2, "2": 0.1}})
        obj = json.loads(intersect_filter(table, 0.25).to_canonical_json())
        obj["scorer_names"] = ["s1", "s1"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(IntegrityError, match="manifest scorer names repeat"):
            FilterManifest.load(path)

    @pytest.mark.parametrize("field, value, named", [
        ("q", "0.25", "q"), ("q", True, "q"),
        ("selection_ratio", "0.5", "selection_ratio"),
        ("selection_ratio", False, "selection_ratio"),
        ("per_scorer_thresholds", {"s1": "0.2", "s2": 0.2}, "s1"),
        ("per_scorer_thresholds", {"s1": True, "s2": 0.2}, "s1"),
        ("per_scorer_thresholds", [["s1", 0.2]], "per_scorer_thresholds"),
        ("n_pairs", "4", "n_pairs"), ("n_pairs", 4.0, "n_pairs"), ("n_pairs", True, "n_pairs"),
        ("scorer_names", "ab", "scorer_names"), ("scorer_names", ["s1", 2], "scorer_names"),
        ("kept_ids", "23", "kept_ids"), ("kept_ids", [2, 3], "kept_ids"),
        ("corpus_name", 5, "corpus_name"),
        ("created_with", 5, "created_with"), ("created_with", [], "created_with"),
        ("created_with", {"greedy": 1}, "greedy"),
        ("created_with", {"greedy": {"name": 1}}, "name"),
    ])
    def test_wrongly_typed_field_is_a_parse_error_naming_the_path(self, tmp_path, field,
                                                                   value, named):
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        obj = json.loads(intersect_filter(table, 0.25).to_canonical_json())
        obj[field] = value
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:.*'{named}'"):
            FilterManifest.load(path)


# Ids with non-ASCII characters, and some ending in NUL, which a numpy string
# array would drop.
_IDS = st.lists(st.text(st.sampled_from(["a", "b", "\x00", "\u00e9", "\u4e2d", "\U0001f600"]),
                        min_size=1, max_size=3), min_size=1, max_size=25, unique=True)
# Heavy ties, -0.0 next to 0.0, and sentinels (None).
_CELLS = st.one_of(st.sampled_from([-0.5, -0.0, 0.0, 0.25, 1.0, None]),
                   st.floats(-1.0, 1.0, allow_nan=False))
_QS = st.one_of(st.floats(1e-9, 0.05), st.floats(0.05, 0.95), st.floats(0.95, 1.0 - 1e-9))


class TestFiltrationOracle:
    """`percentile_keep_set` and `intersect_filter` against the dict sorts and
    set algebra of `reference.keep_set` and `reference.intersect`."""

    @given(st.data(), _IDS, st.integers(2, 3), _QS)
    @settings(max_examples=300)
    def test_intersect_filter_matches_the_set_algebra(self, data, ids, k, q):
        columns = {}
        table = ScoreTable("c")
        for name in [f"s{i}" for i in range(k)]:
            cells = data.draw(st.lists(_CELLS, min_size=len(ids), max_size=len(ids)))
            columns[name] = {pid: "boom" if v is None else v for pid, v in zip(ids, cells)}
            for pid in data.draw(st.permutations(ids)):  # rows in any order
                value = columns[name][pid]
                table.add_row({"pair_id": pid, "scorer": name, "backend_name": "m",
                               "backend_version": "1", "error": "boom",
                               "value": None if isinstance(value, str) else value})
        kept, thresholds, n_pairs = reference.intersect(columns, q)
        if any(all(isinstance(v, str) for v in column.values())
               for column in columns.values()):
            with pytest.raises(IntegrityError, match="has no successful scores"):
                intersect_filter(table, q)
        elif not kept:
            with pytest.raises(DomainError, match="no pair was successfully scored|"
                                                  "empty intersection"):
                intersect_filter(table, q)
        else:
            manifest = intersect_filter(table, q)
            assert manifest.kept_ids == kept
            assert {name: repr(v) for name, v in manifest.per_scorer_thresholds.items()} \
                == {name: repr(v) for name, v in thresholds.items()}
            assert manifest.n_pairs == n_pairs

    @given(st.data(), _IDS, _QS)
    @settings(max_examples=300)
    def test_percentile_keep_set_matches_the_sort(self, data, ids, q):
        values = data.draw(st.lists(_CELLS.filter(lambda v: v is not None),
                                    min_size=len(ids), max_size=len(ids)))
        scores = dict(zip(ids, values))
        assert percentile_keep_set(scores, q) == reference.keep_set(scores, q)


class TestLongTieRuns:
    """Every cut falls inside a run of thousands of tied values, where the
    ids alone decide; the zero run holds -0.0 and 0.0 mixed."""

    N = 20_000
    VALUES = [-1.0, -0.0, 0.0, 0.5, 1.0]

    def _columns(self) -> dict[str, dict[str, float | str]]:
        rng = np.random.default_rng(25)
        # Ids in no particular row order, some a prefix of another.
        ids = [f"p{k:05d}" + "\x00" * (k % 3 == 0) for k in rng.permutation(self.N).tolist()]
        columns = {}
        for name, shares in (("s0", [0.15, 0.25, 0.25, 0.2, 0.15]),
                             ("s1", [0.05, 0.3, 0.3, 0.05, 0.3])):
            values = rng.choice(self.VALUES, size=self.N, p=shares).tolist()
            columns[name] = dict(zip(ids, values))
        for pair_id in ids[:200]:
            columns["s1"][pair_id] = "boom"
        return columns

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.9])
    def test_keep_set_matches_the_sort(self, q):
        scores = self._columns()["s0"]
        assert percentile_keep_set(scores, q) == reference.keep_set(scores, q)

    @pytest.mark.parametrize("q", [0.1, 0.25, 0.5, 0.9])
    def test_intersect_filter_matches_the_set_algebra(self, q):
        columns = self._columns()
        table = ScoreTable("c")
        for name, column in columns.items():
            for pid, value in column.items():
                table.add_row({"pair_id": pid, "scorer": name, "backend_name": "m",
                               "backend_version": "1", "error": "boom",
                               "value": None if isinstance(value, str) else value})
        kept, thresholds, n_pairs = reference.intersect(columns, q)
        manifest = intersect_filter(table, q)
        assert manifest.kept_ids == kept
        assert {name: repr(v) for name, v in manifest.per_scorer_thresholds.items()} \
            == {name: repr(v) for name, v in thresholds.items()}
        assert n_pairs == manifest.n_pairs == self.N - 200


class TestRandomSelection:
    def _corpus(self, n=4):
        return make_corpus("c", *(make_pair(f"p{i}", "doc words here", "a b")
                                  for i in range(n)))

    def test_full_size_returns_all_ids(self):
        corpus = self._corpus()
        assert random_selection(corpus, 4, seed=7) == set(corpus.ids())

    def test_deterministic_for_seed(self):
        corpus = self._corpus(20)
        assert random_selection(corpus, 5, seed=42) == random_selection(corpus, 5, seed=42)
        assert random_selection(corpus, 5, seed=42) != random_selection(corpus, 5, seed=43)

    def test_size_bounds(self):
        corpus = self._corpus()
        with pytest.raises(DomainError):
            random_selection(corpus, 0, seed=1)
        with pytest.raises(DomainError):
            random_selection(corpus, 5, seed=1)

    def test_empirical_uniformity(self):
        corpus = self._corpus(4)
        counts = {pid: 0 for pid in corpus.ids()}
        n_draws = 10_000
        for seed in range(n_draws):
            (picked,) = random_selection(corpus, 1, seed=seed)
            counts[picked] += 1
        sigma = math.sqrt(0.25 * 0.75 / n_draws)
        for pid, count in counts.items():
            assert abs(count / n_draws - 0.25) < 4 * sigma, (pid, count)


class TestApplyManifest:
    def _setup(self, q=0.25):
        corpus = make_corpus(
            "c",
            make_pair("1", "alpha beta gamma", "alpha beta"),
            make_pair("2", "delta epsilon zeta", "delta epsilon"),
            make_pair("3", "eta theta iota", "eta theta"),
            make_pair("4", "kappa lam mu", "kappa lam"),
        )
        table = build_table("c", {
            "s1": {"1": 0.1, "2": 0.2, "3": 0.3, "4": 0.4},
            "s2": {"1": 0.4, "2": 0.3, "3": 0.2, "4": 0.1},
        })
        return corpus, intersect_filter(table, q)

    def test_keeps_original_order_and_tags_meta(self):
        corpus, manifest = self._setup()
        filtered = apply_manifest(corpus, manifest)
        assert filtered.ids() == ("2", "3")
        assert all(p is corpus.pairs[int(p.id) - 1] for p in filtered)  # not copies

    def test_keep_all_preserves_pairs(self):
        corpus, _ = self._setup()
        scores = {pid: float(i) for i, pid in enumerate(corpus.ids())}
        table = build_table("c", {"s1": dict(scores), "s2": dict(scores)})
        manifest = intersect_filter(table, 0.05)  # ceil(.95*4)=4, keeps everything
        filtered = apply_manifest(corpus, manifest)
        assert filtered.ids() == corpus.ids()
        assert [p.document for p in filtered] == [p.document for p in corpus]

    def test_empty_keep_refused(self):
        corpus, _ = self._setup()
        empty = FilterManifest(corpus_name="c", scorer_names=("s1", "s2"), q=0.75,
                               per_scorer_thresholds={}, kept_ids=(), n_pairs=4,
                               selection_ratio=0.0, created_with={})
        with pytest.raises(DomainError):
            apply_manifest(corpus, empty)

    def test_name_mismatch_rejected(self):
        corpus, manifest = self._setup()
        other = make_corpus("other", *corpus.pairs)
        with pytest.raises(IntegrityError):
            apply_manifest(other, manifest)

    def test_unknown_manifest_id_rejected(self):
        corpus, manifest = self._setup()
        smaller = corpus.subset({"2"})
        with pytest.raises(IntegrityError):
            apply_manifest(smaller, manifest)

    def test_idempotent(self):
        corpus, manifest = self._setup()
        once = apply_manifest(corpus, manifest)
        twice = apply_manifest(once, manifest)
        assert once == twice
