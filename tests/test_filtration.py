from __future__ import annotations

import json
import math
import re

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
from factfilter.errors import DomainError, IntegrityError, ParseError
from factfilter.scorers import FactualityScore, ScoreFailure

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
        assert all(p.meta["filter_manifest"] == manifest.content_hash() for p in filtered)

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
