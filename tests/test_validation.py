from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

import reference
from factfilter import (
    CATEGORIES,
    FactualityAnnotation,
    flip_analysis,
    flip_labels,
    load_annotations,
    validate_scorer,
)
from factfilter import validation
from factfilter.errors import CoverageError, DomainError, IntegrityError, ParseError
from factfilter.validation import FlipRow, _system_indicators


def synth_annotations(seed: int, n: int, flag_rate: float = 0.3,
                      datasets=("cnndm", "xsum"), systems=("sysA", "sysB")):
    rng = np.random.default_rng(seed)
    annotations = []
    for i in range(n):
        flags = {c: bool(rng.random() < flag_rate) for c in CATEGORIES}
        factuality = 1.0 if not any(flags.values()) else float(rng.uniform(0.0, 0.8))
        annotations.append(FactualityAnnotation(
            summary_id=f"s{i:05d}",
            source_dataset=datasets[i % len(datasets)],
            system_id=systems[i % len(systems)],
            factuality=factuality,
            category_flags=flags,
        ))
    return annotations


def _record(summary_id="s1", dataset="cnndm", system="sysA", factuality=1.0,
            flags=(False, False, False)):
    return {
        "summary_id": summary_id,
        "dataset": dataset,
        "system": system,
        "factuality": factuality,
        "errors": dict(zip(CATEGORIES, flags)),
    }


class TestLoadAnnotations:
    def test_loads_valid_records(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        rows = [_record("s1"), _record("s2", factuality=0.3, flags=(True, False, False)),
                _record("s3", dataset="xsum")]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        annotations = load_annotations(path)
        assert len(annotations) == 3
        assert annotations[1].category_flags["semantic_frame"]

    def test_unflagged_nonfactual_record_rejected_with_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(_record("s9", factuality=0.4)) + "\n")
        with pytest.raises(IntegrityError, match="s9"):
            load_annotations(path)

    def test_schema_mismatch_is_parse_error(self, tmp_path):
        path = tmp_path / "schema.jsonl"
        path.write_text(json.dumps({"unrelated": 1}) + "\n")
        with pytest.raises(ParseError):
            load_annotations(path)


class TestValidateScorer:
    def test_score_equal_to_factuality_gives_r_one(self):
        annotations = synth_annotations(0, 200)
        scores = {a.summary_id: a.factuality for a in annotations}
        result = validate_scorer(scores, annotations, dataset="cnndm")
        assert result.r == pytest.approx(1.0, abs=1e-9)

    def test_independent_noise_gives_near_zero(self):
        annotations = synth_annotations(1, 1000, datasets=("cnndm",))
        rng = np.random.default_rng(99)
        scores = {a.summary_id: float(rng.normal()) for a in annotations}
        result = validate_scorer(scores, annotations, dataset="cnndm")
        assert abs(result.r) < 0.1
        assert result.n == 1000

    def test_slice_restricts_population(self):
        annotations = synth_annotations(2, 100)
        scores = {a.summary_id: a.factuality for a in annotations}
        cnndm = validate_scorer(scores, annotations, dataset="cnndm")
        pooled = validate_scorer(scores, annotations, dataset=None)
        assert cnndm.n == 50
        assert pooled.n == 100

    def test_coverage_floor_enforced(self):
        annotations = synth_annotations(3, 100, datasets=("cnndm",))
        scores = {a.summary_id: a.factuality for a in annotations[:90]}  # 90% < 95%
        with pytest.raises(CoverageError) as excinfo:
            validate_scorer(scores, annotations, dataset="cnndm")
        assert len(excinfo.value.missing_ids) == 10

    def test_pairwise_exclusion_above_floor(self):
        annotations = synth_annotations(4, 100, datasets=("cnndm",))
        scores = {a.summary_id: a.factuality for a in annotations[:97]}
        result = validate_scorer(scores, annotations, dataset="cnndm")
        assert result.n == 97

    def test_positive_affine_transform_invariance(self):
        annotations = synth_annotations(5, 300)
        scores = {a.summary_id: a.factuality * 0.5 + 0.1 for a in annotations}
        rng = np.random.default_rng(0)
        noisy = {k: v + 0.05 * float(rng.normal()) for k, v in scores.items()}
        base = validate_scorer(noisy, annotations).r
        rescaled = validate_scorer({k: 7.0 * v + 3.0 for k, v in noisy.items()},
                                   annotations).r
        assert rescaled == pytest.approx(base, abs=1e-9)


class TestFlipLabels:
    def test_flip_unflagged_category_zeroes_factuality(self):
        annotations = [FactualityAnnotation(
            summary_id=f"s{i}", source_dataset="cnndm", system_id="sysA",
            factuality=1.0, category_flags=dict.fromkeys(CATEGORIES, False))
            for i in range(5)]
        flipped = flip_labels(annotations, "discourse")
        assert all(a.category_flags["discourse"] for a in flipped)
        assert all(a.factuality == 0.0 for a in flipped)

    def test_double_flip_is_identity_on_flags(self):
        annotations = synth_annotations(6, 50)
        for category in CATEGORIES:
            twice = flip_labels(flip_labels(annotations, category), category)
            assert [a.category_flags for a in twice] == \
                [a.category_flags for a in annotations]

    def test_other_categories_untouched(self):
        annotations = synth_annotations(7, 50)
        flipped = flip_labels(annotations, "semantic_frame")
        for before, after in zip(annotations, flipped):
            assert before.category_flags["discourse"] == after.category_flags["discourse"]
            assert before.category_flags["content_verifiability"] == \
                after.category_flags["content_verifiability"]

    def test_clearing_sole_flag_restores_factual(self):
        annotation = FactualityAnnotation(
            summary_id="s", source_dataset="cnndm", system_id="sysA",
            factuality=0.3,
            category_flags={"semantic_frame": True, "discourse": False,
                            "content_verifiability": False})
        (flipped,) = flip_labels([annotation], "semantic_frame")
        assert flipped.factuality == 1.0

    def test_surviving_original_flag_keeps_judgment(self):
        annotation = FactualityAnnotation(
            summary_id="s", source_dataset="cnndm", system_id="sysA",
            factuality=0.3,
            category_flags={"semantic_frame": True, "discourse": True,
                            "content_verifiability": False})
        (flipped,) = flip_labels([annotation], "semantic_frame")
        assert flipped.factuality == 0.3

    def test_unknown_category_rejected(self):
        with pytest.raises(DomainError):
            flip_labels([], "spelling")


class TestFlipAnalysis:
    def test_category_specific_scorer_has_maximal_delta(self):
        rng = np.random.default_rng(8)
        annotations = []
        for i in range(400):
            flags = {c: bool(rng.random() < 0.3) for c in CATEGORIES}
            factuality = 1.0 if not any(flags.values()) else 0.1
            annotations.append(FactualityAnnotation(
                summary_id=f"s{i}", source_dataset="cnndm",
                system_id=("sysA", "sysB")[i % 2], factuality=factuality,
                category_flags=flags))
        target = "content_verifiability"
        scores = {a.summary_id: 0.0 if a.category_flags[target] else 1.0
                  for a in annotations}
        report = flip_analysis({"probe": scores}, annotations)
        deltas = {c: reference.flip_delta(report, "probe", "cnndm", c) for c in CATEGORIES}
        assert max(deltas, key=deltas.get) == target

    def test_noise_scorer_has_small_deltas(self):
        annotations = synth_annotations(9, 1000, datasets=("xsum",))
        rng = np.random.default_rng(10)
        scores = {a.summary_id: float(rng.normal()) for a in annotations}
        report = flip_analysis({"noise": scores}, annotations)
        for row in report.rows:
            assert abs(row.delta) < 0.1

    def test_csv_round_trippable_shape(self, tmp_path):
        annotations = synth_annotations(11, 60)
        scores = {a.summary_id: a.factuality for a in annotations}
        report = flip_analysis({"probe": scores}, annotations)
        path = tmp_path / "flips.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        # header + (1 scorer x 2 datasets x 3 categories)
        assert len(lines) == 1 + 6
        assert lines[0] == "scorer,dataset,category,r_original,r_flipped,delta"


def reference_flip_rows(scores_by_scorer, annotations):
    """flip_analysis as it was: one flip_labels call per scorer x dataset x category."""
    rows = []
    for scorer in sorted(scores_by_scorer):
        scores = scores_by_scorer[scorer]
        for dataset in sorted({a.source_dataset for a in annotations}):
            r_original = validate_scorer(scores, annotations, dataset).r
            for category in CATEGORIES:
                flipped = flip_labels(list(annotations), category)
                r_flipped = validate_scorer(scores, flipped, dataset).r
                rows.append(FlipRow(scorer=scorer, dataset=dataset, category=category,
                                    r_original=r_original, r_flipped=r_flipped))
    return rows


def reference_flip_labels(annotations, category):
    """flip_labels as it was: the recomposition rule applied annotation by annotation."""
    flipped = []
    for annotation in annotations:
        flags = dict(annotation.category_flags)
        flags[category] = not flags[category]
        if not any(flags.values()):
            factuality = 1.0
        elif any(annotation.category_flags[c] for c in CATEGORIES if c != category):
            factuality = annotation.factuality
        else:
            factuality = 0.0
        flipped.append(replace(annotation, category_flags=flags, factuality=factuality))
    return flipped


def reference_system_indicators(annotations):
    """_system_indicators as it was: every level scanned for every row."""
    systems = sorted({a.system_id for a in annotations})
    levels = systems[1:]
    z = np.zeros((len(annotations), len(levels)), dtype=np.float64)
    for row, annotation in enumerate(annotations):
        for col, system in enumerate(levels):
            if annotation.system_id == system:
                z[row, col] = 1.0
    return z


def _row_bits(rows):
    return [(r.scorer, r.dataset, r.category, float(r.r_original).hex(),
             float(r.r_flipped).hex()) for r in rows]


class TestFlipAnalysisMatchesReference:
    SYSTEMS = ("sysD", "sysA", "sysC", "sysB")

    def _inputs(self):
        annotations = synth_annotations(21, 600, systems=self.SYSTEMS)
        rng = np.random.default_rng(22)
        scores = {
            "noise": {a.summary_id: float(rng.normal()) for a in annotations},
            "probe": {a.summary_id: 0.0 if a.category_flags["discourse"] else 1.0
                      for a in annotations},
            # 2% of the annotations unscored: excluded pairwise above the floor.
            "partial": {a.summary_id: a.factuality + float(rng.normal(0, 0.1))
                        for i, a in enumerate(annotations) if i % 50},
        }
        return scores, annotations

    def test_rows_bit_equal(self):
        scores, annotations = self._inputs()
        report = flip_analysis(scores, annotations)
        expected = reference_flip_rows(scores, annotations)
        assert report.rows == expected
        assert _row_bits(report.rows) == _row_bits(expected)

    def test_flips_once_per_category(self, monkeypatch):
        scores, annotations = self._inputs()
        calls = []
        rule = validation._flipped_factuality

        def counting_rule(flags, factuality, category):
            calls.append(category)
            return rule(flags, factuality, category)

        monkeypatch.setattr(validation, "_flipped_factuality", counting_rule)
        report = flip_analysis(scores, annotations)
        assert len(report.rows) == 3 * 2 * len(CATEGORIES)
        assert calls == list(CATEGORIES)

    def test_original_and_flipped_r_share_their_rows(self, monkeypatch):
        """Each flipped r of a (scorer, dataset) slice is computed over the x
        and the system indicators of the slice's original r, with each row's
        own judgment after the flip as y."""
        _, annotations = self._inputs()
        # Distinct scores, so that each x value names its annotation; 2% unscored.
        scores = {a.summary_id: float(i) for i, a in enumerate(annotations) if i % 50}
        annotation_by_score = {scores[a.summary_id]: a for a in annotations
                               if a.summary_id in scores}
        scored = list(annotation_by_score.values())
        calls = []
        pearsons = validation.partial_pearsons
        monkeypatch.setattr(validation, "partial_pearsons",
                            lambda x, ys, z: calls.append((x, ys, z)) or pearsons(x, ys, z))
        flip_analysis({"unique": scores}, annotations)
        datasets = sorted({a.source_dataset for a in annotations})
        # One call per slice: its x and system indicators serve every y.
        assert len(calls) == len(datasets)
        for dataset, (x, (y, *flipped), z) in zip(datasets, calls):
            rows = [annotation_by_score[value] for value in x.tolist()]
            assert {a.source_dataset for a in rows} == {dataset}
            assert len(rows) == sum(a.source_dataset == dataset for a in scored)
            assert y.tolist() == [a.factuality for a in rows]
            assert np.array_equal(z, validation._system_indicators(
                np.array([a.system_id for a in rows], dtype=object)))
            assert len(flipped) == len(CATEGORIES)
            for category, y_flipped in zip(CATEGORIES, flipped):
                assert y_flipped.tolist() == \
                    [a.factuality for a in reference_flip_labels(rows, category)]

    def test_flip_labels_shares_the_recomposition_rule(self, monkeypatch):
        _, annotations = self._inputs()
        calls = []
        rule = validation._flipped_factuality
        monkeypatch.setattr(validation, "_flipped_factuality",
                            lambda *args: calls.append(args[2]) or rule(*args))
        for category in CATEGORIES:
            flip_labels(annotations, category)
        assert calls == list(CATEGORIES)

    def test_flip_labels_matches_the_per_annotation_rule(self):
        annotations = synth_annotations(24, 300, flag_rate=0.4)
        for category in CATEGORIES:
            flipped = flip_labels(annotations, category)
            assert flipped == reference_flip_labels(annotations, category)
            assert [a.factuality.hex() for a in flipped] == \
                [a.factuality.hex() for a in reference_flip_labels(annotations, category)]


class TestSystemIndicatorsMatchReference:
    @pytest.mark.parametrize("systems", [("sysA",), ("sysB", "sysA"),
                                         ("s9", "s1", "s5", "s3", "s7")])
    def test_equal_to_double_loop(self, systems):
        annotations = synth_annotations(23, 97, systems=systems)
        z = _system_indicators(np.array([a.system_id for a in annotations], dtype=object))
        expected = reference_system_indicators(annotations)
        assert z.shape == (97, len(systems) - 1)
        assert z.dtype == expected.dtype
        assert np.array_equal(z, expected)

    def test_empty(self):
        assert _system_indicators(np.array([], dtype=object)).shape == \
            reference_system_indicators([]).shape == (0, 0)
