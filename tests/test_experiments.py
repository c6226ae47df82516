from __future__ import annotations

import dataclasses
import itertools
import logging
import math
from collections import Counter

import numpy as np
import pytest

import reference
from factfilter.backend import MockBackend
from factfilter.corpus import load_corpus, toy_corpus_path
from factfilter.errors import ConfigurationError, CoverageError, DomainError, IntegrityError
from factfilter.experiments import (
    DEFAULT_HISTOGRAM_BINS,
    SPOT_CHECK_PAIRS,
    SweepSpec,
    compare_selections,
    distribution_report,
    mock_train_eval_hook,
    run_sweep,
    table_eval_hook,
    write_sweep_csv,
)
from factfilter.metrics import EvalReport
from factfilter.scorers import ScoreTable, score_corpus
from faults import FaultBackend

from conftest import make_corpus, make_pair
from test_filtration import build_table


class TestDistributionReport:
    def test_linear_interpolation_quantiles(self):
        table = build_table("c", {"s1": {str(i): float(i) for i in range(1, 6)},
                                  "s2": {str(i): 0.5 for i in range(1, 6)}})
        summaries = {s.scorer: s for s in distribution_report(table)}
        s1 = summaries["s1"]
        assert (s1.minimum, s1.q1, s1.median, s1.q3, s1.maximum) == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_constant_column_collapses(self):
        table = build_table("c", {"s1": {str(i): 0.7 for i in range(4)}})
        (summary,) = distribution_report(table)
        assert summary.minimum == summary.q1 == summary.median == summary.q3 == \
            summary.maximum == 0.7

    def test_bin_counts_cover_population(self):
        rng = np.random.default_rng(0)
        table = build_table("c", {"s1": {f"p{i}": float(v) for i, v in
                                         enumerate(rng.normal(size=100))}})
        (summary,) = distribution_report(table)
        assert len(summary.bins) == DEFAULT_HISTOGRAM_BINS
        assert sum(count for _, _, count in summary.bins) == 100

    def test_summaries_do_not_depend_on_row_order(self):
        # The median of the last four cells is -0.0 or 0.0, by which zeros land
        # in the middle, unless -0.0 reads as 0.0.
        cells = [("a", -0.0), ("b", 0.0), ("c", -0.0), ("d", 1.0), ("e", None)]
        reports = set()
        for order in itertools.permutations(cells):
            table = ScoreTable("c")
            for pair_id, value in order:
                table.add_row({"pair_id": pair_id, "scorer": "s", "value": value,
                               "backend_name": "m", "backend_version": "1"})
            (summary,) = distribution_report(table)
            reports.add(repr(summary))
        assert len(reports) == 1
        assert "-0.0," not in reports.pop()

    def test_equal_to_the_id_sorted_array(self):
        rng = np.random.default_rng(2)
        values = {f"p{i}": float(v) for i, v in enumerate(rng.normal(size=97))}
        table = build_table("c", {"s1": values})
        (summary,) = distribution_report(table)
        arr = np.asarray([values[pid] for pid in sorted(values)], dtype=np.float64)
        counts, edges = np.histogram(arr, bins=DEFAULT_HISTOGRAM_BINS)
        assert repr([summary.minimum, summary.q1, summary.median, summary.q3,
                     summary.maximum]) == repr(np.quantile(arr, [0, .25, .5, .75, 1]).tolist())
        assert summary.bins == tuple(zip(edges[:-1].tolist(), edges[1:].tolist(),
                                         counts.tolist()))


class TestSweepSpec:
    def test_thresholds_must_be_sorted(self):
        with pytest.raises(DomainError, match="strictly ascending"):
            SweepSpec(thresholds=(0.4, 0.2), strategies=("combined",), seed=0)

    def test_repeated_threshold_rejected(self):
        with pytest.raises(DomainError, match="strictly ascending"):
            SweepSpec(thresholds=(0.2, 0.4, 0.4), strategies=("combined",), seed=0)

    def test_repeated_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="repeat"):
            SweepSpec(thresholds=(0.4,), strategies=("random", "combined", "random"), seed=0)

    def test_thresholds_must_be_fractions(self):
        with pytest.raises(DomainError, match="lie in"):
            SweepSpec(thresholds=(0.0, 0.5), strategies=("combined",), seed=0)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep strategy"):
            SweepSpec(thresholds=(0.25,), strategies=("sorted",), seed=0)

    def test_single_scorer_strategy_accepted(self):
        spec = SweepSpec(thresholds=(0.25,), strategies=("single:greedy",), seed=0)
        assert spec.strategies == ("single:greedy",)


def _sweep_fixture():
    corpus = make_corpus("c", *(
        make_pair(f"p{i:02d}", f"alpha beta gamma word{i} .", f"alpha beta zeta{i}")
        for i in range(12)))
    rng = np.random.default_rng(5)
    ids = [p.id for p in corpus]
    columns = {s: {pid: float(rng.uniform()) for pid in ids}
               for s in ("s1", "s2", "s3")}
    return corpus, build_table("c", columns)


class TestRunSweep:
    def test_combined_ratio_obeys_intersection_bound(self, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(thresholds=(0.25,), strategies=("combined",), seed=0)
        (row,) = run_sweep(corpus, table, spec, mock_train_eval_hook(mock_backend, ["greedy"]))
        assert row.status == "ok"
        assert 1 - 3 * 0.25 <= row.ratio <= math.ceil(0.75 * 12) / 12

    def test_combined_never_larger_than_single(self, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(
            thresholds=(0.25,),
            strategies=("combined", "single:s1", "single:s2", "single:s3"), seed=0)
        rows = {r.strategy: r for r in
                run_sweep(corpus, table, spec, mock_train_eval_hook(mock_backend, ["greedy"]))}
        for name in ("single:s1", "single:s2", "single:s3"):
            assert rows["combined"].ratio <= rows[name].ratio

    def test_ratios_monotone_in_threshold(self, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(thresholds=(0.1, 0.25, 0.4, 0.55),
                         strategies=("combined", "single:s1", "random"), seed=3)
        rows = run_sweep(corpus, table, spec, mock_train_eval_hook(mock_backend, ["greedy"]))
        by_strategy: dict[str, list[float]] = {}
        for row in rows:
            by_strategy.setdefault(row.strategy, []).append(row.ratio)
        for strategy, ratios in by_strategy.items():
            assert ratios == sorted(ratios, reverse=True), strategy

    def test_empty_selection_becomes_failed_row(self, mock_backend):
        corpus = make_corpus("c", *(
            make_pair(p, "alpha beta gamma .", "alpha beta") for p in ("a", "b", "c")))
        table = build_table("c", {
            "s1": {"a": 0.0, "b": 1.0, "c": 2.0},
            "s2": {"a": 2.0, "b": 1.0, "c": 0.0},
            "s3": {"a": 2.0, "b": 0.0, "c": 1.0},
        })
        spec = SweepSpec(thresholds=(0.6,), strategies=("combined", "single:s1"), seed=0)
        rows = {r.strategy: r for r in
                run_sweep(corpus, table, spec, mock_train_eval_hook(mock_backend, ["greedy"]))}
        assert rows["combined"].status == "failed"
        assert rows["combined"].n_selected == 0
        assert rows["single:s1"].status == "ok"

    def test_reproducible_for_seed(self, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(thresholds=(0.25, 0.4), strategies=("random",), seed=11)
        hook = mock_train_eval_hook(mock_backend, ["greedy"])
        assert run_sweep(corpus, table, spec, hook) == run_sweep(corpus, table, spec, hook)

    def test_rows_ordered_by_strategy_then_threshold(self, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(thresholds=(0.1, 0.25), strategies=("random", "combined"), seed=0)
        rows = run_sweep(corpus, table, spec, mock_train_eval_hook(mock_backend, ["greedy"]))
        keys = [(r.strategy, r.threshold) for r in rows]
        assert keys == sorted(keys)

    def test_csv_shape(self, tmp_path, mock_backend):
        corpus, table = _sweep_fixture()
        spec = SweepSpec(thresholds=(0.25,), strategies=("combined", "random"), seed=0)
        rows = run_sweep(corpus, table, spec,
                         mock_train_eval_hook(mock_backend, ["greedy", "blanc"]))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "strategy,threshold,n_selected,ratio,status,blanc,greedy,note"
        assert len(lines) == 3


class TestMockTrainHook:
    def test_unknown_metric_rejected(self, mock_backend):
        with pytest.raises(ConfigurationError):
            mock_train_eval_hook(mock_backend, ["rouge2"])


HOOK_METRICS = ("greedy", "condll", "dae", "blanc")
FOUR_THRESHOLDS = SweepSpec(thresholds=(0.1, 0.25, 0.4, 0.55),
                            strategies=("combined", "random", "single:s1"), seed=3)


def _memo_fixture():
    """30 pairs; every fifth summary is one token, so dae fails on it."""
    words = ["storm", "harbor", "mayor", "bridge", "festival", "comet", "river", "town"]
    pairs = []
    for i in range(30):
        document = " ".join(words[(i + k) % len(words)] for k in range(6)) + f" w{i} ."
        summary = words[i % len(words)] if i % 5 == 0 else \
            f"{words[i % len(words)]} {words[(i + 3) % len(words)]} w{i}"
        pairs.append(make_pair(f"p{i:02d}", document, summary))
    corpus = make_corpus("c", *pairs)
    rng = np.random.default_rng(11)
    columns = {s: {p.id: float(rng.uniform()) for p in corpus} for s in ("s1", "s2", "s3")}
    return corpus, build_table("c", columns)


def _oracle_calls(pairs, metrics=HOOK_METRICS) -> Counter:
    """The single ops the oracle asks computing each (metric, pair) in `pairs`
    once, one pair at a time, each pair prepared once for its scorer metrics."""
    oracle = FaultBackend()
    for pair in pairs:
        reference.outcomes(pair.document, pair.summary, metrics, oracle)
    return Counter(oracle.calls)


def _recording_sweep(corpus, table, backend):
    hook = mock_train_eval_hook(backend, HOOK_METRICS)
    selections = []

    def recording(selection):
        selections.append(selection)
        return hook(selection)

    rows = run_sweep(corpus, table, FOUR_THRESHOLDS, recording)
    return rows, selections


class TestHookMemo:
    def test_each_metric_pair_is_computed_once_across_the_sweep(self):
        corpus, table = _memo_fixture()
        backend = FaultBackend()
        rows, selections = _recording_sweep(corpus, table, backend)
        assert len(rows) == 12 and len(selections) >= 9
        union = {pair.id: pair for selection in selections for pair in selection}
        assert sum(map(len, selections)) > len(union)  # the cells share pairs
        assert Counter(backend.calls) == _oracle_calls(union.values())

    def test_non_deterministic_backend_recomputes_in_every_cell(self):
        corpus, table = _memo_fixture()
        backend = FaultBackend(deterministic=False)
        _, selections = _recording_sweep(corpus, table, backend)
        assert Counter(backend.calls) == sum(map(_oracle_calls, selections), Counter())

    def test_sweep_csv_matches_a_fresh_hook_per_cell(self, tmp_path, mock_backend):
        corpus, table = _memo_fixture()
        memoised = run_sweep(corpus, table, FOUR_THRESHOLDS,
                             mock_train_eval_hook(mock_backend, HOOK_METRICS))
        fresh = run_sweep(corpus, table, FOUR_THRESHOLDS, lambda selection:
                          reference.hook(selection, HOOK_METRICS, MockBackend())[0])
        write_sweep_csv(memoised, tmp_path / "memoised.csv")
        write_sweep_csv(fresh, tmp_path / "fresh.csv")
        assert (tmp_path / "memoised.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        assert {row.status for row in memoised} == {"ok"}

    def test_memoised_failure_stays_excluded_and_is_logged_once(self, caplog):
        corpus = make_corpus(
            "c",
            make_pair("a", "storm flooded harbor town .", "storm harbor"),
            make_pair("b", "mayor opened bridge festival .", "mayor"))
        backend = FaultBackend()
        hook = mock_train_eval_hook(backend, ["dae"])
        only_a, _ = reference.hook(corpus.subset(["a"]), ["dae"], MockBackend())
        with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
            assert hook(corpus) == only_a
            calls = len(backend.calls)
            assert hook(corpus) == only_a
            assert hook(corpus.subset(["b"])) == {}
        assert len(backend.calls) == calls
        excluded = [r for r in caplog.records if "excluded from the dae mean" in r.message]
        assert len(excluded) == 1 and "pair b" in excluded[0].message

    def test_other_errors_propagate_on_every_call(self):
        corpus = make_corpus(
            "c",
            make_pair("a", "storm flooded harbor town .", "storm harbor"),
            make_pair("b", "mayor opened bridge festival .", "mayor FATAL bridge"))
        backend = FaultBackend()
        hook = mock_train_eval_hook(backend, ["dae"])
        for _ in range(2):
            calls = len(backend.calls)
            with pytest.raises(RuntimeError, match="fatal on 'mayor FATAL bridge'"):
                hook(corpus)
            assert len(backend.calls) > calls
            assert backend.calls[-1][0] == "parse_dependencies"

    def test_shared_ids_with_other_text_get_their_own_values(self):
        first = make_corpus(
            "c",
            make_pair("a", "storm flooded harbor town .", "storm harbor"),
            make_pair("b", "mayor opened bridge festival .", "mayor bridge"))
        second = make_corpus(
            "c",
            make_pair("a", "storm flooded harbor town .", "comet harbor"),
            make_pair("b", "mayor opened bridge festival .", "river town"))
        hook = mock_train_eval_hook(FaultBackend(), HOOK_METRICS)
        for corpus in (first, second, first):
            assert hook(corpus) == reference.hook(corpus, HOOK_METRICS, MockBackend())[0]
        assert hook(first) != hook(second)


class DriftingMock(MockBackend):
    """A non-deterministic mock: each log-prob answer is lower than the last."""

    def __init__(self):
        super().__init__()
        self._descriptor = dataclasses.replace(self._descriptor, deterministic=False)
        self.asked = 0

    def conditional_token_logprobs(self, source, target):
        self.asked += 1
        return [-float(self.asked)] * len(target.split())


class TestChunkedHook:
    """The hook scores the pairs it still needs in chunks, asking the backend
    for the oracle's single ops (the outcomes themselves are `test_oracle.py`'s)."""

    def test_two_tokenize_calls_per_distinct_pair_and_the_reference_ops(self):
        toy = load_corpus(toy_corpus_path(), name="toy")
        twin = dataclasses.replace(toy.pairs[0], id="twin")  # same text, other id
        first = make_corpus("toy", *toy.pairs[:30], twin)
        second = make_corpus("toy", *toy.pairs[20:])
        distinct = {(p.document, p.summary): p for s in (first, second) for p in s}
        for metrics in (("greedy", "condll", "dae"), HOOK_METRICS):
            chunked = FaultBackend()
            hook = mock_train_eval_hook(chunked, metrics)
            for selection in (first, second, first):
                hook(selection)
            if len(metrics) == 3:
                assert sum(call[0] == "tokenize" for call in chunked.calls) == 2 * len(distinct)
            assert Counter(chunked.calls) == _oracle_calls(distinct.values(), metrics)

    def test_non_deterministic_backend_is_asked_on_every_call(self):
        corpus, _ = _memo_fixture()
        backend = DriftingMock()
        hook = mock_train_eval_hook(backend, ["condll"])
        means = [hook(corpus)["condll"] for _ in range(3)]
        assert backend.asked == 3 * len(corpus)
        assert means[0] > means[1] > means[2]


SCORER_METRICS = ("greedy", "condll", "dae")
FOUR_SWEEP = dataclasses.replace(FOUR_THRESHOLDS, strategies=("combined", "random", "single:dae"))


def _scored_table(corpus, backend_version=None, drop=None) -> ScoreTable:
    """`corpus` scored by a `FaultBackend`, as a scores file holds it; every
    cell under `backend_version` if given, and none for the pair `drop`."""
    table = ScoreTable(corpus.name)
    for cell in score_corpus(corpus, SCORER_METRICS, FaultBackend()):
        if cell.pair_id != drop:
            table.add(dataclasses.replace(
                cell, backend_version=backend_version or cell.backend_version))
    return table


def _edited(table: ScoreTable, scorer: str, pair_id: str, cell) -> ScoreTable:
    """`table` with the cell of (`pair_id`, `scorer`) replaced by `cell`, a
    value or a failure reason."""
    edited = ScoreTable(table.corpus_name)
    for name, provenance in table.backend_descriptors().items():
        for pid, value in table.column(name).items():
            value = cell if (name, pid) == (scorer, pair_id) else value
            edited.add_row({"pair_id": pid, "scorer": name,
                            "backend_name": provenance["name"],
                            "backend_version": provenance["version"],
                            **({"error": value} if isinstance(value, str) else {"value": value})})
    return edited


def _two_pairs():
    """Pair b's one-token summary has no dependency arcs, so dae fails on it."""
    return make_corpus("c", make_pair("a", "storm flooded harbor town .", "storm harbor"),
                       make_pair("b", "mayor opened bridge festival .", "mayor"))


def _spot_checked(corpus) -> list:
    n = min(SPOT_CHECK_PAIRS, len(corpus))
    return [corpus.pairs[(2 * k + 1) * len(corpus) // (2 * n)] for k in range(n)]


class TestTableHook:
    """`table_eval_hook` takes a scorer metric from the table only when the
    column can stand in for the backend, and is `mock_train_eval_hook` otherwise."""

    def test_reused_columns_leave_only_blanc_to_the_backend(self):
        corpus, _ = _memo_fixture()
        table = _scored_table(corpus)
        backend = FaultBackend()
        hook = table_eval_hook(corpus, table, backend)
        spot_check = Counter(backend.calls)
        assert spot_check == _oracle_calls(_spot_checked(corpus), SCORER_METRICS)
        rows = run_sweep(corpus, table, FOUR_SWEEP, hook)
        assert rows == run_sweep(corpus, table, FOUR_SWEEP,
                                 mock_train_eval_hook(FaultBackend(), HOOK_METRICS))
        blanc_only = FaultBackend()
        run_sweep(corpus, table, FOUR_SWEEP, mock_train_eval_hook(blanc_only, ["blanc"]))
        assert Counter(backend.calls) - spot_check == Counter(blanc_only.calls)

    @pytest.mark.parametrize("deterministic, table", [
        (False, {}), (True, {"backend_version": "other"}), (True, {"drop": "p07"}),
    ], ids=["non-deterministic", "other-provenance", "missing-pair"])
    def test_no_reuse_outside_the_conditions(self, deterministic, table):
        corpus, _ = _memo_fixture()
        table = _scored_table(corpus, **table)
        backend = FaultBackend(deterministic=deterministic)
        rows = run_sweep(corpus, table, FOUR_SWEEP, table_eval_hook(corpus, table, backend))
        plain = FaultBackend(deterministic=deterministic)
        assert rows == run_sweep(corpus, table, FOUR_SWEEP,
                                 mock_train_eval_hook(plain, HOOK_METRICS))
        assert Counter(backend.calls) == Counter(plain.calls)

    def test_reused_sentinel_is_excluded_and_logged_once(self, caplog):
        corpus = _two_pairs()
        table = _scored_table(corpus)
        assert table.column("dae")["b"].startswith("NoArcsError")
        backend = FaultBackend()
        hook = table_eval_hook(corpus, table, backend)
        only_a, _ = reference.hook(corpus.subset(["a"]), ["dae"], MockBackend())
        with caplog.at_level(logging.DEBUG, logger="factfilter.experiments"):
            assert hook(corpus)["dae"] == hook(corpus)["dae"] == only_a["dae"]
            assert "dae" not in hook(corpus.subset(["b"]))
        # The spot check scores both pairs; after it the backend sees BLANC only.
        assert Counter(backend.calls) == (_oracle_calls(corpus, SCORER_METRICS)
                                          + _oracle_calls(corpus, ["blanc"]))
        excluded = [r for r in caplog.records if "excluded from the dae mean" in r.message]
        assert len(excluded) == 1 and "pair b" in excluded[0].message

    @pytest.mark.parametrize("build, scorer, edit", [
        (lambda: _memo_fixture()[0], "condll", lambda value: float(np.nextafter(value, 0.0))),
        (lambda: _memo_fixture()[0], "condll", lambda value: "BackendError: edited"),
        (_two_pairs, "dae", lambda reason: "NoArcsError: edited"),
    ], ids=["one-ulp", "value-to-sentinel", "other-reason"])
    def test_an_edited_spot_checked_cell_is_an_integrity_error(self, build, scorer, edit):
        corpus = build()
        table = _scored_table(corpus)
        table_eval_hook(corpus, table, FaultBackend())  # the unedited table passes
        checked = _spot_checked(corpus)[-1].id
        edited = _edited(table, scorer, checked, edit(table.column(scorer)[checked]))
        with pytest.raises(IntegrityError, match=f"pair {checked!r} scores {scorer}"):
            table_eval_hook(corpus, edited, FaultBackend())


def _report(name: str, values: dict[str, dict[str, float]]) -> EvalReport:
    report = EvalReport(name, list(values))
    for metric, per_pair in values.items():
        for pid, value in per_pair.items():
            report.add(metric, pid, value)
    return report


class TestCompareSelections:
    def test_identical_reports_tie_with_note(self):
        values = {"m": {f"p{i}": float(i) for i in range(10)}}
        (row,) = compare_selections(_report("a", values), _report("b", values)).rows
        assert row.winner == "tie"
        assert row.wilcoxon is None
        assert "identical" in row.note

    def test_constant_uplift_wins_significantly(self):
        rng = np.random.default_rng(13)
        base = {f"p{i:02d}": float(rng.uniform()) for i in range(30)}
        lifted = {pid: value + 0.1 for pid, value in base.items()}
        (row,) = compare_selections(_report("a", {"m": base}),
                                    _report("b", {"m": lifted})).rows
        assert row.winner == "b"
        assert row.wilcoxon is not None and row.wilcoxon.p_value < 0.05

    def test_metric_mismatch_is_coverage_error(self):
        a = _report("a", {"m": {"p": 1.0}})
        b = _report("b", {"other": {"p": 1.0}})
        with pytest.raises(CoverageError):
            compare_selections(a, b)

    def test_pair_id_mismatch_is_coverage_error(self):
        a = _report("a", {"m": {"p1": 1.0, "p2": 2.0, "p3": 3.0}})
        b = _report("b", {"m": {"p1": 1.0, "p2": 2.0, "px": 3.0}})
        with pytest.raises(CoverageError):
            compare_selections(a, b)

    def test_swapped_arguments_swap_winners_same_p(self):
        rng = np.random.default_rng(14)
        base = {f"p{i:02d}": float(rng.uniform()) for i in range(25)}
        lifted = {pid: value + 0.2 for pid, value in base.items()}
        (fwd,) = compare_selections(_report("a", {"m": base}), _report("b", {"m": lifted})).rows
        (rev,) = compare_selections(_report("a", {"m": lifted}), _report("b", {"m": base})).rows
        assert fwd.wilcoxon.p_value == rev.wilcoxon.p_value
        assert fwd.winner == "b" and rev.winner == "a"

    def test_insignificant_difference_is_tie(self):
        rng = np.random.default_rng(15)
        base = {f"p{i:02d}": float(rng.uniform()) for i in range(20)}
        jittered = {pid: value + float(rng.normal(scale=1e-3))
                    for pid, value in base.items()}
        (row,) = compare_selections(_report("a", {"m": base}),
                                    _report("b", {"m": jittered})).rows
        assert (row.winner == "tie") == (row.wilcoxon.p_value >= 0.05)

    def test_csv_output(self, tmp_path):
        values = {"m": {f"p{i}": float(i) for i in range(5)}}
        lifted = {"m": {pid: v + 1 for pid, v in values["m"].items()}}
        comparison = compare_selections(_report("a", values), _report("b", lifted))
        path = tmp_path / "cmp.csv"
        comparison.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,mean_a,mean_b,n,w_statistic,p_value,winner,note"
        assert len(lines) == 2
