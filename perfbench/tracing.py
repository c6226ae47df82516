"""Tracing shim for the traced benchmark run; nothing in the toolkit changes.

Spans are recorded only at boundaries this file owns:

* a delegating `TimingBackend`, registered through the public
  `register_backend` as `traced-mock` and `traced-remote`, so the CLI's own
  `--backend` flag selects it;
* wrappers installed over the toolkit's module functions (every module-level
  name bound to the function is replaced, and restored afterwards), so calls
  between modules pass through a span too;
* the benchmark's own call into `factfilter.cli.main`.

A span has a name, a start, an end and its parent; self time is the span's
duration minus the time its direct children cover. Spans stay in memory and
are reduced to per-layer metrics when the pass ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Sequence

CLK_TCK = os.sysconf("SC_CLK_TCK")
BACKEND_OPS = ("tokenize", "embed_tokens", "conditional_token_logprobs",
               "arc_entailment_probs", "masked_fill_accuracy", "parse_dependencies")
COMMANDS = ("score", "filter", "stats", "evaluate", "compare", "sweep",
            "validate-frank", "flip-analysis")

# Span name -> reported suffixes: "calls" counts spans, "s" sums their
# durations, "self_s" sums durations minus direct children. Counters and
# ratios below are named in full.
SPAN_METRICS = {
    **{f"backend.{op}": ("calls", "s") for op in BACKEND_OPS},
    "scorers.greedy": ("self_s",), "scorers.condll": ("self_s",),
    "scorers.dae": ("self_s",), "scorers.write_scores": ("s",),
    "scorers.load_scores": ("s",),
    "corpus.load_corpus": ("calls", "s"), "corpus.subset": ("calls", "s"),
    "corpus.corpus_stats": ("s",),
    "filtration.intersect_filter": ("calls", "s"),
    "filtration.percentile_keep_set": ("calls", "s"),
    "filtration.random_selection": ("s",), "filtration.apply_manifest": ("s",),
    "metrics.rouge2": ("calls", "s"), "metrics.blanc_help": ("calls", "self_s"),
    "metrics.evaluate_outputs": ("self_s",), "metrics.report_io": ("s",),
    "stats.wilcoxon_signed_rank": ("calls", "s"), "stats.partial_pearson": ("calls", "s"),
    "validation.load_annotations": ("s",), "validation.validate_scorer": ("calls", "s"),
    "validation.flip_labels": ("calls", "s"),
    "experiments.run_sweep": ("self_s",), "experiments.eval_hook": ("calls", "s"),
    "experiments.distribution_report": ("s",),
    "experiments.compare_selections": ("self_s",),
    **{f"cli.{command}": ("self_s",) for command in COMMANDS},
}
COUNTERS = (
    "backend.tokenize.tokens", "backend.embed_tokens.tokens",
    "remote.spawn_s", "remote.requests", "remote.client_wait_s", "remote.server_cpu_s",
    "remote.bytes_to_server", "remote.bytes_from_server",
    "scorers.cells", "scorers.failed_cells", "scorers.truncated_cells",
    "scorers.load_scores.rows", "metrics.failed_values", "experiments.hook_values",
)
RATIOS = ("backend.embed_tokens.distinct_share", "stats.wilcoxon.exact_share",
          "experiments.hook_recompute_share", "proc.cpu_share")


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{span}.{kind}": "count" if kind == "calls" else "s"
             for span, kinds in SPAN_METRICS.items() for kind in kinds}
    for name in COUNTERS:
        units[name] = "s" if name.endswith("_s") else \
            "bytes" if ".bytes_" in name else "count"
    units.update({name: "ratio" for name in RATIOS})
    units.update({"proc.cpu_s": "s", "trace.overhead_s": "s"})
    return units


class Tracer:
    """In-memory spans with parent links, plus counters, for one pass."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.embedded: set[str] = set()
        self.hook_seen: set[tuple[str, str]] = set()
        self.hook_repeats = 0
        self.wilcoxon_exact = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def add(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def layer_metrics(self) -> dict[str, float]:
        """Reduce the pass's spans and counters to the per-layer metric table."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[index]
        metrics: dict[str, float] = {}
        for span, kinds in SPAN_METRICS.items():
            values = {"calls": calls[span], "s": total[span], "self_s": own[span]}
            for kind in kinds:
                metrics[f"{span}.{kind}"] = values[kind]
        for name in COUNTERS:
            metrics[name] = self.counts[name]
        embedded = self.counts["backend.embed_tokens.tokens"]
        metrics["backend.embed_tokens.distinct_share"] = \
            len(self.embedded) / embedded if embedded else 0.0
        tests = calls["stats.wilcoxon_signed_rank"]
        metrics["stats.wilcoxon.exact_share"] = self.wilcoxon_exact / tests if tests else 0.0
        values = self.counts["experiments.hook_values"]
        metrics["experiments.hook_recompute_share"] = \
            self.hook_repeats / values if values else 0.0
        return metrics


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        parent = tracer._stack[-1] if tracer._stack else None
        self.index = len(tracer.spans)
        tracer.spans.append([self.name, time.perf_counter(), 0.0, parent])
        tracer._stack.append(self.index)
        return self

    def __exit__(self, *exc_info) -> None:
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer._stack.pop()


# ------------------------------------------------------------ backend shim


def _child_pids() -> set[int]:
    """Live children of this process, read from /proc (no link to the toolkit)."""
    me = os.getpid()
    pids = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            pids.add(int(entry))
    return pids


def _proc_counters(pid: int) -> tuple[int, int, float]:
    """(bytes read, bytes written, cpu seconds) of a process, from /proc."""
    io = dict(line.split(": ") for line in
              Path(f"/proc/{pid}/io").read_text().splitlines())
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat[stat.rindex(")") + 2:].split()
    cpu = (int(fields[11]) + int(fields[12])) / CLK_TCK  # utime + stime
    return int(io["rchar"]), int(io["wchar"]), cpu


def make_timing_backend(base: type) -> type:
    """Subclass of the toolkit's Backend ABC that times and counts every op."""

    class TimingBackend(base):
        def __init__(self, inner, tracer: Tracer, server_pid: int | None = None):
            self._inner = inner
            self._tracer = tracer
            self._server_pid = server_pid
            self._server_start = _proc_counters(server_pid) if server_pid else None

        @property
        def descriptor(self):
            return self._inner.descriptor

        def _call(self, op: str, *args):
            tracer = self._tracer
            start = time.perf_counter()
            with tracer.span(f"backend.{op}"):
                result = getattr(self._inner, op)(*args)
            if self._server_pid is not None:
                tracer.add("remote.requests")
                tracer.add("remote.client_wait_s", time.perf_counter() - start)
            return result

        def tokenize(self, text):
            tokens = self._call("tokenize", text)
            self._tracer.add("backend.tokenize.tokens", len(tokens))
            return tokens

        def embed_tokens(self, text):
            embeddings = self._call("embed_tokens", text)
            self._tracer.add("backend.embed_tokens.tokens", len(embeddings.tokens))
            self._tracer.embedded.update(embeddings.tokens)
            return embeddings

        def conditional_token_logprobs(self, source, target):
            return self._call("conditional_token_logprobs", source, target)

        def arc_entailment_probs(self, document, arcs):
            return self._call("arc_entailment_probs", document, arcs)

        def masked_fill_accuracy(self, prefix, sentence, mask_positions):
            return self._call("masked_fill_accuracy", prefix, sentence, mask_positions)

        def parse_dependencies(self, summary):
            return self._call("parse_dependencies", summary)

        def close(self) -> None:
            if self._server_pid is not None:
                read, written, cpu = _proc_counters(self._server_pid)
                read0, written0, cpu0 = self._server_start
                self._tracer.add("remote.bytes_to_server", read - read0)
                self._tracer.add("remote.bytes_from_server", written - written0)
                self._tracer.add("remote.server_cpu_s", cpu - cpu0)
            close = getattr(self._inner, "close", None)
            if callable(close):
                close()

    return TimingBackend


class Shim:
    """Holds the tracer of the current pass and installs / removes wrappers."""

    def __init__(self, remote_command: Sequence[str]):
        from factfilter.backend import Backend, MockBackend, register_backend
        from factfilter.remote import RemoteBackend

        self.tracer = Tracer()
        self._undo: list[tuple[Any, str, Any]] = []
        timing = make_timing_backend(Backend)

        def traced_mock():
            return timing(MockBackend(), self.tracer)

        def traced_remote():
            before = _child_pids()
            start = time.perf_counter()
            inner = RemoteBackend(list(remote_command))  # spawns, then handshakes
            self.tracer.add("remote.spawn_s", time.perf_counter() - start)
            self.tracer.add("remote.requests")  # the descriptor handshake
            (pid,) = _child_pids() - before
            return timing(inner, self.tracer, server_pid=pid)

        register_backend("traced-mock", traced_mock, replace=True)
        register_backend("traced-remote", traced_remote, replace=True)

    # -------------------------------------------------------- patching

    def _set(self, owner: Any, name: str, value: Any) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = value
        else:
            self._undo.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

    def _replace_everywhere(self, function: Callable, wrapper: Callable) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("factfilter"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._set(module, name, wrapper)

    def _span_wrapper(self, function: Callable, span: str,
                      after: Callable[[Any], None] | None = None) -> Callable:
        tracer = self.tracer

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(span):
                result = function(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        return wrapper

    def install(self) -> None:
        """Start a fresh tracer and wrap the toolkit's functions for one pass."""
        import factfilter.corpus as corpus
        import factfilter.experiments as experiments
        import factfilter.filtration as filtration
        import factfilter.metrics as metrics
        import factfilter.scorers as scorers
        import factfilter.stats as stats
        import factfilter.validation as validation

        tracer = self.tracer = Tracer()
        plain = {
            corpus.load_corpus: "corpus.load_corpus",
            corpus.corpus_stats: "corpus.corpus_stats",
            filtration.intersect_filter: "filtration.intersect_filter",
            filtration.percentile_keep_set: "filtration.percentile_keep_set",
            filtration.random_selection: "filtration.random_selection",
            filtration.apply_manifest: "filtration.apply_manifest",
            metrics.rouge2: "metrics.rouge2",
            metrics.blanc_help: "metrics.blanc_help",
            stats.partial_pearson: "stats.partial_pearson",
            validation.load_annotations: "validation.load_annotations",
            validation.validate_scorer: "validation.validate_scorer",
            validation.flip_labels: "validation.flip_labels",
            experiments.run_sweep: "experiments.run_sweep",
            experiments.distribution_report: "experiments.distribution_report",
            experiments.compare_selections: "experiments.compare_selections",
            scorers.write_scores: "scorers.write_scores",
        }
        for function, span in plain.items():
            self._replace_everywhere(function, self._span_wrapper(function, span))

        def count_loaded(table):
            tracer.add("scorers.load_scores.rows",
                       sum(len(table.column(s)) for s in table.scorers))

        def count_cells(cells):
            tracer.add("scorers.cells", len(cells))
            for cell in cells:
                if isinstance(cell, scorers.ScoreFailure):
                    tracer.add("scorers.failed_cells")
                elif cell.truncated:
                    tracer.add("scorers.truncated_cells")

        def count_failures(report):
            tracer.add("metrics.failed_values", sum(map(len, report.failures.values())))

        def count_method(result):
            if result.method == "exact":
                tracer.wilcoxon_exact += 1

        for function, span, after in (
                (scorers.load_scores, "scorers.load_scores", count_loaded),
                (scorers.score_corpus, "scorers.score_corpus", count_cells),
                (metrics.evaluate_outputs, "metrics.evaluate_outputs", count_failures),
                (stats.wilcoxon_signed_rank, "stats.wilcoxon_signed_rank", count_method)):
            self._replace_everywhere(function, self._span_wrapper(function, span, after))

        hook_factory = experiments.mock_train_eval_hook
        default_metrics = inspect.signature(hook_factory).parameters["metrics"].default

        @functools.wraps(hook_factory)
        def traced_hook_factory(backend, metrics=default_metrics):
            hook = hook_factory(backend, metrics)

            def traced_hook(selection):
                for pair in selection:
                    for metric in metrics:
                        key = (pair.id, metric)
                        if key in tracer.hook_seen:
                            tracer.hook_repeats += 1
                        tracer.hook_seen.add(key)
                tracer.add("experiments.hook_values", len(selection) * len(metrics))
                with tracer.span("experiments.eval_hook"):
                    return hook(selection)

            return traced_hook

        self._replace_everywhere(hook_factory, traced_hook_factory)

        for name, function in list(scorers.SCORERS.items()):
            self._set(scorers.SCORERS, name, self._span_wrapper(function, f"scorers.{name}"))
        self._set(corpus.Corpus, "subset",
                  self._span_wrapper(corpus.Corpus.subset, "corpus.subset"))
        self._set(metrics.EvalReport, "to_csv",
                  self._span_wrapper(metrics.EvalReport.to_csv, "metrics.report_io"))
        from_csv = metrics.EvalReport.__dict__["from_csv"].__func__
        self._set(metrics.EvalReport, "from_csv",
                  classmethod(self._span_wrapper(from_csv, "metrics.report_io")))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = value
            else:
                setattr(owner, name, value)

    def call(self, main: Callable[[list[str]], int], argv: list[str]) -> int:
        with self.tracer.span(f"cli.{argv[0]}"):
            return main(argv)
