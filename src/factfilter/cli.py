"""Command-line pipeline: ingest, score, filter, stats, validate, sweep, evaluate, compare.

One subcommand per pipeline stage (scoring is hours-long with real backends
and must be separately resumable). Progress goes to stderr; data goes only to
the declared output files. Every flag is parsed and checked before the
command runs; a run whose flags parse writes a config echo next to its
primary output before it reads any input. Exit codes: 0 success, 1
usage/configuration, 2 data/integrity, 3 backend failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import shlex
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .backend import Backend, create_backend, load_extra_backends, registered_backend
from .corpus import SPLITS, Corpus, corpus_stats, load_corpus, save_corpus
from .errors import (
    BackendError,
    ConfigurationError,
    CoverageError,
    DegenerateInputError,
    DomainError,
    FactFilterError,
    IntegrityError,
    ParseError,
    ScoringError,
    TransportError,
)
from .experiments import (
    SweepSpec,
    compare_selections,
    distribution_report,
    run_sweep,
    table_eval_hook,
    write_distribution_csv,
    write_sweep_csv,
)
from .filtration import FilterManifest, apply_manifest, intersect_filter
from .metrics import ALL_METRICS, EvalReport, evaluate_outputs
from .records import JSON_STRINGS, json_fields, read_jsonl, write_csv
from .scorers import SCORERS, load_scores, score_corpus_to_file
from .validation import flip_analysis, load_annotations, validate_slices

logger = logging.getLogger("factfilter")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme.

    A subcommand's parser reads its `--config` run file first and parses that
    file's flags ahead of the command line's own, so those win.
    """

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")

    def parse_known_args(self, args=None, namespace=None):  # type: ignore[override]
        # The subcommand action calls this with the arguments after the command name.
        if args is not None and self.get_default("func") is not None:
            args = [*self._config_flags(args), *args]
        return super().parse_known_args(args, namespace)

    def _config_flags(self, args: Sequence[str]) -> list[str]:
        """One `--flag=value` per key of the JSON object named by `--config`.

        Keys are flag destinations (`in_path` for `--in`); `command` and null
        values are skipped. The flag's own type then checks each value.
        """
        finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
        finder.add_argument("--config")
        try:
            path = finder.parse_known_args(args)[0].config
        except argparse.ArgumentError:  # the full parse reports it
            return []
        if path is None:
            return []
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # not UTF-8, not JSON
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(obj, dict):
            raise ConfigurationError(f"config {path} must be a JSON object")
        actions = {action.dest: action for action in self._actions
                   if action.option_strings and action.dest not in ("help", "config")}
        flags = []
        for key, value in obj.items():
            if key == "command" or value is None:
                continue
            action = actions.get(key)
            if action is None:
                raise ConfigurationError(f"config key {key!r} unknown for this command")
            if type(value) is not str and not (type(value) in (int, float)
                                               and action.type in (int, float)):
                raise ConfigurationError(f"config key {key!r} must be a string, or a number "
                                         f"for a numeric flag; got {value!r}")
            flags.append(f"{action.option_strings[0]}={value}")
        return flags


def _write_config_echo(out_path: str | Path, args: argparse.Namespace) -> None:
    """Every flag value the run used, as a `--config` file that reruns it; a
    parsed comma list goes back to its comma-joined text."""
    echo = {key: ",".join(map(str, value)) if isinstance(value, list) else value
            for key, value in vars(args).items() if key not in ("func", "config")}
    path = Path(str(out_path) + ".config.json")
    path.write_text(json.dumps(echo, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _make_backend(args: argparse.Namespace) -> Backend:
    if args.backend == "remote":
        return create_backend("remote", command=shlex.split(args.remote_command))
    return create_backend(args.backend)


def _comma_list(flag: str, kind: Callable[[str], Any] = str,
                known: Sequence[str] | None = None,
                distinct: bool = True) -> Callable[[str], list]:
    """The `type=` of a comma-list flag: its non-empty items, each converted by
    `kind`, none repeated when `distinct` and, when `known` is given, each one
    of those names."""
    def parse(value: str) -> list:
        try:
            items = [kind(item.strip()) for item in value.split(",") if item.strip()]
        except ValueError as exc:
            raise ConfigurationError(f"{flag}: {exc}") from None
        if not items:
            raise ConfigurationError(f"{flag} needs at least one comma-separated item")
        if distinct and len(set(items)) != len(items):
            raise ConfigurationError(f"{flag} repeats an item: {items}")
        if known is not None and (unknown := [item for item in items if item not in known]):
            raise ConfigurationError(f"unknown {flag[2:]} {unknown}; available: {list(known)}")
        return items

    return parse


def _load_generated(path: str | Path) -> dict[str, str]:
    generated: dict[str, str] = {}

    def consume(row: dict[str, Any]) -> None:
        pair_id, summary = json_fields(row, ("id", "summary"), JSON_STRINGS)
        if pair_id in generated:
            raise IntegrityError(f"duplicate generated summary for id {pair_id!r}")
        generated[pair_id] = summary

    read_jsonl(path, consume)
    return generated


# ---------------------------------------------------------------- commands


def _cmd_ingest(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.in_path)
    save_corpus(corpus, args.out)
    logger.info("ingested %d pairs into %s", len(corpus), args.out)


def _cmd_score(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.in_path)
    with _make_backend(args) as backend:
        added = score_corpus_to_file(corpus, args.scorers, backend, args.out)
    logger.info("wrote %d new score rows to %s", added, args.out)


def _cmd_filter(args: argparse.Namespace) -> None:
    table = load_scores(args.scores, args.corpus_name or Path(args.scores).stem)
    manifest = intersect_filter(table, args.q, scorers=args.scorers or table.scorers)
    manifest.save(args.out)
    logger.info("kept %d / %d pairs (ratio %.4f); manifest %s",
                len(manifest.kept_ids), manifest.n_pairs,
                manifest.selection_ratio, manifest.content_hash())


def _stats_row(label: str, corpus: Corpus, ratio: float | None) -> list:
    stats = corpus_stats(corpus)
    return [label, corpus.name, stats.n_pairs,
            *(stats.per_split_counts.get(split, 0) for split in SPLITS),
            stats.mean_doc_words, stats.mean_sum_words, ratio]


def _cmd_stats(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    rows = [_stats_row("full", corpus, None)]
    if args.manifest:
        manifest = FilterManifest.load(args.manifest)
        rows.append(_stats_row("selection", apply_manifest(corpus, manifest),
                               manifest.selection_ratio))
    summaries = None
    if args.scores:  # every input is read and checked before either CSV is written
        table = load_scores(args.scores, corpus.name)
        table.ensure_complete(corpus.ids())
        summaries = distribution_report(table)
    write_csv(args.out, ["record", "corpus", "n_pairs", "n_train", "n_validation", "n_test",
                         "mean_doc_words", "mean_sum_words", "selection_ratio"], rows)
    logger.info("wrote corpus stats to %s", args.out)
    if summaries is not None:
        dist_path = Path(args.out).with_name(Path(args.out).stem + "_distributions.csv")
        write_distribution_csv(summaries, dist_path)
        logger.info("wrote score distributions to %s", dist_path)


def _cmd_validate_frank(args: argparse.Namespace) -> None:
    annotations = load_annotations(args.annotations)
    table = load_scores(args.scores, "annotations")
    results = validate_slices(((name, table.values(name))
                               for name in args.scorers or table.scorers), annotations)
    write_csv(args.out, ["scorer", "dataset", "r", "n", "n_covariates"],
              ([scorer, dataset or "all", result.r, result.n, result.n_covariates]
               for scorer, dataset, result in results))
    logger.info("wrote scorer validation to %s", args.out)


def _cmd_flip_analysis(args: argparse.Namespace) -> None:
    annotations = load_annotations(args.annotations)
    table = load_scores(args.scores, "annotations")
    scores_by_scorer = {name: table.values(name) for name in args.scorers or table.scorers}
    report = flip_analysis(scores_by_scorer, annotations)
    report.to_csv(args.out)
    logger.info("wrote flip analysis to %s", args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    spec = SweepSpec(thresholds=tuple(args.thresholds), strategies=tuple(args.strategies),
                     seed=args.seed)
    corpus = load_corpus(args.in_path)
    table = load_scores(args.scores, corpus.name)
    spec.check_columns(table)  # before the hook asks the backend for work
    with _make_backend(args) as backend:
        rows = run_sweep(corpus, table, spec, table_eval_hook(corpus, table, backend))
    write_sweep_csv(rows, args.out)
    logger.info("wrote %d sweep rows to %s", len(rows), args.out)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    generated = _load_generated(args.generated)
    manifest = FilterManifest.load(args.manifest) if args.manifest else None
    with _make_backend(args) as backend:
        report = evaluate_outputs(generated, corpus, backend=backend,
                                  manifest=manifest, metrics=args.metrics)
    report.to_csv(args.out)
    for metric in report.metrics:
        if report.per_pair[metric]:
            logger.info("%s: n=%d mean=%.6g", metric, report.n(metric),
                        report.mean(metric))
    logger.info("wrote evaluation report to %s", args.out)


def _cmd_compare(args: argparse.Namespace) -> None:
    report_a = EvalReport.from_csv(args.report_a)
    report_b = EvalReport.from_csv(args.report_b)
    comparison = compare_selections(report_a, report_b)
    comparison.to_csv(args.out)
    logger.info("wrote comparison to %s", args.out)


# ---------------------------------------------------------------- wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config",
                        help="JSON run file of flag values; the command line's flags win")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default="mock", type=registered_backend,
                        help="backend id (default: %(default)s); 'remote' uses --remote-command")
    parser.add_argument("--remote-command", dest="remote_command",
                        help="command line of an out-of-process backend server")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factfilter",
                     description="Factual-consistency scoring, filtration and "
                                 "evaluation for summarization corpora.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("ingest", help="validate and canonicalize a corpus JSONL")
    p.add_argument("--in", dest="in_path", required=True, help="input corpus JSONL")
    p.add_argument("--out", required=True, help="output corpus JSONL")
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("score", help="score pairs with factual-consistency scorers")
    p.add_argument("--in", dest="in_path", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="scores JSONL (appended on resume)")
    p.add_argument("--scorers", required=True,
                   type=_comma_list("--scorers", known=sorted(SCORERS)),
                   help="comma list: greedy,condll,dae")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("filter", help="percentile-intersection filtration manifest")
    p.add_argument("--scores", required=True, help="scores JSONL")
    p.add_argument("--out", required=True, help="manifest JSON")
    p.add_argument("--q", default=0.25, type=float, help="drop fraction (default %(default)s)")
    p.add_argument("--scorers", type=_comma_list("--scorers"),
                   help="comma list (default: all in file)")
    p.add_argument("--corpus-name", dest="corpus_name",
                   help="corpus the manifest applies to (default: scores file stem)")
    _add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("stats", help="corpus statistics and score distributions")
    p.add_argument("--in", dest="in_path", required=True, help="corpus JSONL")
    p.add_argument("--out", required=True, help="stats CSV")
    p.add_argument("--manifest", help="also report the filtered selection")
    p.add_argument("--scores", help="also write per-scorer distribution CSV next to --out")
    p.add_argument("--corpus-name", dest="corpus_name", help="(default: file stem)")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate-frank",
                       help="partial correlation of scorers vs human annotations")
    p.add_argument("--annotations", required=True, help="annotation JSONL")
    p.add_argument("--scores", required=True, help="scores JSONL keyed by summary id")
    p.add_argument("--scorers", type=_comma_list("--scorers"),
                   help="comma list (default: all in file)")
    p.add_argument("--out", required=True, help="correlation CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_validate_frank)

    p = sub.add_parser("flip-analysis",
                       help="per-error-category label-flip sensitivity")
    p.add_argument("--annotations", required=True, help="annotation JSONL")
    p.add_argument("--scores", required=True, help="scores JSONL keyed by summary id")
    p.add_argument("--scorers", type=_comma_list("--scorers"),
                   help="comma list (default: all in file)")
    p.add_argument("--out", required=True, help="flip report CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_flip_analysis)

    p = sub.add_parser("sweep", help="threshold/strategy sweep with an eval proxy")
    p.add_argument("--in", dest="in_path", required=True, help="corpus JSONL")
    p.add_argument("--scores", required=True, help="scores JSONL")
    p.add_argument("--out", required=True, help="sweep CSV")
    p.add_argument("--thresholds", default=",".join(map(str, SweepSpec.thresholds)),
                   type=_comma_list("--thresholds", float, distinct=False),
                   help="comma list of drop fractions (default: %(default)s)")
    p.add_argument("--strategies", default=",".join(SweepSpec.strategies),
                   type=_comma_list("--strategies", distinct=False),
                   help="comma list: combined,random,single:<scorer> (default: %(default)s)")
    p.add_argument("--seed", default=SweepSpec.seed, type=int,
                   help="seed of the random strategy (default: %(default)s)")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="evaluate generated summaries on the test split")
    p.add_argument("--in", dest="in_path", required=True, help="corpus JSONL")
    p.add_argument("--generated", required=True, help="JSONL of {id, summary}")
    p.add_argument("--out", required=True, help="evaluation report CSV")
    p.add_argument("--metrics", default=",".join(ALL_METRICS),
                   type=_comma_list("--metrics", known=ALL_METRICS),
                   help="comma list (default: %(default)s)")
    p.add_argument("--manifest",
                   help="restrict the reference-based metric to kept test pairs")
    p.add_argument("--corpus-name", dest="corpus_name", help="(default: file stem)")
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="paired significance comparison of two reports")
    p.add_argument("--report-a", dest="report_a", required=True, help="evaluation report CSV")
    p.add_argument("--report-b", dest="report_b", required=True, help="evaluation report CSV")
    p.add_argument("--out", required=True, help="comparison CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        if (registry := load_extra_backends()) is not None:  # `--backend` checks its names
            logger.info("loaded extra backends from %s", registry)
        args = parser.parse_args(argv)
        if getattr(args, "backend", None) == "remote" and not args.remote_command:
            raise ConfigurationError("--remote-command is required with --backend remote")
        _write_config_echo(args.out, args)
        args.func(args)
        return EXIT_OK
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BackendError, TransportError) as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND
    except (ParseError, IntegrityError, CoverageError, ScoringError,
            DegenerateInputError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FactFilterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
