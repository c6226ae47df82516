"""Command-line pipeline: ingest, score, filter, stats, validate, sweep, evaluate, compare.

One subcommand per pipeline stage (scoring is hours-long with real backends
and must be separately resumable). Progress goes to stderr; data goes only to
the declared output files; every run writes a config echo next to its
primary output. Exit codes: 0 success, 1 usage/configuration, 2
data/integrity, 3 backend failure.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import logging
import os
import shlex
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

from . import remote  # noqa: F401  (registers the remote backend)
from .backend import Backend, create_backend
from .corpus import Corpus, corpus_stats, load_corpus, save_corpus
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
    DEFAULT_THRESHOLDS,
    SweepSpec,
    compare_selections,
    distribution_report,
    mock_train_eval_hook,
    run_sweep,
    write_distribution_csv,
    write_sweep_csv,
)
from .filtration import FilterManifest, apply_manifest, intersect_filter
from .metrics import ALL_METRICS, EvalReport, evaluate_outputs
from .records import read_jsonl, write_csv
from .scorers import SCORERS, load_scores, score_corpus_to_file
from .validation import flip_analysis, load_annotations, validate_scorer

logger = logging.getLogger("factfilter")

BACKEND_REGISTRY_ENV = "FACTFILTER_BACKENDS"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_BACKEND = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_config_defaults(args: argparse.Namespace) -> None:
    """Fill unset flags from the declarative --config run file."""
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config {path} must be a JSON object")
    for key, value in obj.items():
        attr = key.replace("-", "_")
        if attr == "command":
            continue
        if not hasattr(args, attr):
            raise ConfigurationError(f"config key {key!r} unknown for this command")
        if getattr(args, attr) is None:
            setattr(args, attr, value)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--in" if n == "in_path" else "--" + n.replace("_", "-")
                          for n in missing)
        raise ConfigurationError(f"missing required option(s): {flags}")


def _write_config_echo(out_path: str | Path, command: str,
                       args: argparse.Namespace) -> None:
    echo: dict[str, Any] = {"command": command}
    for key, value in sorted(vars(args).items()):
        if key in ("func", "config"):
            continue
        echo[key] = value
    path = Path(str(out_path) + ".config.json")
    path.write_text(json.dumps(echo, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _load_extra_backends() -> None:
    """Import a backend-registration module named by the environment."""
    location = os.environ.get(BACKEND_REGISTRY_ENV)
    if not location:
        return
    path = Path(location)
    if not path.exists():
        raise ConfigurationError(f"{BACKEND_REGISTRY_ENV} points to missing file {path}")
    spec = importlib.util.spec_from_file_location("factfilter_extra_backends", path)
    if spec is None or spec.loader is None:
        raise ConfigurationError(f"cannot import backend registry {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    logger.info("loaded extra backends from %s", path)


def _make_backend(args: argparse.Namespace) -> Backend:
    name = getattr(args, "backend", None) or "mock"
    if name == "remote":
        command = getattr(args, "remote_command", None)
        if not command:
            raise ConfigurationError("--remote-command is required with --backend remote")
        return create_backend("remote", command=shlex.split(command))
    return create_backend(name)


def _split_csv(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def _load_generated(path: str | Path) -> dict[str, str]:
    generated: dict[str, str] = {}

    def consume(row: dict[str, Any]) -> None:
        pair_id, summary = row["id"], row["summary"]
        for name, value in (("id", pair_id), ("summary", summary)):
            if not isinstance(value, str):
                raise TypeError(f"field {name!r} must be a string")
        if pair_id in generated:
            raise IntegrityError(f"duplicate generated summary for id {pair_id!r}")
        generated[pair_id] = summary

    read_jsonl(path, consume)
    return generated


# ---------------------------------------------------------------- commands


def _cmd_ingest(args: argparse.Namespace) -> None:
    _require(args, "in_path", "out")
    corpus = load_corpus(args.in_path, name=args.name or None)
    _write_config_echo(args.out, "ingest", args)
    save_corpus(corpus, args.out)
    logger.info("ingested %d pairs into %s", len(corpus), args.out)


def _cmd_score(args: argparse.Namespace) -> None:
    _require(args, "in_path", "out", "scorers")
    scorer_names = _split_csv(args.scorers)
    unknown = [s for s in scorer_names if s not in SCORERS]
    if unknown:
        raise ConfigurationError(f"unknown scorers {unknown}; available: {sorted(SCORERS)}")
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    _write_config_echo(args.out, "score", args)
    with _make_backend(args) as backend:
        added = score_corpus_to_file(corpus, scorer_names, backend, args.out)
    logger.info("wrote %d new score rows to %s", added, args.out)


def _cmd_filter(args: argparse.Namespace) -> None:
    _require(args, "scores", "out")
    q = float(args.q if args.q is not None else 0.25)
    corpus_name = args.corpus_name or Path(args.scores).stem
    table = load_scores(args.scores, corpus_name)
    scorers = _split_csv(args.scorers) if args.scorers else None
    _write_config_echo(args.out, "filter", args)
    manifest = intersect_filter(table, q, scorers=scorers)
    manifest.save(args.out)
    logger.info("kept %d / %d pairs (ratio %.4f); manifest %s",
                len(manifest.kept_ids), manifest.n_pairs,
                manifest.selection_ratio, manifest.content_hash())


def _stats_row(label: str, corpus: Corpus, ratio: float | None) -> list[str]:
    stats = corpus_stats(corpus)
    counts = stats.per_split_counts
    return [
        label,
        corpus.name,
        str(stats.n_pairs),
        str(counts.get("train", 0)),
        str(counts.get("validation", 0)),
        str(counts.get("test", 0)),
        repr(float(stats.mean_doc_words)),
        repr(float(stats.mean_sum_words)),
        "" if ratio is None else repr(float(ratio)),
    ]


def _cmd_stats(args: argparse.Namespace) -> None:
    _require(args, "in_path", "out")
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    _write_config_echo(args.out, "stats", args)
    rows = [_stats_row("full", corpus, None)]
    if args.manifest:
        manifest = FilterManifest.load(args.manifest)
        filtered = apply_manifest(corpus, manifest)
        rows.append(_stats_row("selection", filtered, manifest.selection_ratio))
    write_csv(args.out, ["record", "corpus", "n_pairs", "n_train", "n_validation", "n_test",
                         "mean_doc_words", "mean_sum_words", "selection_ratio"], rows)
    logger.info("wrote corpus stats to %s", args.out)
    if args.scores:
        table = load_scores(args.scores, corpus.name)
        table.ensure_complete(corpus.ids())
        summaries = distribution_report(table)
        dist_path = Path(args.out).with_name(Path(args.out).stem + "_distributions.csv")
        write_distribution_csv(summaries, dist_path)
        logger.info("wrote score distributions to %s", dist_path)


def _cmd_validate_frank(args: argparse.Namespace) -> None:
    _require(args, "annotations", "scores", "out")
    annotations = load_annotations(args.annotations)
    table = load_scores(args.scores, "annotations")
    scorer_names = _split_csv(args.scorers) if args.scorers else table.scorers
    present = sorted({a.source_dataset for a in annotations})
    slices: list[str | None] = list(present)
    if len(present) > 1:
        slices.append(None)  # pooled

    def rows() -> Iterator[list[str]]:
        for scorer in scorer_names:
            scores = table.values(scorer)
            for dataset in slices:
                result = validate_scorer(scores, annotations, dataset)
                yield [scorer, dataset or "all", repr(float(result.r)),
                       str(result.n), str(result.n_covariates)]

    _write_config_echo(args.out, "validate-frank", args)
    write_csv(args.out, ["scorer", "dataset", "r", "n", "n_covariates"], rows())
    logger.info("wrote scorer validation to %s", args.out)


def _cmd_flip_analysis(args: argparse.Namespace) -> None:
    _require(args, "annotations", "scores", "out")
    annotations = load_annotations(args.annotations)
    table = load_scores(args.scores, "annotations")
    scorer_names = _split_csv(args.scorers) if args.scorers else table.scorers
    scores_by_scorer = {name: table.values(name) for name in scorer_names}
    _write_config_echo(args.out, "flip-analysis", args)
    report = flip_analysis(scores_by_scorer, annotations)
    report.to_csv(args.out)
    logger.info("wrote flip analysis to %s", args.out)


def _cmd_sweep(args: argparse.Namespace) -> None:
    _require(args, "in_path", "scores", "out")
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    table = load_scores(args.scores, corpus.name)
    thresholds = tuple(float(t) for t in _split_csv(args.thresholds)) \
        if args.thresholds else DEFAULT_THRESHOLDS
    strategies = tuple(_split_csv(args.strategies)) if args.strategies \
        else ("combined", "random")
    spec = SweepSpec(thresholds=thresholds, strategies=strategies,
                     seed=int(args.seed or 0))
    _write_config_echo(args.out, "sweep", args)
    with _make_backend(args) as backend:
        hook = mock_train_eval_hook(backend)
        rows = run_sweep(corpus, table, spec, hook)
    write_sweep_csv(rows, args.out)
    logger.info("wrote %d sweep rows to %s", len(rows), args.out)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    _require(args, "in_path", "generated", "out")
    corpus = load_corpus(args.in_path, name=args.corpus_name or None)
    generated = _load_generated(args.generated)
    metrics = _split_csv(args.metrics) if args.metrics else list(ALL_METRICS)
    manifest = FilterManifest.load(args.manifest) if args.manifest else None
    _write_config_echo(args.out, "evaluate", args)
    with _make_backend(args) as backend:
        report = evaluate_outputs(generated, corpus, backend=backend,
                                  manifest=manifest, metrics=metrics)
    report.to_csv(args.out)
    for metric in report.metrics:
        if report.per_pair[metric]:
            logger.info("%s: n=%d mean=%.6g", metric, report.n(metric),
                        report.mean(metric))
    logger.info("wrote evaluation report to %s", args.out)


def _cmd_compare(args: argparse.Namespace) -> None:
    _require(args, "report_a", "report_b", "out")
    report_a = EvalReport.from_csv(args.report_a)
    report_b = EvalReport.from_csv(args.report_b)
    _write_config_echo(args.out, "compare", args)
    comparison = compare_selections(report_a, report_b)
    comparison.to_csv(args.out)
    logger.info("wrote comparison to %s", args.out)


# ---------------------------------------------------------------- wiring


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="JSON run file supplying defaults for unset flags")


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        help="backend id (default: mock); 'remote' uses --remote-command")
    parser.add_argument("--remote-command", dest="remote_command", default=None,
                        help="command line of an out-of-process backend server")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factfilter",
                     description="Factual-consistency scoring, filtration and "
                                 "evaluation for summarization corpora.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("ingest", help="validate and canonicalize a corpus JSONL")
    p.add_argument("--in", dest="in_path", default=None, help="input corpus JSONL")
    p.add_argument("--out", default=None, help="output corpus JSONL")
    p.add_argument("--name", default=None, help="corpus name (default: file stem)")
    _add_common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("score", help="score pairs with factual-consistency scorers")
    p.add_argument("--in", dest="in_path", default=None, help="corpus JSONL")
    p.add_argument("--out", default=None, help="scores JSONL (appended on resume)")
    p.add_argument("--scorers", default=None, help="comma list: greedy,condll,dae")
    p.add_argument("--corpus-name", dest="corpus_name", default=None)
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("filter", help="percentile-intersection filtration manifest")
    p.add_argument("--scores", default=None, help="scores JSONL")
    p.add_argument("--out", default=None, help="manifest JSON")
    p.add_argument("--q", default=None, type=float, help="drop fraction (default 0.25)")
    p.add_argument("--scorers", default=None, help="comma list (default: all in file)")
    p.add_argument("--corpus-name", dest="corpus_name", default=None,
                   help="corpus the manifest applies to (default: scores file stem)")
    _add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("stats", help="corpus statistics and score distributions")
    p.add_argument("--in", dest="in_path", default=None, help="corpus JSONL")
    p.add_argument("--out", default=None, help="stats CSV")
    p.add_argument("--manifest", default=None, help="also report the filtered selection")
    p.add_argument("--scores", default=None,
                   help="also write per-scorer distribution CSV next to --out")
    p.add_argument("--corpus-name", dest="corpus_name", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("validate-frank",
                       help="partial correlation of scorers vs human annotations")
    p.add_argument("--annotations", default=None, help="annotation JSONL")
    p.add_argument("--scores", default=None, help="scores JSONL keyed by summary id")
    p.add_argument("--scorers", default=None, help="comma list (default: all in file)")
    p.add_argument("--out", default=None, help="correlation CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_validate_frank)

    p = sub.add_parser("flip-analysis",
                       help="per-error-category label-flip sensitivity")
    p.add_argument("--annotations", default=None)
    p.add_argument("--scores", default=None)
    p.add_argument("--scorers", default=None)
    p.add_argument("--out", default=None, help="flip report CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_flip_analysis)

    p = sub.add_parser("sweep", help="threshold/strategy sweep with an eval proxy")
    p.add_argument("--in", dest="in_path", default=None, help="corpus JSONL")
    p.add_argument("--scores", default=None)
    p.add_argument("--out", default=None, help="sweep CSV")
    p.add_argument("--thresholds", default=None, help="comma list of drop fractions")
    p.add_argument("--strategies", default=None,
                   help="comma list: combined,random,single:<scorer>")
    p.add_argument("--seed", default=None, type=int)
    p.add_argument("--corpus-name", dest="corpus_name", default=None)
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("evaluate", help="evaluate generated summaries on the test split")
    p.add_argument("--in", dest="in_path", default=None, help="corpus JSONL")
    p.add_argument("--generated", default=None, help="JSONL of {id, summary}")
    p.add_argument("--out", default=None, help="evaluation report CSV")
    p.add_argument("--metrics", default=None,
                   help=f"comma list (default: {','.join(ALL_METRICS)})")
    p.add_argument("--manifest", default=None,
                   help="restrict the reference-based metric to kept test pairs")
    p.add_argument("--corpus-name", dest="corpus_name", default=None)
    _add_backend_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="paired significance comparison of two reports")
    p.add_argument("--report-a", dest="report_a", default=None)
    p.add_argument("--report-b", dest="report_b", default=None)
    p.add_argument("--out", default=None, help="comparison CSV")
    _add_common(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError(parser.format_usage())
        _load_config_defaults(args)
        _load_extra_backends()
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
