"""Factual-consistency scoring, filtration and evaluation for summarization corpora.

The public names below are loaded on first use (PEP 562), each from the
submodule that defines it, so `python -m factfilter.remote` loads only the
backend layer. `factfilter.<name>` always reads the submodule's current
attribute; nothing is cached here.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "backend": ("Backend", "BackendDescriptor", "DependencyArc", "MockBackend",
                "TokenEmbeddings", "create_backend", "register_backend"),
    "corpus": ("Corpus", "CorpusStats", "Pair", "corpus_stats", "load_corpus",
               "save_corpus", "toy_corpus_path", "word_count"),
    "filtration": ("FilterManifest", "apply_manifest", "intersect_filter",
                   "percentile_keep_set", "random_selection"),
    "metrics": ("BlancScore", "EvalReport", "RougeScore", "blanc_help",
                "evaluate_outputs", "rouge2"),
    "scorers": ("SCORERS", "FactualityScore", "PreparedPair", "ScoreFailure", "ScoreTable",
                "load_scores", "prepare_pairs", "score_corpus", "write_scores"),
    "stats": ("PartialCorrelationResult", "WilcoxonResult", "partial_pearson", "pearson",
              "wilcoxon_signed_rank"),
    "validation": ("CATEGORIES", "FactualityAnnotation", "FlipReport", "flip_analysis",
                   "flip_labels", "load_annotations", "validate_scorer"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
