"""The package's public names, and what starting the remote server or the CLI loads."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import factfilter

# The public names, by the submodule that defines them.
PUBLIC = {
    "backend": "Backend BackendDescriptor DependencyArc MockBackend TokenEmbeddings "
               "create_backend register_backend",
    "corpus": "Corpus CorpusStats Pair corpus_stats load_corpus save_corpus "
              "toy_corpus_path word_count",
    "filtration": "FilterManifest apply_manifest intersect_filter percentile_keep_set "
                  "random_selection",
    "metrics": "BlancScore EvalReport RougeScore blanc_help evaluate_outputs rouge2",
    "scorers": "SCORERS FactualityScore PreparedPair ScoreFailure ScoreTable load_scores "
               "prepare_pairs score_corpus write_scores",
    "stats": "PartialCorrelationResult WilcoxonResult partial_pearson pearson "
             "wilcoxon_signed_rank",
    "validation": "CATEGORIES FactualityAnnotation FlipReport flip_analysis flip_labels "
                  "load_annotations validate_scorer",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


def test_all_lists_the_47_public_names():
    assert len(NAMES) == 47
    assert factfilter.__all__ == sorted(name for _, name in NAMES)
    assert set(factfilter.__all__) <= set(dir(factfilter))


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_a_public_name_is_its_submodule_attribute(module, name):
    namespace: dict = {}
    exec(f"from factfilter import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"factfilter.{module}"), name)


def test_a_public_name_follows_a_patched_submodule(monkeypatch):
    from factfilter import scorers

    patched = object()
    monkeypatch.setattr(scorers, "score_corpus", patched)
    assert factfilter.score_corpus is patched


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        factfilter.nope  # noqa: B018


def test_the_remote_server_loads_only_the_backend_layer():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, factfilter.remote\n"
         "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'factfilter'))"],
        capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == ["factfilter", "factfilter.backend", "factfilter.errors",
                                   "factfilter.records", "factfilter.remote"]


def test_the_cli_does_not_load_the_remote_client():
    done = subprocess.run(
        [sys.executable, "-c", "import sys, factfilter.cli\n"
         "print(*sorted(m for m in ('factfilter.remote', 'subprocess', 'base64')"
         " if m in sys.modules))"],
        capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []
