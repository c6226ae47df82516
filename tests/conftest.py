from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from factfilter import Corpus, MockBackend, Pair, score_corpus

# Every run draws the same examples, and a slow one is no failure.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

# Child processes (the remote backend server, `python -m factfilter.cli`)
# import `factfilter` from this checkout's `src/`, as the tests themselves do.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def mock_backend() -> MockBackend:
    return MockBackend()


def make_pair(pair_id: str, document: str, summary: str, split: str = "train",
              **meta) -> Pair:
    return Pair(id=pair_id, document=document, summary=summary, split=split, meta=meta)


def make_corpus(name: str, *pairs: Pair) -> Corpus:
    return Corpus(name=name, pairs=tuple(pairs))


def score_one(scorer: str, document: str, summary: str, backend):
    """`score_corpus`'s cell for one pair and one scorer."""
    (cell,) = score_corpus(make_corpus("c", make_pair("p", document, summary)), [scorer], backend)
    return cell
