from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factfilter import Corpus, Pair, corpus_stats, load_corpus, save_corpus, word_count
from factfilter.corpus import toy_corpus_path
from factfilter.errors import DomainError, IntegrityError, ParseError

from conftest import make_corpus, make_pair


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


RECORDS = [
    {"id": "a", "document": "one two three four", "summary": "one two", "split": "train",
     "meta": {"url": "http://x"}},
    {"id": "b", "document": "five six seven", "summary": "five six", "split": "validation",
     "meta": {}},
    {"id": "c", "document": "eight nine ten eleven twelve", "summary": "nine ten",
     "split": "test", "meta": {}},
]


class TestLoadCorpus:
    def test_preserves_order_and_meta(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        _write_jsonl(path, RECORDS)
        corpus = load_corpus(path)
        assert len(corpus) == 3
        assert corpus.ids() == ("a", "b", "c")
        assert corpus.name == "corpus"
        assert {pair.id: pair for pair in corpus}["a"].meta == {"url": "http://x"}

    def test_duplicate_id_names_offender(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        _write_jsonl(path, RECORDS + [RECORDS[0]])
        with pytest.raises(IntegrityError, match="'a'"):
            load_corpus(path)

    def test_empty_file_gives_empty_corpus(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        corpus = load_corpus(path)
        assert len(corpus) == 0

    def test_malformed_line_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(RECORDS[0]) + "\n{not json\n")
        with pytest.raises(ParseError) as excinfo:
            load_corpus(path)
        assert excinfo.value.line == 2

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        _write_jsonl(path, [{"id": "a", "document": "x", "split": "train"}])
        with pytest.raises(ParseError, match="summary"):
            load_corpus(path)

    def test_round_trip_reproduces_records(self, tmp_path):
        src = tmp_path / "src.jsonl"
        dst = tmp_path / "dst.jsonl"
        _write_jsonl(src, RECORDS)
        save_corpus(load_corpus(src), dst)
        reloaded = [json.loads(line) for line in dst.read_text().splitlines()]
        assert reloaded == RECORDS


class TestPairInvariants:
    def test_rejects_empty_summary(self):
        with pytest.raises(DomainError):
            Pair(id="a", document="text", summary="   ", split="train")

    def test_rejects_bad_split(self):
        with pytest.raises(DomainError):
            Pair(id="a", document="text", summary="sum", split="dev")

    def test_corpus_rejects_duplicates(self):
        pair = make_pair("a", "doc words", "sum words")
        with pytest.raises(IntegrityError):
            Corpus(name="c", pairs=(pair, pair))

    def test_with_meta_keeps_every_field_and_merges_meta_without_checking_again(
            self, monkeypatch):
        pair = make_pair("a", "doc words", "sum words", split="test", source="x", n=1)
        checks = []
        monkeypatch.setattr(Pair, "__post_init__", lambda self: checks.append(self))
        copy = pair.with_meta(n=2, manifest="m")
        assert checks == []
        assert type(copy) is Pair and copy is not pair
        assert (copy.id, copy.document, copy.summary, copy.split) == \
            (pair.id, pair.document, pair.summary, pair.split)
        assert copy.meta == {"source": "x", "n": 2, "manifest": "m"}
        assert pair.meta == {"source": "x", "n": 1}
        assert copy == Pair(id="a", document="doc words", summary="sum words", split="test",
                            meta={"source": "x", "n": 2, "manifest": "m"})


class TestWordCount:
    @pytest.mark.parametrize("text,expected", [
        ("the cat sat", 3),
        ("  a\tb\nc  ", 3),
        ("", 0),
        (" x y", 2),  # non-breaking and em space are whitespace too
    ])
    def test_examples(self, text, expected):
        assert word_count(text) == expected

    @given(st.text(), st.text())
    def test_concatenation_is_additive(self, a, b):
        # the inserted separator keeps runs from merging, for any a and b
        assert word_count(a + " " + b) == word_count(a) + word_count(b)


class TestCorpusStats:
    def test_hand_computed_means(self):
        corpus = make_corpus(
            "c",
            make_pair("a", "one two three four", "x y"),
            make_pair("b", "one two three four five six", "x y z", split="test"),
        )
        stats = corpus_stats(corpus)
        assert stats.n_pairs == 2
        assert stats.mean_doc_words == 5.0
        assert stats.mean_sum_words == 2.5
        assert stats.per_split_counts == {"test": 1, "train": 1}

    def test_single_pair_means_equal_counts(self):
        corpus = make_corpus("c", make_pair("a", "one two three", "x y"))
        stats = corpus_stats(corpus)
        assert stats.mean_doc_words == 3.0
        assert stats.mean_sum_words == 2.0

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            corpus_stats(Corpus(name="c", pairs=()))

    def test_permutation_invariant(self):
        pairs = [make_pair(f"p{i}", f"word {'x ' * i}end", "a b") for i in range(5)]
        forward = corpus_stats(make_corpus("c", *pairs))
        backward = corpus_stats(make_corpus("c", *reversed(pairs)))
        assert forward == backward


class TestSubset:
    def test_preserves_order(self):
        corpus = make_corpus("c", *(make_pair(f"p{i}", "some doc", "a b") for i in range(5)))
        sub = corpus.subset({"p3", "p1"})
        assert sub.ids() == ("p1", "p3")

    def test_unknown_id_rejected(self):
        corpus = make_corpus("c", make_pair("a", "doc text", "a b"))
        with pytest.raises(IntegrityError):
            corpus.subset({"zzz"})


def test_bundled_toy_corpus_loads():
    corpus = load_corpus(toy_corpus_path(), name="toy_corpus")
    assert len(corpus) == 50
    assert len(corpus.split_pairs("test")) == 10
