from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from casegraph.errors import ParseError, ValidationError
from casegraph.kb import (
    Triple,
    build_triple_store,
    encode,
    load_corpus,
    load_lexicon,
    load_triples,
    normalize_surface,
    read_lines,
    save_container,
    triples_from_dict,
    triples_to_dict,
)


class TestNormalizeSurface:
    def test_punctuation_and_case_fold(self):
        assert normalize_surface("Heart Attack!") == "heart attack"

    def test_empty(self):
        assert normalize_surface("") == ""

    def test_internal_runs_collapse(self):
        assert normalize_surface("acute  myocardial-infarction") == "acute myocardial infarction"

    @given(st.text(max_size=80))
    def test_idempotent(self, s):
        once = normalize_surface(s)
        assert normalize_surface(once) == once


class TestReadLines:
    def test_line_endings_and_blank_lines(self, tmp_path):
        path = tmp_path / "lines.txt"
        path.write_bytes(b"a\r\n\r\n \t\r\n b \nc\rd")
        assert list(read_lines(path)) == [(1, "a"), (4, " b "), (5, "c"), (6, "d")]


class TestLoadLexicon:
    def test_fixture_file(self, lexicon):
        assert len(lexicon) == 4
        assert lexicon.surface_index["heart attack"] == ["C0027051"]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert len(lexicon) == 0

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("C1\tName\tsyn\tT1\nC2\tOnlyTwo\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_lexicon(path)

    def test_whitespace_only_line_skipped(self, tmp_path):
        path = tmp_path / "spaced.tsv"
        path.write_text("C1\tName\t\tT1\n  \t \nC2\tOther\t\tT1\n", encoding="utf-8")
        assert sorted(load_lexicon(path).concepts) == ["C1", "C2"]

    def test_conflicting_preferred_name(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("C1\tName A\t\tT1\nC1\tName B\t\tT1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="C1"):
            load_lexicon(path)

    def test_duplicate_surface_cui_pairs_collapse(self, tmp_path):
        path = tmp_path / "dups.tsv"
        path.write_text("C1\tFever\tfever|FEVER|fever!\tT1\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert lexicon.surface_index["fever"] == ["C1"]

    def test_synonym_round_trip(self, lexicon):
        for concept in lexicon.concepts.values():
            for surface in (concept.preferred_name, *concept.synonyms):
                assert concept.cui in lexicon.lookup(surface)


class TestLookup:
    def test_known_surface_case_insensitive(self, lexicon):
        assert lexicon.lookup("Heart attack") == ["C0027051"]

    def test_unknown_surface(self, lexicon):
        assert lexicon.lookup("xyzzy") == []

    def test_priority_order_is_file_order(self, tmp_path):
        path = tmp_path / "shared.tsv"
        path.write_text("C9\tcold\t\tT1\nC8\tCold\t\tT1\n", encoding="utf-8")
        lexicon = load_lexicon(path)
        assert lexicon.lookup("cold") == ["C9", "C8"]


class TestLoadTriples:
    def test_fixture_file(self, kb):
        assert len(kb) == 1
        assert kb.relations == ["may_treat"]
        assert kb.relations_between("C0004057", "C0027051") == {"may_treat"}

    def test_duplicates_dropped(self, tmp_path):
        path = tmp_path / "dups.tsv"
        path.write_text("A\tr\tB\nA\tr\tB\n", encoding="utf-8")
        assert len(load_triples(path)) == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("", encoding="utf-8")
        store = load_triples(path)
        assert len(store) == 0
        assert store.relations == []

    def test_self_loop_rejected(self, tmp_path):
        path = tmp_path / "loop.tsv"
        path.write_text("A\tr\tA\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 1"):
            load_triples(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.tsv"
        path.write_text("A\tr\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            load_triples(path)

    def test_declared_inventory_enforced(self, tmp_path):
        path = tmp_path / "header.tsv"
        path.write_text("# relations: may_treat, cause_of\nA\tmay_treat\tB\nA\tunlisted\tB\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="unlisted"):
            load_triples(path)

    def test_declared_inventory_sets_relation_order(self, tmp_path):
        path = tmp_path / "header.tsv"
        path.write_text("# relations: cause_of, may_treat\nA\tmay_treat\tB\n", encoding="utf-8")
        assert load_triples(path).relations == ["cause_of", "may_treat"]

    @pytest.mark.parametrize(
        "text, relations",
        [
            ("# relations: cause_of, may_treat, cause_of\nA\tmay_treat\tB\n", ["cause_of", "may_treat"]),
            ("A\tmay_treat\tB\n# relations: cause_of\nA\tcause_of\tC\n", ["may_treat", "cause_of"]),
        ],
        ids=["relation declared twice", "header after a triple"],
    )
    def test_stored_store_loads_back(self, tmp_path, text, relations):
        # Every relation of a store is listed once, so its stored form passes the index loader's checks.
        path = tmp_path / "header.tsv"
        path.write_text(text, encoding="utf-8")
        store = load_triples(path)
        assert store.relations == relations
        loaded = triples_from_dict(triples_to_dict(store))
        assert loaded == store
        assert all(type(triple) is Triple for triple in loaded.triples)

    def test_by_pair_matches_exhaustive_scan(self):
        triples = [
            ("A", "r1", "B"),
            ("A", "r2", "B"),
            ("B", "r1", "C"),
            ("C", "r2", "A"),
        ]
        store = build_triple_store(triples)
        entities = sorted(store.entities)
        for head in entities:
            for tail in entities:
                expected = {r for h, r, t in triples if h == head and t == tail}
                assert store.relations_between(head, tail) == expected


class TestLoadCorpus:
    def test_reads_documents(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"id": "d1", "title": "T", "text": "body"}\n{"id": "d2", "title": "", "text": ""}\n',
            encoding="utf-8",
        )
        docs = load_corpus(path)
        assert [d.id for d in docs] == ["d1", "d2"]
        assert docs[0].content() == "T\n\nbody"
        assert docs[1].content() == ""

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "title": "", "text": "a"}\n{"id": "d1", "title": "", "text": "b"}\n', encoding="utf-8")
        with pytest.raises(ValidationError, match="d1"):
            load_corpus(path)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "title": "", "text": "a"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(path)

    def test_lone_surrogate_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "d1", "title": "", "text": "a"}\n{"id": "d2", "title": "", "text": "\\ud800"}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: .*surrogates"):
            load_corpus(path)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


class TestSaveContainer:
    @given(body=st.dictionaries(st.text(max_size=6), json_values, max_size=5), encoded=st.sets(st.text(max_size=6)))
    def test_encoded_parts_give_the_bytes_of_the_whole_payload(self, tmp_path_factory, body, encoded):
        path = tmp_path_factory.getbasetemp() / "container.json"
        save_container(path, "fmt", 3, {key: encode(value) if key in encoded else value for key, value in body.items()})
        payload = {**body, "format": "fmt", "version": 3}
        assert path.read_text(encoding="utf-8") == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"

    def test_a_part_that_cannot_be_encoded_leaves_the_file(self, tmp_path):
        path = tmp_path / "container.json"
        save_container(path, "fmt", 3, {"part": [1, 2]})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            save_container(path, "fmt", 3, {"part": [1, 2], "unencodable": object()})
        assert path.read_bytes() == before
