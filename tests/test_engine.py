from __future__ import annotations

import json

import numpy as np
import pytest

import helpers
from casegraph.config import PipelineConfig
from casegraph.engine import (
    build_collection_graph,
    collection_graph_to_dot,
    document_network,
    index_corpus,
    load_index,
    save_index,
    search,
)
from casegraph.errors import FormatError, UsageError, ValidationError
from casegraph.kb import Document
from casegraph.similarity import doc_embedding, wl_dot
from casegraph.transe import TrainConfig, init_model, train


@pytest.fixture(scope="module")
def pipeline():
    lexicon = helpers.synth_lexicon()
    kb = helpers.synth_kb(lexicon)
    train_config = TrainConfig(dim=16, epochs=30, seed=11)
    transe_model = train(init_model(kb.entities, kb.relations, train_config), kb, train_config)
    config = PipelineConfig(mode="kbmatch", h=3, lambda_weight=0.6, seed=11)
    return lexicon, kb, transe_model, config


@pytest.fixture(scope="module")
def small_index(pipeline):
    lexicon, kb, transe_model, config = pipeline
    corpus = helpers.synth_corpus(lexicon, 8, seed=3)
    return corpus, index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)


def query_network(index, text):
    return document_network(Document("q", "", text), index.lexicon, index.config, index.kb, index.extractor, index.transe)


def oracle_results(index, text, lam, prune):
    """Exhaustive ranking by the independent oracle; prune keeps documents sharing a node with the query."""
    query_net = query_network(index, text)
    scored = [
        (doc_id, helpers.oracle_combined(query_net, net, lam, index.h, index.transe))
        for doc_id, net in index.networks.items()
        if not prune or set(net.nodes) & set(query_net.nodes)
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


UNRELATED = "totally unrelated wording"


class TestIndexCorpus:
    def test_doc_keyed_maps_aligned(self, pipeline):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 3, seed=1)
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
        rows = index.rows
        assert rows.doc_ids == sorted(index.networks) == sorted(index.wl_vectors) == sorted(d.id for d in corpus)
        assert len(rows.label_ptr) == index.compressor.next_id + 1
        postings: dict[str, dict[int, int]] = {doc_id: {} for doc_id in rows.doc_ids}
        for label in range(index.compressor.next_id):
            span = slice(rows.label_ptr[label], rows.label_ptr[label + 1])
            assert rows.label_rows[span].tolist() == sorted(rows.label_rows[span].tolist())
            for row, count in zip(rows.label_rows[span].tolist(), rows.label_counts[span].tolist()):
                postings[rows.doc_ids[row]][label] = count
        for row, doc_id in enumerate(rows.doc_ids):
            vec = index.wl_vectors[doc_id]
            assert postings[doc_id] == vec.counts
            assert rows.self_dots[row] == wl_dot(vec, vec)
            emb = doc_embedding(index.networks[doc_id], transe_model).vector
            assert rows.embeddings[row].tolist() == emb.tolist()
            assert rows.embedding_norms[row] == np.linalg.norm(emb)

    def test_empty_corpus_round_trips(self, pipeline, tmp_path):
        lexicon, kb, transe_model, config = pipeline
        index = index_corpus([], lexicon, config, kb=kb, transe=transe_model)
        path = tmp_path / "empty.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.networks == {}
        assert search(loaded, "fever", 5) == []

    def test_duplicate_doc_id_rejected(self, pipeline):
        lexicon, kb, transe_model, config = pipeline
        docs = [Document("d", "", "fever"), Document("d", "", "cough")]
        with pytest.raises(ValidationError, match="duplicate document id"):
            index_corpus(docs, lexicon, config, kb=kb, transe=transe_model)

    def test_indexing_twice_byte_identical(self, pipeline, tmp_path):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 5, seed=2)
        paths = []
        for name in ("first.idx", "second.idx"):
            index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
            path = tmp_path / name
            save_index(index, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestSearch:
    def test_verbatim_document_retrieves_itself(self, pipeline, small_index):
        corpus, index = small_index
        for lam in (0.0, 0.6, 1.0):
            for doc in corpus:
                results = search(index, doc.content(), 3, lam=lam)
                assert results[0].doc_id == doc.id
                assert results[0].score == pytest.approx(1.0, abs=1e-9)
                assert results[0].rank == 1

    def test_pruned_query_without_shared_concepts_is_empty(self, small_index):
        _, index = small_index
        assert search(index, "totally unrelated wording", 5, prune=True) == []

    def test_ranks_consecutive_and_scores_sorted(self, small_index):
        corpus, index = small_index
        results = search(index, corpus[0].content(), len(corpus))
        assert [r.rank for r in results] == list(range(1, len(results) + 1))
        scores = [r.score for r in results]
        assert scores == sorted(scores, reverse=True)

    def test_matches_exhaustive_oracle(self, small_index):
        corpus, index = small_index
        query = "fever and cough treated using aspirin after cardiac arrest"
        for prune in (False, True):
            results = search(index, query, len(corpus), lam=0.6, prune=prune)
            expected = oracle_results(index, query, 0.6, prune)
            assert [r.doc_id for r in results] == [doc_id for doc_id, _ in expected]
            for result, (_, score) in zip(results, expected):
                assert result.score == pytest.approx(score, abs=1e-9)

    def test_pruned_is_prefix_consistent_subset(self, pipeline, small_index):
        corpus, index = small_index
        query = "aspirin for hypertension and renal failure"
        unpruned = search(index, query, len(corpus), prune=False)
        pruned = search(index, query, len(corpus), prune=True)
        pruned_ids = {r.doc_id for r in pruned}
        filtered = [r.doc_id for r in unpruned if r.doc_id in pruned_ids]
        assert [r.doc_id for r in pruned] == filtered

    def test_k_limits_results(self, small_index):
        corpus, index = small_index
        assert len(search(index, corpus[0].content(), 2)) == 2

    def test_truncated_results_are_a_prefix_of_the_full_ranking(self, small_index):
        corpus, index = small_index
        query = corpus[2].content()
        full = search(index, query, len(corpus))
        top3 = search(index, query, 3)
        assert [(r.doc_id, r.score) for r in top3] == [(r.doc_id, r.score) for r in full[:3]]

    def test_bad_arguments(self, small_index):
        _, index = small_index
        with pytest.raises(UsageError):
            search(index, "fever", 0)
        with pytest.raises(UsageError):
            search(index, "fever", 3, lam=1.2)

    def test_search_leaves_index_compressor_unchanged(self, small_index):
        _, index = small_index
        before = dict(index.compressor.table)
        search(index, "fever with severe skin rash and blood clot", 3)
        assert index.compressor.table == before


class TestCollectionGraph:
    def test_zero_threshold_keeps_all_pairs(self, small_index):
        corpus, index = small_index
        graph = build_collection_graph(index, lam=0.6, tau_doc=0.0)
        n = len(corpus)
        assert len(graph.edges) == n * (n - 1) // 2
        for doc_a, doc_b, _ in graph.edges:
            assert doc_a < doc_b

    def test_threshold_one_keeps_only_duplicates(self, pipeline, tmp_path):
        lexicon, kb, transe_model, config = pipeline
        docs = [
            Document("a", "", "aspirin treats fever."),
            Document("b", "", "aspirin treats fever."),
            Document("c", "", "insulin for diabetes."),
        ]
        index = index_corpus(docs, lexicon, config, kb=kb, transe=transe_model)
        graph = build_collection_graph(index, lam=0.6, tau_doc=1.0 - 1e-12)
        assert [(a, b) for a, b, _ in graph.edges] == [("a", "b")]

    def test_matches_pairwise_oracle(self, pipeline, small_index):
        corpus, index = small_index
        graph = build_collection_graph(index, lam=0.6, tau_doc=0.5)
        expected = []
        ids = sorted(index.networks)
        for i, doc_a in enumerate(ids):
            for doc_b in ids[i + 1 :]:
                score = helpers.oracle_combined(
                    index.networks[doc_a], index.networks[doc_b], 0.6, index.h, index.transe
                )
                if score >= 0.5:
                    expected.append((doc_a, doc_b))
        assert [(a, b) for a, b, _ in graph.edges] == expected
        for (_, _, got), (a, b) in zip(graph.edges, expected):
            want = helpers.oracle_combined(index.networks[a], index.networks[b], 0.6, index.h, index.transe)
            assert got == pytest.approx(want, abs=1e-9)

    def test_dot_export_shape(self, small_index):
        _, index = small_index
        graph = build_collection_graph(index, lam=0.6, tau_doc=0.0)
        dot = collection_graph_to_dot(graph)
        assert dot.startswith("graph collection {\n")
        assert dot.endswith("}\n")
        doc_a, doc_b, score = graph.edges[0]
        assert f'"{doc_a}" -- "{doc_b}" [label={score:.3f}];' in dot


class TestPersistence:
    def test_round_trip_preserves_search(self, pipeline, small_index, tmp_path):
        corpus, index = small_index
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        loaded = load_index(path)
        query = corpus[3].content()
        assert search(loaded, query, 5) == search(index, query, 5)

    def test_version_mismatch_rejected(self, small_index, tmp_path):
        _, index = small_index
        path = tmp_path / "wrong.idx"
        from casegraph.engine import index_to_dict

        payload = index_to_dict(index)
        payload["version"] = 99
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(FormatError, match="version"):
            load_index(path)

    def test_non_index_file_rejected(self, tmp_path):
        path = tmp_path / "noise.idx"
        path.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
        with pytest.raises(FormatError):
            load_index(path)


class TestLoadConsistency:
    def load_edited(self, index, tmp_path, edit):
        from casegraph.engine import index_to_dict

        payload = index_to_dict(index)
        edit(payload)
        path = tmp_path / "edited.idx"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_index(path)

    def test_document_missing_from_wl(self, small_index, tmp_path):
        _, index = small_index
        with pytest.raises(FormatError, match="different documents"):
            self.load_edited(index, tmp_path, lambda payload: payload["wl"].pop(sorted(payload["wl"])[0]))

    def test_invalid_config(self, small_index, tmp_path):
        _, index = small_index
        with pytest.raises(FormatError, match="--h"):
            self.load_edited(index, tmp_path, lambda payload: payload["config"].update(h=-1))

    def test_non_integer_wl_label(self, small_index, tmp_path):
        _, index = small_index

        def edit(payload):
            counts = payload["wl"][sorted(payload["wl"])[0]]
            counts["x"] = counts.pop(next(iter(counts)))

        with pytest.raises(FormatError, match="malformed"):
            self.load_edited(index, tmp_path, edit)

    def test_derived_maps_match_fresh_index(self, small_index, tmp_path):
        _, index = small_index
        loaded = self.load_edited(index, tmp_path, lambda payload: None)
        assert loaded.rows.doc_ids == index.rows.doc_ids
        for name in ("label_ptr", "label_rows", "label_counts", "self_dots", "embeddings", "embedding_norms"):
            fresh, rebuilt = getattr(index.rows, name), getattr(loaded.rows, name)
            assert rebuilt.dtype == fresh.dtype and rebuilt.shape == fresh.shape, name
            assert np.array_equal(rebuilt, fresh), name

    @pytest.mark.parametrize(
        "label, count, match",
        [
            ("-1", 1, "outside"),
            ("next_id", 1, "outside"),
            ("99999999999999999999999", 1, "malformed"),
            ("0", "2", "integers"),
            ("0", True, "integers"),
            ("0", 1.0, "integers"),
            ("0", None, "integers"),
            ("0", 0, "positive"),
            ("0", -3, "positive"),
        ],
    )
    def test_bad_wl_entry(self, small_index, tmp_path, label, count, match):
        _, index = small_index

        def edit(payload):
            key = str(payload["compressor"]["next_id"]) if label == "next_id" else label
            payload["wl"][sorted(payload["wl"])[0]][key] = count

        with pytest.raises(FormatError, match=match):
            self.load_edited(index, tmp_path, edit)

    @pytest.mark.parametrize("next_id", [-1, "12", 3.0, True, None])
    def test_bad_next_id(self, small_index, tmp_path, next_id):
        _, index = small_index
        with pytest.raises(FormatError, match="next_id"):
            self.load_edited(index, tmp_path, lambda payload: payload["compressor"].update(next_id=next_id))


class TestMatrixPathOracle:
    """Scoring the whole collection at once, against the pairwise oracle."""

    COPIES = ["doc003", "doc003-copy", "zz-copy"]

    @pytest.fixture(scope="class", params=["transe", "no-model"])
    def indexed(self, request, pipeline):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 10, seed=5)
        # Copies of doc003 both next to it and in the last row, where a blocked
        # matrix-vector product may round differently.
        original = corpus[3]
        corpus += [Document(copy_id, original.title, original.text) for copy_id in self.COPIES[1:]]
        corpus.append(Document("empty", "", "nothing here names a known concept"))
        model = transe_model if request.param == "transe" else None
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=model)
        assert index.networks["empty"].nodes == {}
        queries = [
            "fever and cough treated using aspirin after cardiac arrest",
            "aspirin for hypertension and renal failure",
            original.content(),
            UNRELATED,
            "",
        ]
        return index, queries

    @pytest.mark.parametrize("prune", [False, True])
    @pytest.mark.parametrize("lam", [0.0, 0.6, 1.0])
    def test_search_matches_oracle(self, indexed, prune, lam):
        index, queries = indexed
        n = len(index.networks)
        for text in queries:
            expected = oracle_results(index, text, lam, prune)
            for k in (1, 4, n + 5):
                results = search(index, text, k, lam=lam, prune=prune)
                assert [r.doc_id for r in results] == [doc_id for doc_id, _ in expected[:k]], (text, k)
                assert [r.rank for r in results] == list(range(1, len(results) + 1))
                for result, (_, score) in zip(results, expected):
                    assert result.score == pytest.approx(score, abs=1e-9)

    def test_duplicates_tie_exactly_in_doc_id_order(self, indexed):
        index, queries = indexed
        for text in queries:
            results = search(index, text, len(index.networks))
            copies = [r for r in results if r.doc_id in self.COPIES]
            assert [r.doc_id for r in copies] == self.COPIES
            assert copies[0].score == copies[1].score == copies[2].score
            keys = [(-r.score, r.doc_id) for r in results]
            assert keys == sorted(keys)

    def test_query_sharing_no_concept(self, indexed):
        index, _ = indexed
        assert search(index, UNRELATED, 5, prune=True) == []
        unpruned = search(index, UNRELATED, len(index.networks) + 5)
        assert [(r.doc_id, r.score) for r in unpruned] == [(doc_id, 0.0) for doc_id in sorted(index.networks)]

    def test_pruned_is_unpruned_filtered_to_shared_nodes(self, indexed):
        index, queries = indexed
        for text in queries:
            query_nodes = set(query_network(index, text).nodes)
            unpruned = search(index, text, len(index.networks))
            pruned = search(index, text, len(index.networks), prune=True)
            shared = [(r.doc_id, r.score) for r in unpruned if set(index.networks[r.doc_id].nodes) & query_nodes]
            assert [(r.doc_id, r.score) for r in pruned] == shared

    def test_collection_graph_matches_oracle_over_all_pairs(self, indexed):
        index, _ = indexed
        graph = build_collection_graph(index, lam=0.6, tau_doc=0.0)
        ids = sorted(index.networks)
        assert [(a, b) for a, b, _ in graph.edges] == [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
        for doc_a, doc_b, score in graph.edges:
            want = helpers.oracle_combined(index.networks[doc_a], index.networks[doc_b], 0.6, index.h, index.transe)
            assert score == pytest.approx(want, abs=1e-9)
