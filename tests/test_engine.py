from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from casegraph import engine
from casegraph.config import PipelineConfig, flag
from casegraph.engine import (
    _top_rows,
    analyze,
    build_collection_graph,
    collection_graph_to_dot,
    document_network,
    index_corpus,
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
    search,
)
from casegraph.errors import FormatError, UsageError, ValidationError
from casegraph.kb import Document, Triple, build_lexicon, build_triple_store
from casegraph.network import (
    Edge,
    NetworkRows,
    Node,
    SemanticNetwork,
    check_columns,
    columns_from_dict,
    columns_to_dict,
    network_from_columns,
)
from casegraph.relations import (
    ExtractorHyperparams,
    ExtractorModel,
    RelationInstance,
    distant_label,
    featurize_pairs,
    train_extractor,
)
from casegraph.similarity import LabelCompressor, doc_embedding, wl_corpus_labels, wl_features, wl_label_history
from casegraph.transe import EmbeddingModel, TrainConfig, init_model, row_norms, train


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
        assert rows.doc_ids == sorted(index.networks) == sorted(d.id for d in corpus)
        assert len(rows.ptr) == len(rows.doc_ids) + 1
        assert len(rows.label_ptr) == index.compressor.next_id + 1
        postings: dict[str, Counter] = {doc_id: Counter() for doc_id in rows.doc_ids}
        for label in range(index.compressor.next_id):
            span = slice(rows.label_ptr[label], rows.label_ptr[label + 1])
            assert rows.label_rows[span].tolist() == sorted(rows.label_rows[span].tolist())
            for row in rows.label_rows[span].tolist():
                postings[rows.doc_ids[row]][label] += 1
        for row, doc_id in enumerate(rows.doc_ids):
            counts = wl_features(index.networks[doc_id], index.h, index.compressor.overlay())
            own = slice(rows.ptr[row], rows.ptr[row + 1])
            # A row and the inverted index hold the network's label multiset, one entry per occurrence.
            assert rows.labels[own].tolist() == sorted(Counter(counts).elements())
            assert postings[doc_id] == counts
            assert rows.self_dots[row] == helpers.oracle_wl_dot(counts, counts)
            emb = doc_embedding(index.networks[doc_id], transe_model)
            assert rows.embeddings[row].tolist() == emb.tolist()
            assert rows.embedding_norms[row] == np.linalg.norm(emb)

    def test_embeddings_are_doc_embedding_bit_for_bit(self, pipeline):
        # All rows are embedded in one pass; each must keep doc_embedding's
        # summation order, also when some nodes have no entity vector.
        lexicon, kb, transe_model, config = pipeline
        dropped = sorted(transe_model.entity_vectors)[::3]
        model = EmbeddingModel(
            {cui: vec for cui, vec in transe_model.entity_vectors.items() if cui not in dropped},
            transe_model.relation_vectors,
            transe_model.config,
        )
        corpus = helpers.synth_corpus(lexicon, 40, seed=9) + [Document("empty", "", UNRELATED)]
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=model)
        assert any(set(net.nodes) & set(dropped) for net in index.networks.values())
        for row, doc_id in enumerate(index.rows.doc_ids):
            emb = doc_embedding(index.networks[doc_id], model)
            assert index.rows.embeddings[row].tobytes() == emb.tobytes(), doc_id
            assert index.rows.embedding_norms[row] == np.linalg.norm(emb), doc_id

    @settings(max_examples=200)
    @given(st.integers(0, 9), st.integers(0, 200), st.sampled_from([1e-3, 1e-1, 1.0, 1e1, 1e3]), st.integers(0, 2**32 - 1))
    def test_row_norms_are_np_linalg_norm_bit_for_bit(self, rows, dim, scale, seed):
        matrix = np.random.default_rng(seed).normal(0.0, scale, (rows, dim))
        assert row_norms(matrix).tolist() == [float(np.linalg.norm(row)) for row in matrix]

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

    @pytest.mark.parametrize("doc_id", ["d 1", "d\n1", "d\u00a01", ""])
    def test_doc_id_a_run_line_cannot_hold_rejected(self, pipeline, doc_id):
        lexicon, kb, transe_model, config = pipeline
        docs = [Document("d0", "", "fever"), Document(doc_id, "", "cough")]
        with pytest.raises(ValidationError, match=f"^document id {re.escape(repr(doc_id))} is empty or holds whitespace"):
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


def test_analyze_pairs_given_mentions_without_linking(pipeline, monkeypatch):
    lexicon, _, _, config = pipeline
    doc = helpers.synth_corpus(lexicon, 1, seed=4)[0]
    analysis = analyze(doc, lexicon, config.window)
    assert analysis.pairs
    monkeypatch.setattr(engine, "link", lambda *args, **kwargs: pytest.fail("linked despite given mentions"))
    assert analyze(doc, lexicon, config.window, list(analysis.mentions)) == analysis
    unlinked = analyze(doc, lexicon, config.window, [])
    assert (unlinked.tokens, list(unlinked.mentions), list(unlinked.pairs)) == (analysis.tokens, [], [])


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

    def test_dot_ids_with_backslashes_and_quotes_stay_quoted(self, pipeline):
        # Unescaped, a backslash ending an id would escape the quote that closes it.
        lexicon, kb, transe_model, config = pipeline
        ids = ["a\\", 'b"c\\', 'd\\"e']
        corpus = [replace(doc, id=doc_id) for doc, doc_id in zip(helpers.synth_corpus(lexicon, 3, seed=3), ids)]
        graph = build_collection_graph(index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model), 0.6, 0.0)
        quoted = r'"((?:[^"\\]|\\.)*)"'
        lines = collection_graph_to_dot(graph).splitlines()[1:-1]
        assert len(lines) == 3
        for line, (doc_a, doc_b, score) in zip(lines, graph.edges):
            tokens = re.fullmatch(rf"  {quoted} -- {quoted} \[label=([0-9.]+)\];", line)
            assert tokens is not None, line
            assert [re.sub(r"\\(.)", r"\1", token) for token in tokens.groups()[:2]] == [doc_a, doc_b]
            assert tokens[3] == f"{score:.3f}"


@pytest.fixture(scope="module")
def varied_index(pipeline):
    """An index with duplicate documents, empty networks and zero embeddings from nodes the model has no vector for."""
    lexicon, kb, transe_model, config = pipeline
    dropped = set(sorted(transe_model.entity_vectors)[::3])
    model = EmbeddingModel(
        {cui: vec for cui, vec in transe_model.entity_vectors.items() if cui not in dropped},
        transe_model.relation_vectors,
        transe_model.config,
    )
    unknown = [s for s, cuis in sorted(lexicon.surface_index.items()) if " " not in s and cuis[0] in dropped][:2]
    corpus = helpers.synth_corpus(lexicon, 40, seed=9)
    corpus += [Document(f"{doc.id}-copy", doc.title, doc.text) for doc in corpus[:4]]
    corpus += [Document("empty-1", "", UNRELATED), Document("empty-2", "", UNRELATED)]
    corpus += [Document("unembedded", "", f"{unknown[0]} reported {unknown[1]}.")]
    index = index_corpus(corpus, lexicon, config, kb=kb, transe=model)
    row = index.rows.doc_ids.index("unembedded")
    assert index.rows.embedding_norms[row] == 0.0 < index.rows.self_dots[row]
    return index


class TestBlockedCollectionGraph:
    """Row blocks against ``helpers.oracle_collection_graph``, the per-row scorer, compared with float ``==``."""

    @pytest.fixture()
    def blocks(self, monkeypatch):
        """The (first row, row count) of every block whose kernel is computed."""
        seen: list[tuple[int, int]] = []
        original = engine._kernel_rows

        def recording(rows, owners, labels, queries, start=0):
            seen.append((start, queries))
            return original(rows, owners, labels, queries, start)

        monkeypatch.setattr(engine, "_kernel_rows", recording)
        return seen

    @pytest.mark.parametrize("numbers", [1, 60, 700, 2**15])
    def test_blocks_match_oracle(self, varied_index, monkeypatch, blocks, numbers):
        monkeypatch.setattr(engine, "_BLOCK_NUMBERS", numbers)
        n = len(varied_index.rows.doc_ids)
        for lam in (0.0, 0.6, 1.0):
            for tau_doc in (0.0, 0.3, 1.0):
                blocks.clear()
                graph = build_collection_graph(varied_index, lam, tau_doc)
                assert graph.edges == helpers.oracle_collection_graph(varied_index, lam, tau_doc)
                assert [start for start, _ in blocks] == list(np.cumsum([0] + [size for _, size in blocks[:-1]]))
                assert sum(size for _, size in blocks) == n
                assert len(blocks) > 1 if numbers < 2**15 else len(blocks) == 1

    @pytest.fixture(params=[0.0, 1.0], ids=["dense", "pairs"])
    def share(self, request, monkeypatch):
        """Every block forced onto one cosine path: share 0 takes the dense one, share 1 the pairs."""
        monkeypatch.setattr(engine, "_PAIR_SHARE", request.param)
        return request.param

    @pytest.fixture()
    def dense(self, monkeypatch):
        """One entry per call of the dense cosine half."""
        calls: list[int] = []
        original = engine._cosines
        monkeypatch.setattr(engine, "_cosines", lambda *args: calls.append(1) or original(*args))
        return calls

    @pytest.mark.parametrize("numbers", [60, 2**15])
    def test_each_cosine_path_matches_oracle(self, varied_index, pipeline, monkeypatch, share, dense, numbers):
        monkeypatch.setattr(engine, "_BLOCK_NUMBERS", numbers)
        lexicon, kb, _, config = pipeline
        unembedded = index_corpus(helpers.synth_corpus(lexicon, 20, seed=4), lexicon, config, kb=kb)  # no TransE model
        for index in (varied_index, unembedded):
            for lam in (0.0, 0.6, 1.0):
                scores = sorted({score for _, _, score in helpers.oracle_collection_graph(index, lam, 0.0)})
                for tau_doc in (0.0, 1.0 - lam, 0.5, scores[len(scores) // 2], 1.0):
                    edges = build_collection_graph(index, lam, tau_doc).edges
                    assert edges == helpers.oracle_collection_graph(index, lam, tau_doc), (lam, tau_doc)
        # Duplicates score 1.0, where at lam 0.6 lam * kernel sits on tau_doc - (1 - lam).
        kept = {(a, b) for a, b, _ in build_collection_graph(varied_index, 0.6, 1.0).edges}
        assert {("doc000", "doc000-copy"), ("doc003", "doc003-copy")} <= kept
        assert bool(dense) == (share == 0.0)

    def test_cut_keeps_every_score_the_graph_holds(self, varied_index, share):
        # Each kept score as tau_doc: its pair must survive the kernel cut, also where rounding
        # puts lam * kernel just below tau_doc - (1 - lam), as for pairs of equal embeddings.
        for lam in (0.3, 0.6, 0.9):
            for a, b, score in helpers.oracle_collection_graph(varied_index, lam, 0.0):
                if score >= 1.0 - lam:
                    assert (a, b, score) in build_collection_graph(varied_index, lam, score).edges, (lam, a, b)

    def test_a_pair_at_the_cut_is_a_candidate(self, varied_index, monkeypatch, dense):
        # At lam 1 the cut is tau_doc - 1e-9; a tau_doc that puts it exactly on a kernel value
        # makes its pairs candidates, and one candidate more than _PAIR_SHARE allows is dense.
        rows, n = varied_index.rows, len(varied_index.rows.doc_ids)
        kernel, _ = engine._kernel_rows(rows, np.repeat(np.arange(n), np.diff(rows.ptr)), rows.labels, n)
        upper = kernel[np.triu_indices(n, 1)]
        cut = np.sort(upper)[-len(upper) // 50]
        tau_doc = next(float(t) for t in cut + 1e-9 + np.arange(-8, 9) * np.spacing(cut) if t - 1e-9 == cut)
        monkeypatch.setattr(engine, "_PAIR_SHARE", (np.sum(upper >= cut) - 0.5) / kernel.size)
        edges = build_collection_graph(varied_index, 1.0, tau_doc).edges
        assert edges == helpers.oracle_collection_graph(varied_index, 1.0, tau_doc)
        assert dense

    def test_pair_einsum_has_the_block_bits(self):
        # The pair path reduces each pair as the block's einsum does, whatever the operand order.
        rng = np.random.default_rng(7)
        for dim in range(1, 65):
            for shape in ((9, dim), (1, dim)):
                x, y = (rng.normal(size=(9, dim)) * 10.0 ** rng.uniform(-3, 3, size=shape) for _ in range(2))
                block = np.einsum("ij,kj->ki", x, y)
                a, b = (axis.ravel() for axis in np.indices(block.shape))
                for first, second in ((x[b], y[a]), (y[a], x[b])):
                    assert np.einsum("ij,ij->i", first, second).tolist() == block[a, b].tolist(), dim

    def test_duplicates_and_empty_networks(self, varied_index):
        edges = {(a, b): score for a, b, score in build_collection_graph(varied_index, 0.6, 1.0).edges}
        assert {("doc000", "doc000-copy"), ("doc003", "doc003-copy")} <= set(edges)
        assert ("empty-1", "empty-2") not in edges  # empty graphs and zero embeddings score 0

    def test_threshold_at_a_score(self, varied_index, monkeypatch):
        monkeypatch.setattr(engine, "_BLOCK_NUMBERS", 60)
        scores = sorted({score for _, _, score in helpers.oracle_collection_graph(varied_index, 0.6, 0.0)})
        for tau_doc in (scores[1], scores[len(scores) // 2], scores[-1]):
            edges = build_collection_graph(varied_index, 0.6, tau_doc).edges
            assert edges == helpers.oracle_collection_graph(varied_index, 0.6, tau_doc)
            assert min(score for _, _, score in edges) == tau_doc

    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_tiny_collections(self, pipeline, count):
        lexicon, kb, transe_model, config = pipeline
        index = index_corpus(helpers.synth_corpus(lexicon, count, seed=5), lexicon, config, kb=kb, transe=transe_model)
        for tau_doc in (0.0, 0.5):
            edges = build_collection_graph(index, 0.6, tau_doc).edges
            assert edges == helpers.oracle_collection_graph(index, 0.6, tau_doc)
        assert len(build_collection_graph(index, 0.6, 0.0).edges) == count * (count - 1) // 2

    def test_without_embedding_model(self, pipeline, monkeypatch):
        lexicon, kb, _, config = pipeline
        index = index_corpus(helpers.synth_corpus(lexicon, 20, seed=4), lexicon, config, kb=kb)
        assert index.rows.embeddings.shape == (20, 0)
        monkeypatch.setattr(engine, "_BLOCK_NUMBERS", 60)
        for tau_doc in (0.0, 0.4):
            assert build_collection_graph(index, 0.6, tau_doc).edges == helpers.oracle_collection_graph(index, 0.6, tau_doc)

    def test_loaded_index(self, varied_index, tmp_path, monkeypatch):
        path = tmp_path / "varied.idx"
        save_index(varied_index, path)
        loaded = load_index(path)
        monkeypatch.setattr(engine, "_BLOCK_NUMBERS", 60)
        edges = build_collection_graph(loaded, 0.6, 0.3).edges
        assert edges == helpers.oracle_collection_graph(loaded, 0.6, 0.3)
        assert edges == build_collection_graph(varied_index, 0.6, 0.3).edges

    def test_search_is_the_one_row_oracle(self, varied_index):
        index = varied_index
        for text in ("fever with severe skin rash and blood clot", "aspirin", UNRELATED):
            net = query_network(index, text)
            counts = wl_features(net, index.h, index.compressor.overlay())
            scores, dots = helpers.oracle_score_row(
                index,
                helpers.oracle_doc_counts(index),
                np.fromiter(counts, np.int64, len(counts)),
                np.fromiter(counts.values(), np.int64, len(counts)),
                doc_embedding(net, index.transe),
                0.6,
            )
            for prune in (False, True):
                rows = [row for row in range(len(scores)) if dots[row] or not prune]
                rows.sort(key=lambda row: -scores[row])  # stable: ties keep doc id order
                want = [(index.rows.doc_ids[row], float(scores[row])) for row in rows]
                got = search(index, text, len(scores), lam=0.6, prune=prune)
                assert [(r.doc_id, r.score) for r in got] == want

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_lambda_outside_unit_interval(self, small_index, lam):
        _, index = small_index
        with pytest.raises(UsageError, match="lambda must be within"):
            build_collection_graph(index, lam=lam, tau_doc=0.5)


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


def edit_networks(key, edit, kind="int32"):
    """An edit of one column of the stored networks."""
    return lambda networks: helpers.edit_column(networks, key, edit, kind)


class TestConfigAtIndexing:
    @pytest.mark.parametrize(
        "field, value",
        [("mode", "modle"), ("window", -5), ("lambda_weight", 2), ("tau_doc", 7), ("k", 0), ("theta_rel", 3)],
    )
    def test_config_the_loader_refuses_is_refused_before_indexing(self, pipeline, tmp_path, field, value):
        # Each of these used to index and save, and the loader then refused the file.
        lexicon, kb, _, _ = pipeline
        corpus = helpers.synth_corpus(lexicon, 3, seed=3)
        with pytest.raises(UsageError, match=f"^{flag(field)} "):
            save_index(index_corpus(corpus, lexicon, PipelineConfig(**{field: value}), kb), tmp_path / "corpus.idx")

    def test_config_cannot_change_under_a_built_index(self, pipeline):
        # An index used to share its caller's config, so editing it changed later searches.
        lexicon, kb, transe_model, _ = pipeline
        corpus = helpers.synth_corpus(lexicon, 8, seed=3)
        config = PipelineConfig(mode="kbmatch", h=3, lambda_weight=0.6)
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
        query = corpus[3].content()
        before = search(index, query, 5)
        with pytest.raises(FrozenInstanceError):
            config.h = 0
        with pytest.raises(FrozenInstanceError):
            config.lambda_weight = 1.0
        assert search(index, query, 5) == before


class TestLoadConsistency:
    def load_edited(self, index, tmp_path, edit):
        from casegraph.engine import index_to_dict

        payload = index_to_dict(index)
        edit(payload)
        path = tmp_path / "edited.idx"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return load_index(path)

    def test_document_missing_from_networks(self, small_index, tmp_path):
        _, index = small_index
        with pytest.raises(FormatError, match="different documents"):
            self.load_edited(index, tmp_path, lambda payload: helpers.edit_column(payload["networks"], "node_ptr", list.pop))

    @pytest.mark.parametrize("docs", [["b", "a"], ["a", "a"], [1, 2]], ids=["unsorted", "duplicate", "not strings"])
    def test_bad_doc_ids(self, small_index, tmp_path, docs):
        _, index = small_index

        def edit(payload):
            payload["docs"][: len(docs)] = docs

        with pytest.raises(FormatError, match="doc ids"):
            self.load_edited(index, tmp_path, edit)

    @pytest.mark.parametrize("position, edit", [(0, " {}"), (0, ""), (-1, "{} x")], ids=["leading space", "empty", "inner space"])
    def test_doc_id_a_run_line_cannot_hold(self, small_index, tmp_path, position, edit):
        # An index written before ids were refused at indexing (or edited by hand) is refused when it loads,
        # not after a search has scored every query.
        _, index = small_index
        bad = edit.format(index.rows.doc_ids[position])

        def edit_docs(payload):
            payload["docs"][position] = bad

        with pytest.raises(FormatError, match=f"edited.idx: document id {re.escape(repr(bad))} is empty or holds whitespace"):
            self.load_edited(index, tmp_path, edit_docs)

    def test_invalid_config(self, small_index, tmp_path):
        _, index = small_index
        with pytest.raises(FormatError, match="--h"):
            self.load_edited(index, tmp_path, lambda payload: payload["config"].update(h=-1))

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda payload: payload["config"].update(h=1.5), "config h must be int"),
            # v5 stored the width, and these damaged it; v6 derives it from the surfaces, so they damage those.
            (lambda payload: payload["lexicon"]["surfaces"].__setitem__(0, " fever"), "' fever' must be non-empty words"),
            (
                lambda payload: helpers.edit_column(payload["lexicon"], "surface_concepts", lambda ids: ids.__setitem__(0, None)),
                "surface_concepts must be base64",
            ),
            # These used to load: a width of 0 then linked nothing, and a string of cuis was read as its characters.
            (lambda payload: payload["lexicon"]["surfaces"].__setitem__(0, ""), "'' must be non-empty words"),
            (
                lambda payload: payload["lexicon"]["surfaces"].__setitem__(-1, payload["lexicon"]["surfaces"][-1].replace(" ", "  ")),
                "must be non-empty words joined by single spaces",
            ),
            (lambda payload: payload["lexicon"].update(surface_concepts="C0001"), "surface_concepts must be base64"),
            (
                lambda payload: helpers.edit_column(
                    payload["lexicon"], "surface_concepts", lambda ids: ids.__setitem__(0, len(payload["lexicon"]["cuis"]))
                ),
                "concept id [0-9]+ outside",
            ),
            (lambda payload: payload["lexicon"]["names"].__setitem__(0, 7), "lexicon names must be a list of strings"),
            (lambda payload: payload["lexicon"].update(synonyms="fever"), "lexicon synonyms must be a list of strings"),
            (lambda payload: payload["lexicon"]["synonyms"].__setitem__(0, None), "lexicon synonyms must be a list of strings"),
            (lambda payload: payload["lexicon"]["cuis"].__setitem__(1, payload["lexicon"]["cuis"][0]), "stored twice"),
        ],
        ids=[
            "config type", "lexicon width", "lexicon surface", "lexicon width 0", "lexicon width too large",
            "lexicon cuis a string", "lexicon unknown cui", "lexicon name", "lexicon synonyms a string", "lexicon synonym",
            "lexicon concept twice",
        ],
    )
    def test_bad_config_or_lexicon(self, small_index, tmp_path, edit, match):
        # The first three used to load and then fail inside search with a TypeError.
        _, index = small_index
        with pytest.raises(FormatError, match=match):
            self.load_edited(index, tmp_path, edit)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda kb: kb["relations"].append(kb["relations"][0]), "relations must be distinct"),
            (lambda kb: kb["relations"].append(3), "relations must be a list of strings"),
            (lambda kb: kb.update(relations="may_treat"), "relations must be a list of strings"),
            (lambda kb: kb.update(triples="abc"), "triples must be base64"),
            (lambda kb: helpers.edit_column(kb, "triples", lambda ids: ids.append(0)), "id rows"),
            (lambda kb: helpers.edit_column(kb, "triples", lambda ids: ids.__setitem__(2, len(kb["entities"]))), "tail id [0-9]+ outside"),
            (lambda kb: helpers.edit_column(kb, "triples", lambda ids: ids.__setitem__(1, len(kb["relations"]))), "relation id [0-9]+ outside"),
            (helpers.self_loop, "self-loop"),
        ],
        ids=[
            "duplicate relation", "relation not a string", "relations a string", "triple a string", "4 parts", "tail", "unlisted",
            "self-loop",
        ],
    )
    def test_inconsistent_kb(self, small_index, tmp_path, edit, match):
        # A triple "abc" used to load as the triple (a, b, c); a self-loop was a ValidationError without the path.
        _, index = small_index
        with pytest.raises(FormatError, match=match):
            self.load_edited(index, tmp_path, lambda payload: edit(payload["kb"]))

    @pytest.mark.parametrize("spoiler", sorted(helpers.INDEX_MODEL_SPOILERS))
    def test_bad_model_part(self, small_index, model_index, tmp_path, spoiler):
        # model_index holds the lexicon, the extractor and TransE; the triple store is read in kbmatch mode alone.
        part, spoil, match = helpers.INDEX_MODEL_SPOILERS[spoiler]
        index = small_index[1] if part == "kb" else model_index
        with pytest.raises(FormatError, match=match) as refused:
            self.load_edited(index, tmp_path, lambda payload: spoil(payload[part]))
        assert str(refused.value).startswith(f"{tmp_path / 'edited.idx'}: ")

    def test_derived_maps_match_fresh_index(self, small_index, tmp_path):
        _, index = small_index
        loaded = self.load_edited(index, tmp_path, lambda payload: None)
        assert loaded.rows.doc_ids == index.rows.doc_ids
        for name in ("ptr", "labels", "label_ptr", "label_rows", "self_dots", "embeddings", "embedding_norms"):
            fresh, rebuilt = getattr(index.rows, name), getattr(loaded.rows, name)
            assert rebuilt.dtype == fresh.dtype and rebuilt.shape == fresh.shape, name
            assert np.array_equal(rebuilt, fresh), name

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda ptr: ptr.append(ptr[-1]), "different documents"),
            (lambda ptr: ptr.pop(0), "different documents"),
            (lambda ptr: ptr.__setitem__(0, 1), "different documents"),
            (lambda ptr: ptr.__setitem__(1, ptr[2] + 1), "must not decrease"),
            (lambda ptr: ptr.__setitem__(2, True), "ptr must be base64"),
        ],
        ids=["extra entry", "missing entry", "not starting at 0", "decreasing", "boolean"],
    )
    def test_bad_ptr(self, small_index, tmp_path, edit, match):
        # A document's kernel labels are those of its nodes, so the node pointer is the kernel rows' pointer.
        _, index = small_index
        with pytest.raises(FormatError, match=match):
            self.load_edited(index, tmp_path, lambda payload: helpers.edit_column(payload["networks"], "node_ptr", edit))

    @pytest.mark.parametrize(
        "record, match",
        [
            # Each damages the stored network columns: the first document has
            # two nodes or more, and the first edge is its. The ids are those
            # of the per-document record cases that these columns replaced.
            pytest.param(lambda networks: networks["cuis"].__setitem__(0, 1), "cuis must be strings", id="record3-cuis must be strings"),
            pytest.param(
                edit_networks("node_cuis", lambda ids: ids.__setitem__(slice(0, 2), ids[1::-1])),
                "cuis must ascend",
                id="record4-cuis must ascend",
            ),
            pytest.param(
                edit_networks("node_cuis", lambda ids: ids.__setitem__(1, ids[0])), "cuis must ascend", id="record5-cuis must ascend"
            ),
            pytest.param(
                edit_networks("span_ptr", lambda ptr: ptr.__setitem__(1, ptr[1] - 1)), "even-length", id="record6-even-length"
            ),
            pytest.param(edit_networks("span_ptr", lambda ptr: ptr.__setitem__(1, 0)), "even-length", id="record7-even-length"),
            pytest.param(
                edit_networks("spans", lambda spans: spans.__setitem__(1, 3.0)), "spans must be base64", id="record8-lists of integers"
            ),
            pytest.param(
                edit_networks("spans", lambda spans: spans.__setitem__(1, True)), "spans must be base64", id="record9-lists of integers"
            ),
            pytest.param(lambda networks: networks.update(spans="03"), "spans must be base64", id="record10-lists of integers"),
            pytest.param(edit_networks("provenances", list.pop), "one item per edge", id="record13-network edge must be a list of 5 items"),
            pytest.param(lambda networks: networks["relations"].__setitem__(0, 7), "string relations", id="record14-string relations"),
            pytest.param(
                edit_networks("confidences", lambda conf: conf.__setitem__(0, 1), "float64"),
                "confidences must be base64 of little-endian float64",
                id="record15-float confidences",
            ),
            pytest.param(
                edit_networks("confidences", lambda conf: conf.__setitem__(0, True), "float64"),
                "confidences must be base64 of little-endian float64",
                id="record16-float confidences",
            ),
            pytest.param(
                edit_networks("confidences", lambda conf: conf.__setitem__(0, 0.0), "float64"),
                r"outside \(0, 1\]",
                id=r"record17-outside \(0, 1\]",
            ),
            pytest.param(
                edit_networks("confidences", lambda conf: conf.__setitem__(0, 1.5), "float64"),
                r"outside \(0, 1\]",
                id=r"record18-outside \(0, 1\]",
            ),
            pytest.param(
                edit_networks("confidences", lambda conf: conf.__setitem__(0, float("nan")), "float64"),
                r"outside \(0, 1\]",
                id=r"record19-outside \(0, 1\]",
            ),
        ],
    )
    def test_bad_network_record(self, small_index, tmp_path, record, match):
        _, index = small_index
        first = index.networks[index.rows.doc_ids[0]]
        assert len(first.nodes) >= 2 and first.edges
        with pytest.raises(FormatError, match=match):
            self.load_edited(index, tmp_path, lambda payload: record(payload["networks"]))

    @pytest.mark.parametrize("table", ["cuis", "relations"])
    @pytest.mark.parametrize("damage", ["swap", "duplicate"])
    def test_table_not_ascending(self, small_index, tmp_path, table, damage):
        # Ids ascend in table order, and a network's nodes must come out in cui order, once each.
        _, index = small_index

        def edit(payload):
            names = payload["networks"][table]
            names[:2] = names[1::-1] if damage == "swap" else names[:1] * 2

        with pytest.raises(FormatError, match=f"the network {table[:-1]} table must ascend strictly"):
            self.load_edited(index, tmp_path, edit)

    def test_edge_endpoint_of_another_document(self, small_index, tmp_path):
        # Every endpoint must be a node of the edge's own document: position n
        # of a document with n nodes is the first node of the next one.
        _, index = small_index
        doc_ids = index.rows.doc_ids
        row = next(row for row, doc_id in enumerate(doc_ids[:-1]) if index.networks[doc_id].edges)
        edge = sum(len(index.networks[doc_id].edges) for doc_id in doc_ids[:row])
        size = len(index.networks[doc_ids[row]].nodes)

        def edit(payload):
            helpers.edit_column(payload["networks"], "tails", lambda tails: tails.__setitem__(edge, size))

        with pytest.raises(FormatError, match=f"document {doc_ids[row]}: edge endpoint {size} has no node"):
            self.load_edited(index, tmp_path, edit)

    def test_v3_file_refused(self, small_index, tmp_path):
        _, index = small_index
        for version in (3, 4, 5):
            with pytest.raises(FormatError, match=f"unsupported casegraph-index version {version}"):
                self.load_edited(index, tmp_path, lambda payload: payload.update(version=version))


names = st.text(min_size=1, max_size=5)  # non-ASCII and control characters included


@st.composite
def lexicons(draw):
    """A lexicon whose cuis recur across rows, so that their synonyms merge, and whose surfaces recur across cuis."""
    cuis = draw(st.lists(names, unique=True, max_size=6))
    if not cuis:
        return build_lexicon([])
    fields = {cui: (draw(names), draw(st.text(max_size=4))) for cui in cuis}  # preferred name and semantic type
    surfaces = draw(st.lists(st.text(max_size=12), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(st.sampled_from(cuis), st.lists(st.sampled_from(surfaces), max_size=3)), max_size=10))
    return build_lexicon([(cui, fields[cui][0], synonyms, fields[cui][1]) for cui, synonyms in rows])


@st.composite
def triple_stores(draw):
    """A store built from its triples in name order, with relations declared first in any order, some without triples."""
    entities = draw(st.lists(names, unique=True, min_size=2, max_size=6))
    relations = draw(st.lists(names, unique=True, min_size=1, max_size=4))
    n = len(entities)
    triple = st.tuples(st.integers(0, n - 1), st.sampled_from(relations), st.integers(1, n - 1))  # the tail is head + offset
    store = build_triple_store(sorted((entities[h], r, entities[(h + k) % n]) for h, r, k in draw(st.lists(triple, max_size=12))))
    store.relations = list(dict.fromkeys([*draw(st.permutations(relations)), *store.relations]))
    return store


def float_rows(draw, rows: int, width: int) -> np.ndarray:
    values = st.floats(-1e100, 1e100)  # -0.0 and subnormals included
    return np.array(draw(st.lists(values, min_size=rows * width, max_size=rows * width)), dtype=float).reshape(rows, width)


@st.composite
def transe_models(draw):
    dim = draw(st.integers(1, 32))
    tables = []
    for _ in range(2):  # entities, then relations, each in name order as training makes them
        table = sorted(draw(st.lists(names, unique=True, min_size=1, max_size=5)))
        tables.append(dict(zip(table, float_rows(draw, len(table), dim))))
    return EmbeddingModel(*tables, TrainConfig(dim=dim, seed=draw(st.integers(0, 2**31 - 1))))


@st.composite
def extractors(draw):
    features = sorted(draw(st.lists(names, unique=True, max_size=6)))
    labels = ["NA", *draw(st.lists(names.filter(lambda label: label != "NA"), unique=True, min_size=1, max_size=3))]
    weights = float_rows(draw, len(labels), len(features))
    return ExtractorModel(dict(zip(features, range(len(features)))), weights, labels, ExtractorHyperparams(epochs=draw(st.integers(0, 9))))


class TestModelPartsRoundTrip:
    @settings(max_examples=60)
    @given(lexicon=lexicons(), kb=triple_stores(), transe=transe_models(), extractor=extractors())
    def test_models_keep_bits_and_orders(self, lexicon, kb, transe, extractor):
        # An index keeps the triple store in kbmatch mode and the extractor in model mode.
        indexes = []
        for mode in ("kbmatch", "model"):
            stored = index_to_dict(index_corpus([], lexicon, PipelineConfig(mode=mode), kb, extractor, transe))
            loaded = index_from_dict(json.loads(json.dumps(stored)))
            assert json.dumps(index_to_dict(loaded)) == json.dumps(stored)
            indexes.append(loaded)
        with_kb, loaded = indexes
        assert (with_kb.kb.triples, with_kb.kb.relations, with_kb.kb.entities) == (kb.triples, kb.relations, kb.entities)
        assert list(with_kb.kb.by_pair.items()) == list(kb.by_pair.items())
        assert list(loaded.lexicon.concepts.items()) == list(lexicon.concepts.items())
        assert list(loaded.lexicon.surface_index.items()) == sorted(lexicon.surface_index.items())  # as v5 loaded it
        assert loaded.transe.config == transe.config
        for got, want in ((loaded.transe.entity_vectors, transe.entity_vectors), (loaded.transe.relation_vectors, transe.relation_vectors)):
            assert list(got) == list(want)
            assert [vector.tobytes() for vector in got.values()] == [vector.tobytes() for vector in want.values()]
        assert list(loaded.extractor.feature_vocab.items()) == list(extractor.feature_vocab.items())
        assert loaded.extractor.weights.shape == extractor.weights.shape
        assert loaded.extractor.weights.tobytes() == extractor.weights.tobytes()
        assert (loaded.extractor.labels, loaded.extractor.hyperparams) == (extractor.labels, extractor.hyperparams)

    @pytest.mark.parametrize("which", ["kbmatch", "model"])
    def test_saving_a_loaded_index_gives_its_bytes(self, small_index, model_index, tmp_path, which):
        save_index(small_index[1] if which == "kbmatch" else model_index, tmp_path / "built.idx")
        save_index(load_index(tmp_path / "built.idx"), tmp_path / "loaded.idx")
        assert (tmp_path / "loaded.idx").read_bytes() == (tmp_path / "built.idx").read_bytes()


class TestLabelsMatchTheOracle:
    """Kernel rows and query labels against the ``json.dumps`` signatures, compressed over the corpus in doc id order.

    The index numbers its labels otherwise, so each of its labels is
    compared through the bijection that takes its node labels to the
    oracle's (``helpers.relabelling``).
    """

    @staticmethod
    def oracle(index):
        """The oracle's compressor, its node labels and the kernel rows (ptr, then each row's sorted (label, count) pairs) in doc id order."""
        nets = [index.networks[doc_id] for doc_id in index.rows.doc_ids]
        labels, oracle = helpers.oracle_corpus_labels(nets, index.h)
        rows, width = [], index.h + 1
        for start, end in pairwise(np.cumsum([0, *(len(net.nodes) for net in nets)]).tolist()):
            rows.append(sorted(Counter(labels[start * width : end * width]).items()))
        return oracle, labels, np.cumsum([0, *map(len, rows)]).tolist(), rows

    @pytest.mark.parametrize("which", ["kbmatch", "model"])
    def test_built_and_loaded_rows_and_query_labels(self, pipeline, small_index, model_index, tmp_path, which):
        corpus, index = small_index if which == "kbmatch" else (model_corpus(pipeline[0]), model_index)
        oracle, node_labels, ptr, rows = self.oracle(index)
        save_index(index, tmp_path / "oracle.idx")
        loaded = load_index(tmp_path / "oracle.idx")
        maps = [helpers.relabelling(wl_corpus_labels(built.networks.columns, built.h)[0], node_labels) for built in (index, loaded)]
        for built, to_oracle in zip((index, loaded), maps):
            assert built.compressor.next_id == oracle.next_id == len(to_oracle)
            assert built.rows.ptr.tolist() == ptr
            bounds = built.rows.ptr.tolist()
            labels = built.rows.labels.tolist()
            for row, start, end in zip(rows, bounds, bounds[1:]):
                assert sorted(Counter(to_oracle[label] for label in labels[start:end]).items()) == row
        held = new = 0
        texts = [doc.content() for doc in corpus[:4]] + [" ".join(doc.content() for doc in corpus), UNRELATED]
        for text in texts:
            net = query_network(index, text)
            expected = helpers.oracle_wl_label_history(net, index.h, oracle.overlay())
            for built, to_oracle in zip((index, loaded), maps):
                for got, want in zip(wl_label_history(net, index.h, built.compressor.overlay()), expected):
                    for cui, label in want.items():
                        if label < oracle.next_id:  # a signature the index holds
                            assert to_oracle[got[cui]] == label, (text, cui)
                            held += 1
                        else:
                            assert got[cui] >= built.compressor.next_id, (text, cui)
                            new += 1
        assert held and new


ORACLE_LEXICON = build_lexicon([
    ("C1", "Aspirin", ["aspirin"], "T121"),
    ("C2", "Fever", ["fever"], "T047"),
    ("C3", "Rash", ["rash"], "T047"),
    ("C4", "Cough", ["cough"], "T047"),
    ("C5", "Insulin", ["insulin"], "T121"),
    ("C6", "Nausea", ["nausea"], "T047"),
])
# Two relations on (C1, C2), both directions of (C2, assoc, C3), and a relation the model lacks.
ORACLE_KB = build_triple_store([
    ("C1", "treats", "C2"), ("C1", "causes", "C2"), ("C2", "assoc", "C3"), ("C3", "assoc", "C2"),
    ("C5", "treats", "C4"), ("C4", "rare", "C3"), ("C5", "causes", "C3"),
])
# Not in doc id order; d0 repeats d3, d1 has no concept and d4 a single one.
ORACLE_CORPUS = [
    Document("d3", "", "Aspirin for fever. Fever with rash and rash with fever."),
    Document("d1", "", UNRELATED),
    Document("d4", "", "Nausea alone."),
    Document("d0", "", "Aspirin for fever. Fever with rash and rash with fever."),
    Document("d2", "", "Cough after insulin and rash. Nausea and aspirin."),
    Document("d5", "", "Insulin, aspirin, fever, rash, nausea and cough with insulin."),
    Document("d6", "", "Rash with fever. Aspirin."),
]


def oracle_model(distance):
    """Components are multiples of 1/4, so every distance is exact whatever the order of summation; C6 has no vector."""
    rng = np.random.default_rng(4)
    vector = lambda: rng.integers(-4, 5, 4) / 4  # noqa: E731
    entities = {f"C{i}": vector() for i in range(1, 6)}
    relations = {name: vector() for name in ("assoc", "causes", "treats", "unused")}
    return EmbeddingModel(entities, relations, TrainConfig(dim=4, distance=distance))


@pytest.fixture(scope="module")
def oracle_extractor():
    instances = []
    for doc in ORACLE_CORPUS:
        analysis = analyze(doc, ORACLE_LEXICON, 10)
        for pair, features in zip(analysis.pairs, featurize_pairs(analysis.pairs, analysis.tokens, ORACLE_LEXICON)):
            instances.append(RelationInstance(pair, distant_label(pair, ORACLE_KB), features))
    return train_extractor(instances, ExtractorHyperparams(epochs=30, seed=2))


class TestIndexColumnsEqualOracles:
    """Every network column of ``index_corpus`` against the oracles, run document by document in doc id order.

    The node labels the index derives match the oracle's through a
    bijection (``helpers.relabelling``), with as many labels.
    """

    @staticmethod
    def expected(config, model, extractor) -> tuple[dict, list[int], LabelCompressor]:
        nets = {}
        for doc in sorted(ORACLE_CORPUS, key=lambda doc: doc.id):
            analysis = analyze(doc, ORACLE_LEXICON, config.window)
            mentions = analysis.mentions
            nodes: dict[str, Node] = {}
            for cui, start, end in zip(mentions.primaries, mentions.starts, mentions.ends):
                nodes.setdefault(cui, Node(cui, cui, [])).mention_spans.append((start, end))
            best: dict = {}
            for edge in engine.extract_edges(analysis, ORACLE_LEXICON, config, ORACLE_KB, extractor):
                if edge.key() not in best or edge.confidence > best[edge.key()].confidence:
                    best[edge.key()] = edge
            net = SemanticNetwork(doc.id, nodes, [best[key] for key in sorted(best)])
            if config.enrich:
                cap = len(net.edges) if config.m_cap is None else config.m_cap
                predicted = helpers.oracle_enrichment(net, model, config.tau_lp, cap)
                net.edges += [Edge(*key, score, "predicted") for score, key in predicted]
            if config.fuse:
                net = helpers.oracle_fuse_network(net, model)
            nets[doc.id] = net
        rows = [nets[doc_id] for doc_id in sorted(nets)]
        cuis = sorted({cui for net in rows for cui in net.nodes})
        relations = sorted({edge.relation for net in rows for edge in net.edges})
        columns = dict.fromkeys(["node_cuis", "spans", "heads", "tails", "edge_relations", "provenances", "confidences"])
        columns = {name: [] for name in columns} | {"node_ptr": [0], "span_ptr": [0], "edge_ptr": [0]}
        for net in rows:
            order = sorted(net.nodes)
            for cui in order:
                columns["node_cuis"].append(cuis.index(cui))
                columns["spans"] += [bound for span in net.nodes[cui].mention_spans for bound in span]
                columns["span_ptr"].append(len(columns["spans"]))
            columns["node_ptr"].append(len(columns["node_cuis"]))
            for edge in net.edges:
                columns["heads"].append(order.index(edge.head))
                columns["tails"].append(order.index(edge.tail))
                columns["edge_relations"].append(relations.index(edge.relation))
                columns["provenances"].append(["extracted", "predicted", "fused"].index(edge.provenance))
                columns["confidences"].append(edge.confidence)
            columns["edge_ptr"].append(len(columns["heads"]))
        return columns | {"cuis": cuis, "relations": relations}, *helpers.oracle_corpus_labels(rows, config.h)

    @pytest.mark.parametrize("mode", ["kbmatch", "model"])
    @pytest.mark.parametrize("h", range(5))
    @pytest.mark.parametrize("m_cap", [None, 1, 4])
    def test_every_column(self, oracle_extractor, mode, h, m_cap):
        extractor = oracle_extractor if mode == "model" else None
        for distance, enrich, fuse in (("l1", True, True), ("l2", True, False), ("l1", False, True)):
            config = PipelineConfig(mode=mode, theta_rel=0.2, enrich=enrich, fuse=fuse, tau_lp=1e-3, m_cap=m_cap, h=h)
            model = oracle_model(distance)
            index = index_corpus(ORACLE_CORPUS, ORACLE_LEXICON, config, ORACLE_KB, extractor, model)
            columns = index.networks.columns
            expected, labels, oracle = self.expected(config, model, extractor)
            got = {name: value if name in ("cuis", "relations") else value.tolist() for name, value in vars(columns).items()}
            assert got == expected, (distance, enrich, fuse)
            to_oracle = helpers.relabelling(wl_corpus_labels(columns, h)[0], labels)
            assert len(to_oracle) == index.compressor.next_id == oracle.next_id, (distance, enrich, fuse)

    def test_the_corpus_has_each_case(self, oracle_extractor):
        config = PipelineConfig(mode="kbmatch", enrich=True, fuse=True, tau_lp=1e-3, m_cap=1, h=2)
        index = index_corpus(ORACLE_CORPUS, ORACLE_LEXICON, config, ORACLE_KB, None, oracle_model("l1"))
        nets = index.networks
        assert not nets["d1"].nodes and len(nets["d4"].nodes) == 1
        assert {key for key in nets["d3"].edge_keys() if key[:2] == ("C1", "C2")} == {("C1", "C2", "causes"), ("C1", "C2", "treats")}
        assert {("C2", "C3", "assoc"), ("C3", "C2", "assoc")} <= nets["d3"].edge_keys()
        assert nets["d0"] == replace(nets["d3"], doc_id="d0")
        assert any(edge.provenance == "predicted" for net in nets.values() for edge in net.edges)
        assert any(edge.relation == "rare" and edge.provenance == "extracted" for edge in nets["d2"].edges)
        uncapped = index_corpus(ORACLE_CORPUS, ORACLE_LEXICON, replace(config, m_cap=10**6), ORACLE_KB, None, oracle_model("l1"))
        assert sum(len(net.edges) for net in uncapped.networks.values()) > sum(len(net.edges) for net in nets.values())
        model_index = index_corpus(ORACLE_CORPUS, ORACLE_LEXICON, replace(config, mode="model", theta_rel=0.2), None, oracle_extractor, oracle_model("l1"))
        assert any(edge.provenance == "fused" for net in model_index.networks.values() for edge in net.edges)


class TestCorpusOrder:
    """The index is built in doc id order, so its bytes depend only on the set of documents."""

    @staticmethod
    def config(mode):
        return PipelineConfig(mode=mode, theta_rel=0.2, enrich=True, fuse=True, tau_lp=1e-3, h=3)

    @pytest.mark.parametrize("mode", ["kbmatch", "model"])
    @settings(max_examples=30)
    @given(corpus=st.permutations(ORACLE_CORPUS))
    def test_any_order_gives_the_same_index(self, oracle_extractor, mode, corpus):
        def stored(docs):
            index = index_corpus(docs, ORACLE_LEXICON, self.config(mode), ORACLE_KB, oracle_extractor, oracle_model("l1"))
            return json.dumps(index_to_dict(index))

        assert stored(corpus) == stored(sorted(ORACLE_CORPUS, key=lambda doc: doc.id))

    @pytest.mark.parametrize("mode", ["kbmatch", "model"])
    def test_a_load_derives_the_labels_of_the_build(self, oracle_extractor, tmp_path, mode):
        index = index_corpus(ORACLE_CORPUS, ORACLE_LEXICON, self.config(mode), ORACLE_KB, oracle_extractor, oracle_model("l1"))
        save_index(index, tmp_path / "corpus.idx")
        loaded = load_index(tmp_path / "corpus.idx")
        assert list(loaded.compressor.table.items()) == list(index.compressor.table.items())
        assert (loaded.compressor.next_id, loaded.compressor.relations) == (index.compressor.next_id, index.compressor.relations)
        assert loaded.rows.labels.tolist() == index.rows.labels.tolist()


class TestDerivation:
    """An index derives its compressor and rows from its own fields once, on their first read."""

    @pytest.fixture()
    def derivations(self, monkeypatch):
        calls: list[str] = []
        for name in ("wl_corpus_labels", "_embed_rows"):

            def spy(*args, _name=name, _original=getattr(engine, name)):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(engine, name, spy)
        return calls

    @pytest.mark.parametrize("first", ["search", "graph"])
    def test_built_once_on_first_read_and_loaded_before_return(self, pipeline, tmp_path, derivations, first):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 6, seed=3)
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
        save_index(index, tmp_path / "corpus.idx")
        assert derivations == []
        loaded = load_index(tmp_path / "corpus.idx")
        assert derivations == ["wl_corpus_labels", "_embed_rows"]
        search(loaded, corpus[0].content(), 3)
        build_collection_graph(loaded)
        assert derivations == ["wl_corpus_labels", "_embed_rows"]
        derivations.clear()
        if first == "search":
            search(index, corpus[0].content(), 3)
        else:
            build_collection_graph(index)
        assert derivations == ["wl_corpus_labels", "_embed_rows"]
        search(index, corpus[1].content(), 3)
        build_collection_graph(index)
        assert derivations == ["wl_corpus_labels", "_embed_rows"]

    def test_one_stored_networks_per_load(self, pipeline, tmp_path, monkeypatch):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 6, seed=3)
        save_index(index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model), tmp_path / "corpus.idx")
        built: list[engine.StoredNetworks] = []

        class Spy(engine.StoredNetworks):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        monkeypatch.setattr(engine, "StoredNetworks", Spy)
        loaded = load_index(tmp_path / "corpus.idx")
        search(loaded, corpus[0].content(), 3)
        assert len(built) == 1 and built[0] is loaded.networks

    @pytest.mark.parametrize("field", ["h", "transe"])
    def test_a_replaced_index_derives_from_its_own_fields(self, pipeline, field):
        lexicon, kb, transe_model, config = pipeline
        corpus = helpers.synth_corpus(lexicon, 12, seed=3)
        index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
        search(index, corpus[0].content(), 3)  # derived before the copy is made
        if field == "h":
            changed = replace(index, config=replace(config, h=1))
        else:
            train_config = TrainConfig(dim=16, epochs=5, seed=12)
            changed = replace(index, transe=train(init_model(kb.entities, kb.relations, train_config), kb, train_config))
        fresh = index_corpus(corpus, lexicon, changed.config, kb=kb, transe=changed.transe)
        for doc in corpus:
            assert search(changed, doc.content(), len(corpus)) == search(fresh, doc.content(), len(corpus)), doc.id


class TestLazyNetworks:
    """A loaded index decodes a network from its columns only when the network is read."""

    @pytest.fixture()
    def saved(self, small_index, tmp_path):
        corpus, index = small_index
        path = tmp_path / "corpus.idx"
        save_index(index, path)
        return corpus, index, path

    @pytest.fixture()
    def decoded(self, monkeypatch):
        seen: list[str] = []
        original = engine.network_from_columns

        def counting(doc_id, columns, row, lexicon):
            seen.append(doc_id)
            return original(doc_id, columns, row, lexicon)

        monkeypatch.setattr(engine, "network_from_columns", counting)
        return seen

    def test_search_and_collection_graph_decode_no_network(self, saved, decoded):
        corpus, index, path = saved
        loaded = load_index(path)
        for prune in (False, True):
            assert search(loaded, corpus[0].content(), 3, prune=prune) == search(index, corpus[0].content(), 3, prune=prune)
        assert build_collection_graph(loaded, 0.6, 0.2).edges == build_collection_graph(index, 0.6, 0.2).edges
        assert len(loaded.networks) == len(corpus) and corpus[0].id in loaded.networks
        assert decoded == []

    def test_each_network_is_decoded_once(self, saved, decoded):
        corpus, index, path = saved
        loaded = load_index(path)
        doc_id = corpus[2].id
        assert loaded.networks[doc_id] == index.networks[doc_id]
        assert loaded.networks[doc_id] is loaded.networks[doc_id]
        assert decoded == [doc_id]

    def test_loaded_networks_equal_built_ones(self, saved):
        _, index, path = saved
        loaded = load_index(path)
        assert loaded.networks == index.networks
        assert list(loaded.networks) == sorted(index.networks)

    def test_networks_are_read_only(self, saved):
        # A built index and a loaded one hold their networks in the same read-only form.
        corpus, index, path = saved
        loaded = load_index(path)
        assert type(index.networks) is type(loaded.networks)
        for networks in (index.networks, loaded.networks):
            with pytest.raises(TypeError):
                networks[corpus[0].id] = None
            with pytest.raises(TypeError):
                del networks[corpus[0].id]

    def test_save_of_load_is_byte_identical(self, saved, tmp_path):
        _, _, path = saved
        loaded = load_index(path)
        again = tmp_path / "again.idx"
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()

    def test_networks_are_encoded_once_per_build(self, pipeline, monkeypatch, tmp_path):
        # index_corpus grows the networks as rows and turns them into columns once; saving writes those columns as they are.
        lexicon, kb, transe_model, config = pipeline
        calls = []
        original = NetworkRows.columns
        monkeypatch.setattr(NetworkRows, "columns", lambda rows: calls.append(len(rows.node_ptr) - 1) or original(rows))
        index = index_corpus(helpers.synth_corpus(lexicon, 4, seed=6), lexicon, config, kb=kb, transe=transe_model)
        assert calls == [4]
        save_index(index, tmp_path / "once.idx")
        load_index(tmp_path / "once.idx")
        assert calls == [4]


def model_corpus(lexicon):
    """The corpus of ``model_index``."""
    return helpers.synth_corpus(lexicon, 12, seed=5)


@pytest.fixture(scope="module")
def model_index(pipeline):
    """A model-mode index with enrichment and fusion, its extractor trained by distant supervision.

    ``tau_lp`` is low enough for enrichment to add edges.
    """
    lexicon, kb, transe_model, config = pipeline
    corpus = model_corpus(lexicon)
    instances = []
    for doc in corpus:
        analysis = analyze(doc, lexicon, config.window)
        for pair, features in zip(analysis.pairs, featurize_pairs(analysis.pairs, analysis.tokens, lexicon)):
            instances.append(RelationInstance(pair, distant_label(pair, kb), features))
    extractor = train_extractor(instances, ExtractorHyperparams(epochs=20, seed=5))
    config = replace(config, mode="model", enrich=True, fuse=True, theta_rel=0.3, tau_lp=1e-6)
    return index_corpus(corpus, lexicon, config, kb=kb, extractor=extractor, transe=transe_model)


class TestRoundTrip:
    """Saving and loading a model-mode index; ``TestLazyNetworks`` does the same for a kbmatch one."""

    def test_loaded_networks_equal_built_ones(self, model_index, tmp_path):
        assert {e.provenance for net in model_index.networks.values() for e in net.edges} == {"fused", "predicted"}
        path = tmp_path / "model.idx"
        save_index(model_index, path)
        assert load_index(path).networks == model_index.networks

    def test_save_of_load_is_byte_identical(self, model_index, tmp_path):
        path, again = tmp_path / "model.idx", tmp_path / "again.idx"
        save_index(model_index, path)
        save_index(load_index(path), again)
        assert again.read_bytes() == path.read_bytes()

    def test_span_bound_beyond_int32_is_refused(self, small_index):
        # A crafted network: a real document this long would be 2 GB of text.
        # The bound up to int32 survives the stored form; one past it cannot be stored.
        corpus, index = small_index
        net = index.networks[corpus[0].id]
        cui = sorted(net.nodes)[0]
        for bound in (2**31 - 1, 2**31):
            nodes = {**net.nodes, cui: Node(cui, net.nodes[cui].name, [(0, bound)])}
            columns = helpers.oracle_network_columns([replace(net, nodes=nodes)])
            if bound < 2**31:
                stored = columns_from_dict(json.loads(json.dumps(columns_to_dict(columns))))
                check_columns([net.doc_id], stored)
                assert network_from_columns(net.doc_id, stored, 0, index.lexicon).nodes[cui].mention_spans == [(0, bound)]
            else:
                with pytest.raises(ValidationError, match="outside the int32 range"):
                    columns_to_dict(columns)


def oracle_bytes(index) -> bytes:
    """What ``save_index`` writes: the ``index_to_dict`` payload as compact, key-sorted JSON text."""
    return (json.dumps(index_to_dict(index), sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


class TestSavedBytes:
    """``save_index`` splices in the text each model keeps, with the bytes of encoding its payload whole."""

    def fresh_index(self, pipeline, extractor, mode, with_transe):
        """An index of new model objects, none of which has been saved."""
        _, _, transe_model, config = pipeline
        lexicon = helpers.synth_lexicon()
        transe = replace(transe_model) if with_transe else None
        config = replace(config, mode=mode, enrich=with_transe, fuse=with_transe, theta_rel=0.3)
        corpus = helpers.synth_corpus(lexicon, 6, seed=4)
        return index_corpus(corpus, lexicon, config, helpers.synth_kb(lexicon), replace(extractor), transe)

    @pytest.mark.parametrize("with_transe", [True, False])
    @pytest.mark.parametrize("mode", ["kbmatch", "model"])
    def test_first_and_repeated_saves(self, pipeline, model_index, tmp_path, mode, with_transe):
        index = self.fresh_index(pipeline, model_index.extractor, mode, with_transe)
        models = [index.lexicon, index.kb, index.extractor, index.transe]
        assert (index.kb is None, index.extractor is None, index.transe is None) == (mode == "model", mode == "kbmatch", not with_transe)
        assert all(obj._encoded is None for obj in models if obj is not None)
        for path in (tmp_path / "first.idx", tmp_path / "again.idx"):
            save_index(index, path)
            assert path.read_bytes() == oracle_bytes(index)
        assert all(obj._encoded is not None for obj in models if obj is not None)
        save_index(load_index(path), tmp_path / "loaded.idx")
        assert (tmp_path / "loaded.idx").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("merged", [False, True])
    def test_a_concept_added_between_saves(self, pipeline, model_index, tmp_path, merged):
        # A new concept, or a new synonym merged into a concept the lexicon holds.
        cui, name, _, semtype = helpers.synth_lexicon_rows()[0] if merged else ("C9001", "Novel syndrome", [], "T047")
        row = (cui, name, ["novel synonym"], semtype)
        index = self.fresh_index(pipeline, model_index.extractor, "kbmatch", True)
        assert (cui in index.lexicon.concepts) == merged
        save_index(index, tmp_path / "first.idx")
        index.lexicon._add(*row)
        save_index(index, tmp_path / "again.idx")
        save_index(replace(index, lexicon=build_lexicon([*helpers.synth_lexicon_rows(), row])), tmp_path / "fresh.idx")
        assert (tmp_path / "again.idx").read_bytes() == (tmp_path / "fresh.idx").read_bytes() == oracle_bytes(index)
        assert (tmp_path / "again.idx").read_bytes() != (tmp_path / "first.idx").read_bytes()

    def test_a_triple_added_between_saves(self, pipeline, model_index, tmp_path):
        index = self.fresh_index(pipeline, model_index.extractor, "kbmatch", True)
        head, tail = sorted(index.kb.entities)[:2]
        added = Triple(head, "novel_relation", tail)
        save_index(index, tmp_path / "first.idx")
        index.kb._add(added)
        save_index(index, tmp_path / "again.idx")
        fresh = helpers.synth_kb(index.lexicon)  # the same triples in the same relation order, never saved
        fresh._add(added)
        save_index(replace(index, kb=fresh), tmp_path / "fresh.idx")
        assert (tmp_path / "again.idx").read_bytes() == (tmp_path / "fresh.idx").read_bytes() == oracle_bytes(index)
        assert (tmp_path / "again.idx").read_bytes() != (tmp_path / "first.idx").read_bytes()

    def test_each_epoch_handed_back_by_training(self, pipeline, model_index, tmp_path):
        # ``train`` hands back one model object at every epoch end and returns it at the end.
        index = self.fresh_index(pipeline, model_index.extractor, "kbmatch", True)
        path, saved = tmp_path / "epoch.idx", []

        def on_epoch(epoch, model):
            save_index(replace(index, transe=model), path)
            saved.append(path.read_bytes())
            assert saved[-1] == oracle_bytes(replace(index, transe=model))

        config = TrainConfig(dim=16, epochs=3, seed=12)
        trained = train(init_model(index.kb.entities, index.kb.relations, config), index.kb, config, on_epoch)
        save_index(replace(index, transe=trained), path)
        assert path.read_bytes() == oracle_bytes(replace(index, transe=trained)) == saved[-1]
        assert len(set(saved)) == 3


class TestExtractionBatches:
    """``analyzed_edges`` analyzes each document once and extracts a batch of them at a time, each with its own edges."""

    @pytest.mark.parametrize("batch", [1, 5, 64])
    def test_each_document_gets_the_edges_it_gets_alone(self, model_index, monkeypatch, batch):
        index, config = model_index, replace(model_index.config, theta_rel=0.0)
        corpus = model_corpus(index.lexicon)
        monkeypatch.setattr(engine, "_EXTRACT_BATCH", batch)
        calls: Counter[str] = Counter()
        for stage in ("tokenize", "extract_batch"):

            def spy(*args, _stage=stage, _original=getattr(engine, stage), **kwargs):
                calls[_stage] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, stage, spy)
        extracted = engine.analyzed_edges(corpus, index.lexicon, config, extractor=index.extractor)
        got = [(doc.id, analysis.mentions, edges) for doc, analysis, edges in extracted]
        assert calls == {"tokenize": len(corpus), "extract_batch": -(-len(corpus) // batch)}
        expected = []
        for doc in corpus:
            analysis = analyze(doc, index.lexicon, config.window)
            expected.append((doc.id, analysis.mentions, engine.extract_edges(analysis, index.lexicon, config, extractor=index.extractor)))
        assert got == expected
        assert sum(bool(edges) for _, _, edges in got) >= 3

    def test_index_bytes_do_not_depend_on_the_batch(self, model_index, monkeypatch):
        monkeypatch.setattr(engine, "_EXTRACT_BATCH", 5)
        index = model_index
        again = index_corpus(model_corpus(index.lexicon), index.lexicon, index.config, extractor=index.extractor, transe=index.transe)
        assert json.dumps(engine.index_to_dict(again)) == json.dumps(engine.index_to_dict(index))


def test_search_ranks_as_the_fused_query_network(model_index):
    texts = [doc.text for doc in model_corpus(model_index.lexicon)]
    helpers.assert_search_ranks_fused_query(model_index, texts)


class TestBuiltNetworks:
    """A built index holds its networks as columns; decoded, each is the network the pipeline built."""

    def assert_pipeline_networks(self, index, corpus):
        assert sorted(index.networks) == sorted(doc.id for doc in corpus)
        for doc in corpus:
            net = document_network(doc, index.lexicon, index.config, index.kb, index.extractor, index.transe)
            assert index.networks[doc.id] == net, doc.id

    def test_kbmatch_index(self, small_index):
        corpus, index = small_index
        self.assert_pipeline_networks(index, corpus)

    def test_model_index(self, model_index):
        self.assert_pipeline_networks(model_index, model_corpus(model_index.lexicon))


class TestTopRows:
    """``_top_rows`` against the full stable sort it replaces."""

    @staticmethod
    def full_sort(scores, candidates, k):
        return candidates[np.argsort(-scores[candidates], kind="stable")[:k]]

    @pytest.mark.parametrize("seed", range(5))
    def test_ties_across_the_k_boundary(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, 0.25, 0.5, 0.5, 0.75, 1.0], size=40)
        candidates = np.arange(len(scores))
        for k in range(1, len(scores) + 3):
            assert _top_rows(scores, candidates, k).tolist() == self.full_sort(scores, candidates, k).tolist()

    def test_k_at_least_the_number_of_rows(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
        candidates = np.arange(len(scores))
        for k in (5, 6, 100):
            assert _top_rows(scores, candidates, k).tolist() == [1, 4, 0, 2, 3]

    def test_pruned_with_fewer_candidates_than_k(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9, 0.5])
        candidates = np.array([0, 2, 3, 5])
        for k in range(1, 8):
            assert _top_rows(scores, candidates, k).tolist() == self.full_sort(scores, candidates, k).tolist()
        assert _top_rows(scores, candidates, 10).tolist() == [0, 2, 5, 3]
        assert _top_rows(scores, np.array([], np.int64), 3).tolist() == []

    def test_search_splits_duplicates_at_k_in_doc_id_order(self, pipeline):
        lexicon, kb, transe_model, config = pipeline
        text = "aspirin treats fever."
        docs = [Document(doc_id, "", text) for doc_id in ("d4", "d2", "d3", "d1")]
        docs.append(Document("other", "", "insulin for diabetes."))
        index = index_corpus(docs, lexicon, config, kb=kb, transe=transe_model)
        for k in range(1, 7):
            results = search(index, text, k)
            assert [r.doc_id for r in results] == ["d1", "d2", "d3", "d4", "other"][:k]


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
