"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``[acceptance] ... PASS/FAIL`` line (visible with
``pytest -s``); the assertions themselves carry the tolerances.
"""

from __future__ import annotations

import json
import random
from contextlib import contextmanager

import numpy as np
import pytest

import helpers
from casegraph import engine
from casegraph.cli import dispatch
from casegraph.config import PipelineConfig
from casegraph.engine import build_collection_graph, index_corpus, search
from casegraph.kb import Document
from casegraph.linking import link
from casegraph.network import Edge, Node, SemanticNetwork, enrich_network, network_from_dict, network_to_dict
from casegraph.relations import ExtractorHyperparams, RelationInstance, train_extractor
from casegraph.similarity import LabelCompressor, wl_features
from casegraph.transe import TrainConfig, evaluate_link_prediction, init_model, model_to_columns, train
from casegraph.trec import Qrels, Run, evaluate_run, read_run, run_lines, write_run


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} ({name}): FAIL", flush=True)
        raise
    print(f"[acceptance] criterion {number} ({name}): PASS", flush=True)


@pytest.fixture(scope="module")
def desk_fixture():
    lexicon = helpers.synth_lexicon()
    kb = helpers.synth_kb(lexicon)
    assert len(lexicon) <= 50 and len(kb) <= 200
    train_config = TrainConfig(dim=16, epochs=40, learning_rate=0.01, seed=11)
    transe_model = train(init_model(kb.entities, kb.relations, train_config), kb, train_config)
    corpus = helpers.synth_corpus(lexicon, 20, seed=6)
    config = PipelineConfig(mode="kbmatch", h=3, lambda_weight=0.6, enrich=True, fuse=True, tau_lp=0.7, seed=11)
    index = index_corpus(corpus, lexicon, config, kb=kb, transe=transe_model)
    return lexicon, kb, transe_model, corpus, config, index


def test_criterion_1_linker_oracle_equivalence(desk_fixture):
    lexicon = desk_fixture[0]
    with criterion(1, "linker oracle equivalence"):
        rng = random.Random(1234)
        agreements = 0
        for _ in range(100):
            text = helpers.random_fixture_text(lexicon, rng)
            if list(link(text, lexicon)) == helpers.oracle_link(text, lexicon):
                agreements += 1
        assert agreements == 100


def test_criterion_2_extractor_gradients_and_separable_fixture():
    with criterion(2, "extractor gradient check and separable training"):
        labels = ["NA", "rel_a", "rel_b"]
        vocab = {f"f{i}": i for i in range(5)}
        rng = np.random.default_rng(2)
        instances = []
        for _ in range(15):
            features = {f"f{i}": int(rng.integers(0, 3)) for i in range(5)}
            features = {k: v for k, v in features.items() if v}
            instances.append(RelationInstance(None, labels[int(rng.integers(3))], features))
        weights = rng.normal(size=(3, 5))
        _, grad = helpers.oracle_dataset_loss_and_gradient(weights, instances, vocab, labels, l2=0.01)
        numeric = helpers.central_difference(
            lambda w: helpers.oracle_dataset_loss_and_gradient(w, instances, vocab, labels, 0.01)[0], weights
        )
        assert helpers.relative_error(grad, numeric) < 1e-4

        # The production step: with one instance, epoch 2 is one SGD step from
        # the epoch-1 weights W1, so (W1 - W2) / lr is the gradient of that
        # instance's L2-regularized loss at W1.
        instance = next(i for i in instances if i.label != "NA")
        lr, l2 = 0.5, 0.1
        w1, w2 = (
            train_extractor([instance], ExtractorHyperparams(learning_rate=lr, epochs=epochs, l2=l2, seed=2))
            for epochs in (1, 2)
        )
        assert w1.labels == w2.labels and w1.feature_vocab == w2.feature_vocab
        step = (w1.weights - w2.weights) / lr
        numeric = helpers.central_difference(
            lambda w: helpers.oracle_dataset_loss_and_gradient(w, [instance], w1.feature_vocab, w1.labels, l2)[0],
            w1.weights.copy(),
        )
        assert np.abs(step).max() > 0.0 and np.abs(w1.weights).max() > 0.0
        assert helpers.relative_error(step, numeric) < 1e-4

        separable = []
        for signature, label, copies in (("sig:na", "NA", 7), ("sig:t", "may_treat", 7), ("sig:c", "cause_of", 6)):
            for i in range(copies):
                separable.append(RelationInstance(None, label, {signature: 1, f"noise:{i % 3}": 1}))
        assert len(separable) == 20
        model = train_extractor(separable, ExtractorHyperparams(epochs=50, seed=3))
        correct = sum(
            model.labels[int(np.argmax(helpers.oracle_probabilities(model.weights, inst.features, model.feature_vocab)))] == inst.label
            for inst in separable
        )
        assert correct == len(separable)


def test_criterion_3_transe_learning_signal():
    with criterion(3, "translational embedding learning signal"):
        kb = helpers.planted_toy_kb(num_entities=10, num_relations=3, num_triples=30)
        assert len(kb.entities) == 10 and len(kb.relations) == 3 and len(kb) == 30
        config = TrainConfig(dim=20, margin=1.0, learning_rate=0.01, epochs=200, distance="l1", seed=7)
        norm_drift = []

        def record(_, model):
            norm_drift.append(max(abs(np.linalg.norm(v) - 1.0) for v in model.entity_vectors.values()))

        trained = train(init_model(kb.entities, kb.relations, config), kb, config, on_epoch=record)
        assert len(norm_drift) == 200 and max(norm_drift) < 1e-6

        test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
        report = evaluate_link_prediction(trained, test, kb)
        baseline = helpers.analytic_random_mean_rank(test, kb, sorted(kb.entities))
        assert report["filtered"]["mean_rank"] < 0.5 * baseline
        assert report["filtered"]["hits_at_1"] >= 0.5

        rerun = train(init_model(kb.entities, kb.relations, config), kb, config)
        assert model_to_columns(trained) == model_to_columns(rerun)


def test_criterion_4_enrichment_contracts():
    with criterion(4, "enrichment contracts and oracle equivalence"):
        kb = helpers.planted_toy_kb()
        config = TrainConfig(dim=12, epochs=40, seed=3)
        model = train(init_model(kb.entities, kb.relations, config), kb, config)
        entities = sorted(kb.entities)
        relations = sorted(kb.relations)
        rng = random.Random(404)
        for case in range(50):
            cuis = rng.sample(entities, rng.randint(2, 7))
            edges = {}
            for _ in range(rng.randint(0, 4)):
                head, tail = rng.sample(cuis, 2)
                edge = Edge(head, tail, rng.choice(relations), rng.uniform(0.1, 1.0), "extracted")
                edges[edge.key()] = edge
            net = SemanticNetwork(f"d{case}")
            for i, cui in enumerate(cuis):
                net.nodes[cui] = Node(cui, cui, [(i, i + 1)])
            net.edges = list(edges.values())
            tau = rng.uniform(0.3, 0.95)
            cap = rng.randint(0, 10)
            enriched = enrich_network(net, model, tau, cap)
            assert set(enriched.nodes) == set(net.nodes)
            assert enriched.edges[: len(net.edges)] == net.edges
            predicted = enriched.edges[len(net.edges) :]
            assert len(predicted) <= cap
            assert all(e.confidence >= tau and e.provenance == "predicted" for e in predicted)
            assert {e.key() for e in enriched.edges} >= {e.key() for e in net.edges}
            keys = [e.key() for e in enriched.edges]
            assert len(keys) == len(set(keys))
            expected = helpers.oracle_enrichment(net, model, tau, cap)
            assert [e.key() for e in predicted] == [key for _, key in expected]
            for edge, (conf, _) in zip(predicted, expected):
                assert edge.confidence == pytest.approx(conf, abs=1e-12)


def test_criterion_5_kernel_correctness():
    # The kernel is the one search and the collection graph score with,
    # engine._score_rows, on rows derived as an index derives them.
    with criterion(5, "kernel equals explicit feature map"):
        rng = random.Random(55)
        pool = [f"C{i:03d}" for i in range(15)]

        def random_net(doc_id):
            nodes = rng.sample(pool, rng.randint(1, 7))
            net = SemanticNetwork(doc_id)
            for i, cui in enumerate(nodes):
                net.nodes[cui] = Node(cui, cui, [(i, i + 1)])
            if len(nodes) > 1:
                keys = set()
                for _ in range(rng.randint(0, 2 * len(nodes))):
                    head, tail = rng.sample(nodes, 2)
                    keys.add((head, tail, rng.choice(["r1", "r2", "r3"])))
                net.edges = [Edge(h, t, r, 0.5, "extracted") for h, t, r in sorted(keys)]
            return net

        for pair in range(20):
            net_a, net_b = random_net("a"), random_net("b")
            h = rng.randint(0, 3)
            compressor, _, rows = engine._derive(["a", "b"], helpers.oracle_network_columns([net_a, net_b]), h, None, None)
            oracle = [helpers.oracle_wl_counts(net_a, h), helpers.oracle_wl_counts(net_b, h)]
            gram = [[helpers.oracle_wl_dot(x, y) for y in oracle] for x in oracle]
            kernel = helpers.oracle_kernel(net_a, net_b, h)
            no_embeddings = np.zeros((2, 0))
            # Both rows as one block, as the collection graph scores them.
            owners = np.repeat(np.arange(2), np.diff(rows.ptr))
            scores, dots = engine._score_rows(rows, owners, rows.labels, no_embeddings, np.zeros(2), 1.0)
            assert dots.tolist() == gram
            assert abs(scores[0, 1] - kernel) <= 1e-12 and abs(scores[1, 0] - kernel) <= 1e-12
            assert np.abs(np.diag(scores) - 1.0).max() <= 1e-12
            # Network a as a query, featurized as search does it.
            features = wl_features(net_a, h, compressor.overlay())
            labels = np.fromiter(features, np.int64, len(features))
            scores, dots = engine._score_rows(rows, np.zeros(len(labels), np.int64), labels, no_embeddings[:1], np.zeros(1), 1.0)
            assert dots.tolist() == gram[:1]
            assert abs(scores[0, 0] - 1.0) <= 1e-12 and abs(scores[0, 1] - kernel) <= 1e-12

            # permutation invariance over a shuffled serialization
            payload = network_to_dict(net_a)
            rng.shuffle(payload["nodes"])
            rng.shuffle(payload["edges"])
            shuffled = network_from_dict(payload)
            assert wl_features(shuffled, h, LabelCompressor()) == wl_features(net_a, h, LabelCompressor())


def test_criterion_6_self_retrieval(desk_fixture):
    _, _, _, corpus, _, index = desk_fixture
    with criterion(6, "verbatim self-retrieval"):
        for lam in (0.0, 0.6, 1.0):
            for doc in corpus:
                results = search(index, doc.content(), 3, lam=lam)
                assert results[0].doc_id == doc.id, (lam, doc.id)
                assert results[0].score == pytest.approx(1.0, abs=1e-9)
                assert results[0].rank == 1


def test_criterion_7_retrieval_oracle_equivalence(desk_fixture):
    lexicon, kb, transe_model, corpus, config, index = desk_fixture
    with criterion(7, "retrieval oracle equivalence"):
        assert len(corpus) == 20
        queries = [
            Document("q1", "", "fever and cough treated using aspirin after cardiac arrest"),
            Document("q2", "", corpus[7].text),
            Document("q3", "", "insulin for diabetes with chronic heart failure and skin rash"),
        ]
        from casegraph.engine import document_network

        for query in queries:
            query_net = document_network(query, lexicon, config, kb=kb, transe=transe_model)
            for prune in (False, True):
                results = search(index, query.text, len(corpus), lam=0.6, prune=prune)
                expected = []
                for doc in corpus:
                    net = index.networks[doc.id]
                    if prune and not (set(net.nodes) & set(query_net.nodes)):
                        continue
                    expected.append((doc.id, helpers.oracle_combined(query_net, net, 0.6, config.h, transe_model)))
                expected.sort(key=lambda item: (-item[1], item[0]))
                assert [r.doc_id for r in results] == [doc_id for doc_id, _ in expected]
                for result, (_, score) in zip(results, expected):
                    assert result.score == pytest.approx(score, abs=1e-9)

        graph = build_collection_graph(index, lam=0.6, tau_doc=0.4)
        ids = sorted(index.networks)
        expected_edges = []
        for i, doc_a in enumerate(ids):
            for doc_b in ids[i + 1 :]:
                score = helpers.oracle_combined(index.networks[doc_a], index.networks[doc_b], 0.6, index.h, transe_model)
                if score >= 0.4:
                    expected_edges.append((doc_a, doc_b))
        assert [(a, b) for a, b, _ in graph.edges] == expected_edges


def test_criterion_8_metric_fixtures(tmp_path):
    with criterion(8, "ranked-retrieval metric fixtures"):
        qrels = Qrels(judgments={("1", "docA"): 2, ("1", "docB"): 0, ("1", "docC"): 1})
        run = Run(topics={"1": [("docA", 0.9), ("docB", 0.8), ("docC", 0.7)]}, tag="acc")
        report = evaluate_run(run, qrels, ks=(3, 5))
        assert report.per_topic["1"]["nDCG@3"] == pytest.approx(0.96394, abs=1e-4)
        assert report.per_topic["1"]["P@5"] == pytest.approx(2.0 / 5.0)
        assert report.per_topic["1"]["R-prec"] == pytest.approx(0.5)  # relevant docs: A, C; top-2 holds one
        assert report.per_topic["1"]["AP"] == pytest.approx((1.0 / 1.0 + 2.0 / 3.0) / 2.0)

        path = tmp_path / "run.txt"
        write_run(run, path)
        loaded = read_run(path)
        assert loaded.topics == run.topics and loaded.tag == run.tag
        assert run_lines(loaded) == path.read_text(encoding="utf-8")


def test_criterion_9_end_to_end_determinism(tmp_path):
    with criterion(9, "end-to-end determinism"):
        fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=10, seed=8)
        doc = fixtures["docs"][2]
        query_file = tmp_path / "q.jsonl"
        query_file.write_text(json.dumps({"id": "t1", "title": "", "text": doc.content()}) + "\n", encoding="utf-8")
        qrels_file = tmp_path / "qrels.txt"
        qrels_file.write_text(f"t1 0 {doc.id} 2\nt1 0 {fixtures['docs'][3].id} 1\n", encoding="utf-8")
        conf_file = tmp_path / "pipeline.conf"
        conf_file.write_text(
            f"lexicon = {fixtures['lexicon']}\n"
            f"triples = {fixtures['triples']}\n"
            f"corpus = {fixtures['corpus']}\n"
            "mode = kbmatch\n"
            "enrich = true\n"
            "fuse = true\n"
            "dim = 10\n"
            "seed = 17\n"
            "k = 5\n",
            encoding="utf-8",
        )
        artifacts = {}
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            base.mkdir()
            transe_model = base / "transe.json"
            index_path = base / "corpus.idx"
            run_path = base / "run.txt"
            report_path = base / "report.json"
            assert dispatch(["train-transe", "--config", str(conf_file), "--epochs", "15", "--out", str(transe_model)]) == 0
            assert dispatch([
                "index", "--config", str(conf_file), "--transe-model", str(transe_model), "--out", str(index_path)
            ]) == 0
            assert dispatch([
                "search", "--config", str(conf_file), "--index", str(index_path),
                "--query-file", str(query_file), "--out", str(run_path),
            ]) == 0
            assert dispatch([
                "evaluate", "--run", str(run_path), "--qrels", str(qrels_file),
                "--format", "json", "--out", str(report_path),
            ]) == 0
            artifacts[attempt] = tuple(p.read_bytes() for p in (transe_model, index_path, run_path, report_path))
        assert artifacts["one"] == artifacts["two"]
