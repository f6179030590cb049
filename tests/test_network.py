from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from casegraph.errors import ConsistencyError, UsageError, ValidationError
from casegraph.linking import link
from casegraph.network import (
    Edge,
    Node,
    SemanticNetwork,
    build_network,
    enrich_network,
    fuse_confidence,
    fuse_network,
    network_from_dict,
    network_to_dict,
    networks_jsonl,
    read_networks,
)
from casegraph.transe import EmbeddingModel, TrainConfig, init_model, train


def make_network(doc_id, cuis, edges):
    net = SemanticNetwork(doc_id)
    for i, cui in enumerate(cuis):
        net.nodes[cui] = Node(cui, cui.lower(), [(10 * i, 10 * i + 5)])
    net.edges = list(edges)
    return net


class TestBuildNetwork:
    def test_nodes_aggregate_mentions(self, lexicon):
        text = "Aspirin and aspirin for heart attack."
        mentions = link(text, lexicon)
        edge = Edge("C0004057", "C0027051", "may_treat", 0.5, "extracted")
        net = build_network("d1", mentions, [edge], lexicon)
        assert set(net.nodes) == {"C0004057", "C0027051"}
        assert net.nodes["C0004057"].weight == 2
        assert net.nodes["C0027051"].weight == 1
        assert net.nodes["C0004057"].name == "Aspirin"
        assert net.edges == [edge]

    def test_empty_document_is_legal(self, lexicon):
        net = build_network("d1", [], [], lexicon)
        assert net.nodes == {} and net.edges == []

    def test_duplicate_edges_keep_max(self, lexicon):
        mentions = link("Aspirin for heart attack.", lexicon)
        edges = [
            Edge("C0004057", "C0027051", "may_treat", 0.6, "extracted"),
            Edge("C0004057", "C0027051", "may_treat", 0.8, "extracted"),
        ]
        net = build_network("d1", mentions, edges, lexicon)
        assert len(net.edges) == 1
        assert net.edges[0].confidence == 0.8

    def test_unknown_endpoint_rejected(self, lexicon):
        mentions = link("Aspirin daily.", lexicon)
        edge = Edge("C0004057", "C9999999", "may_treat", 0.5, "extracted")
        with pytest.raises(ConsistencyError, match="C9999999"):
            build_network("d1", mentions, [edge], lexicon)


class TestEdgeInvariants:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Edge("C1", "C1", "r", 0.5, "extracted")

    def test_confidence_range(self):
        with pytest.raises(ValidationError):
            Edge("C1", "C2", "r", 0.0, "extracted")
        with pytest.raises(ValidationError):
            Edge("C1", "C2", "r", 1.1, "extracted")

    def test_provenance_checked(self):
        with pytest.raises(ValidationError):
            Edge("C1", "C2", "r", 0.5, "guessed")


def exact_translation_model():
    config = TrainConfig(dim=2, distance="l1")
    entities = {
        "C1": np.array([0.0, 0.0]),
        "C2": np.array([1.0, 0.0]),
        "C3": np.array([0.0, 5.0]),
    }
    relations = {"r": np.array([1.0, 0.0])}  # C1 + r == C2 exactly
    return EmbeddingModel(entities, relations, config)


class TestEnrichNetwork:
    def test_threshold_one_keeps_only_perfect_translations(self):
        model = exact_translation_model()
        net = make_network("d1", ["C1", "C2", "C3"], [])
        enriched = enrich_network(net, model, 1.0, 10)
        assert [(e.head, e.tail, e.relation) for e in enriched.edges] == [("C1", "C2", "r")]
        assert enriched.edges[0].confidence == 1.0
        assert enriched.edges[0].provenance == "predicted"

    def test_zero_cap_is_identity(self):
        model = exact_translation_model()
        net = make_network("d1", ["C1", "C2"], [])
        enriched = enrich_network(net, model, 0.5, 0)
        assert enriched.edges == []

    def test_existing_edges_never_touched(self):
        model = exact_translation_model()
        existing = Edge("C2", "C1", "r", 0.4, "extracted")
        net = make_network("d1", ["C1", "C2"], [existing])
        enriched = enrich_network(net, model, 0.01, 5)
        assert enriched.edges[0] == existing
        assert set(enriched.nodes) == set(net.nodes)
        assert {e.key() for e in net.edges} <= {e.key() for e in enriched.edges}

    def test_unknown_entities_skipped_silently(self):
        model = exact_translation_model()
        net = make_network("d1", ["C1", "C2", "C0999999"], [])
        enriched = enrich_network(net, model, 0.9, 10)
        for edge in enriched.edges:
            assert edge.head != "C0999999" and edge.tail != "C0999999"

    def test_range_checks(self):
        model = exact_translation_model()
        net = make_network("d1", ["C1"], [])
        with pytest.raises(UsageError):
            enrich_network(net, model, 0.0, 1)
        with pytest.raises(UsageError):
            enrich_network(net, model, 0.5, -1)

    def test_matches_bruteforce_oracle_on_random_fixtures(self):
        kb = helpers.planted_toy_kb()
        config = TrainConfig(dim=12, epochs=40, seed=3)
        model = train(init_model(kb.entities, kb.relations, config), kb, config)
        entities = sorted(kb.entities)
        relations = sorted(kb.relations)
        rng = random.Random(99)
        for case in range(15):
            cuis = rng.sample(entities, rng.randint(2, 6))
            edges = []
            for _ in range(rng.randint(0, 3)):
                head, tail = rng.sample(cuis, 2)
                edges.append(Edge(head, tail, rng.choice(relations), rng.uniform(0.1, 1.0), "extracted"))
            deduped = {}
            for edge in edges:
                deduped[edge.key()] = edge
            net = make_network(f"d{case}", cuis, list(deduped.values()))
            tau = rng.uniform(0.3, 0.9)
            cap = rng.randint(0, 8)
            enriched = enrich_network(net, model, tau, cap)
            predicted = [(e.confidence, e.key()) for e in enriched.edges[len(net.edges):]]
            expected = helpers.oracle_enrichment(net, model, tau, cap)
            assert [key for _, key in predicted] == [key for _, key in expected]
            for (got_conf, _), (want_conf, _) in zip(predicted, expected):
                assert got_conf == pytest.approx(want_conf, abs=1e-12)
            assert set(enriched.nodes) == set(net.nodes)
            assert all(conf >= tau for conf, _ in predicted)
            assert len(predicted) <= cap


def quarter_model(distance):
    """Components are multiples of 1/4, so every distance is exact whatever
    the order of summation. C7 repeats C2's vector, and (C0, exact, C1) is an
    exact translation."""
    rng = random.Random(7)

    def vector():
        return np.array([rng.randint(-8, 8) / 4 for _ in range(4)])

    entities = {f"C{i}": vector() for i in range(8)}
    entities["C7"] = entities["C2"].copy()
    relations = {f"r{k}": vector() for k in range(3)}
    relations["exact"] = entities["C1"] - entities["C0"]
    return EmbeddingModel(entities, relations, TrainConfig(dim=4, distance=distance))


class TestEnrichmentEqualsOracleExactly:
    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_keys_and_confidences(self, distance):
        model = quarter_model(distance)
        names = sorted(model.entity_vectors)
        rng = random.Random(3)
        cases = [(["C0", "C1", "C0999999"], [], 1.0, 5), (["C2", "C7", "C3", "C5"], [], 0.01, 40)]
        for _ in range(30):
            cuis = rng.sample(names, rng.randint(2, 8)) + ["C0999999"]
            edges = {}
            for _ in range(rng.randint(0, 4)):
                head, tail = rng.sample(cuis, 2)
                edge = Edge(head, tail, rng.choice(sorted(model.relation_vectors)), 0.5, "extracted")
                edges[edge.key()] = edge
            cases.append((cuis, list(edges.values()), rng.choice([1.0, 0.5, 0.05, 1e-4]), rng.randint(0, 40)))
        for cuis, edges, tau, cap in cases:
            net = make_network("d", cuis, edges)
            enriched = enrich_network(net, model, tau, cap)
            predicted = [(e.confidence, e.key()) for e in enriched.edges[len(net.edges):]]
            assert predicted == helpers.oracle_enrichment(net, model, tau, cap)
            assert all("C0999999" not in key for _, key in predicted)
        exact = enrich_network(make_network("d", cases[0][0], []), model, 1.0, 5).edges
        assert [(e.confidence, e.key()) for e in exact] == [(1.0, ("C0", "C1", "exact"))]
        tied = enrich_network(make_network("d", cases[1][0], []), model, 0.01, 40).edges
        scores = {e.key(): e.confidence for e in tied}
        assert any(key[0] == "C2" and scores.get(("C7",) + key[1:]) == score for key, score in scores.items())


class TestEnrichmentCut:
    """The m_cap cut gives exactly the oracle's ranking at every cap."""

    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_every_cap_on_ties(self, distance):
        model = quarter_model(distance)
        # C7 has C2's vector, so candidates tie in pairs all along the ranking.
        cuis = ["C0", "C1", "C2", "C3", "C5", "C7", "C0999999"]
        edges = [
            Edge("C2", "C3", "r0", 0.5, "extracted"),
            Edge("C7", "C2", "unknown_rel", 0.5, "extracted"),  # a relation the model lacks
            Edge("C0999999", "C1", "r1", 0.5, "extracted"),  # an endpoint the model lacks
        ]
        net = make_network("d", cuis, edges)
        for tau in (1e-4, 0.05, 0.5):
            everything = helpers.oracle_enrichment(net, model, tau, 10**6)
            scores = [score for score, _ in everything]
            if tau < 0.5:
                assert any(a == b for a, b in zip(scores, scores[1:]))  # a tie straddles some cap
            for cap in [*range(len(everything) + 3), 10**6]:
                enriched = enrich_network(net, model, tau, cap)
                assert enriched.edges[: len(edges)] == edges
                predicted = [(e.confidence, e.key()) for e in enriched.edges[len(edges) :]]
                assert predicted == everything[:cap]
            default = enrich_network(net, model, tau).edges[len(edges) :]
            assert [(e.confidence, e.key()) for e in default] == everything[: len(edges)]

    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_cut_is_a_prefix_of_the_full_ranking(self, distance):
        # Trained vectors round differently in the oracle's sums, so compare
        # each cap with the uncut ranking of the library itself.
        kb = helpers.planted_toy_kb()
        config = TrainConfig(dim=12, epochs=20, distance=distance, seed=3)
        model = train(init_model(kb.entities, kb.relations, config), kb, config)
        entities, relations = sorted(kb.entities), sorted(kb.relations)
        rng = random.Random(17)
        for case in range(10):
            cuis = rng.sample(entities, rng.randint(2, 7))
            edges = {}
            for _ in range(rng.randint(0, 4)):
                head, tail = rng.sample(cuis, 2)
                edge = Edge(head, tail, rng.choice(relations), 0.5, "extracted")
                edges[edge.key()] = edge
            net = make_network(f"d{case}", cuis, list(edges.values()))
            tau = rng.choice([1e-6, 0.01, 0.3])
            everything = enrich_network(net, model, tau, 10**6).edges[len(edges) :]
            for cap in range(len(everything) + 2):
                assert enrich_network(net, model, tau, cap).edges[len(edges) :] == everything[:cap]


class TestFuseConfidence:
    def test_noisy_or(self):
        assert fuse_confidence(0.6, 0.5) == pytest.approx(0.8)

    def test_zero_is_identity(self):
        assert fuse_confidence(0.7, 0.0) == pytest.approx(0.7)

    def test_one_absorbs(self):
        assert fuse_confidence(1.0, 0.3) == 1.0

    @given(
        st.floats(min_value=1e-9, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0 - 1e-9),
    )
    def test_never_below_either_input(self, c_ext, c_lp):
        fused = fuse_confidence(c_ext, c_lp)
        assert fused >= max(c_ext, c_lp) - 1e-15
        assert 0.0 < fused <= 1.0

    def test_range_checks(self):
        with pytest.raises(UsageError):
            fuse_confidence(0.0, 0.5)
        with pytest.raises(UsageError):
            fuse_confidence(0.5, 1.5)


class TestFuseNetwork:
    def test_extracted_edges_become_fused(self):
        model = exact_translation_model()
        net = make_network("d1", ["C1", "C2"], [Edge("C1", "C2", "r", 0.5, "extracted")])
        fused = fuse_network(net, model)
        assert fused.edges[0].provenance == "fused"
        assert fused.edges[0].confidence == 1.0  # plausibility is 1.0 for the exact translation

    def test_predicted_edges_untouched(self):
        model = exact_translation_model()
        predicted = Edge("C2", "C1", "r", 0.9, "predicted")
        net = make_network("d1", ["C1", "C2"], [predicted])
        assert fuse_network(net, model).edges == [predicted]

    def test_unscorable_edges_kept_as_is(self):
        model = exact_translation_model()
        extracted = Edge("C1", "C2", "unknown_rel", 0.5, "extracted")
        net = make_network("d1", ["C1", "C2"], [extracted])
        assert fuse_network(net, model).edges == [extracted]


class TestFusionEqualsPerEdgeOracle:
    @pytest.mark.parametrize("distance", ["l1", "l2"])
    @pytest.mark.parametrize("dim", [3, 8, 16, 50])
    def test_bit_for_bit(self, distance, dim):
        rng = random.Random(dim)
        # Short vectors give plausibilities near 1, so that with small
        # extraction confidences a last-bit change of a distance shows in the
        # fused confidence.
        vectors = np.random.default_rng(dim).normal(0.0, 0.05 / dim, (11, dim))
        model = EmbeddingModel(
            {f"C{i}": vectors[i] for i in range(8)},
            {f"r{k}": vectors[8 + k] for k in range(3)},
            TrainConfig(dim=dim, distance=distance),
        )
        cuis = [f"C{i}" for i in range(8)] + ["C0999999"]
        for case in range(25):
            edges = []
            for _ in range(rng.randint(0, 10)):
                head, tail = rng.sample(cuis, 2)
                relation = rng.choice(["r0", "r1", "r2", "unknown_rel"])
                provenance = rng.choice(["extracted", "extracted", "predicted", "fused"])
                edges.append(Edge(head, tail, relation, rng.choice([1.0, 2.0**-60, rng.uniform(1e-3, 1.0)]), provenance))
            net = make_network(f"d{case}", cuis, edges)
            fused = fuse_network(net, model)
            expected = helpers.oracle_fuse_network(net, model)
            assert [e.confidence.hex() for e in fused.edges] == [e.confidence.hex() for e in expected.edges]
            assert fused.edges == expected.edges
            for before, after in zip(net.edges, fused.edges):
                if before.provenance != "extracted" or not helpers.oracle_knows(model, before.head, before.relation, before.tail):
                    assert after is before
            assert fused.nodes == net.nodes


class TestNetworkSerialization:
    def test_round_trip_field_exact(self, lexicon):
        mentions = link("Aspirin and aspirin for heart attack and hypertension.", lexicon)
        edges = [
            Edge("C0004057", "C0027051", "may_treat", 0.8125, "extracted"),
            Edge("C0020538", "C0027051", "cause_of", 0.25, "predicted"),
        ]
        net = build_network("d1", mentions, edges, lexicon)
        clone = network_from_dict(json.loads(json.dumps(network_to_dict(net))))
        assert clone.doc_id == net.doc_id
        assert clone.edges == net.edges
        assert set(clone.nodes) == set(net.nodes)
        for cui in net.nodes:
            assert clone.nodes[cui] == net.nodes[cui]

    def test_file_round_trip(self, lexicon, tmp_path):
        nets = [
            build_network("d1", link("Aspirin for heart attack.", lexicon), [], lexicon),
            build_network("d2", [], [], lexicon),
        ]
        path = tmp_path / "networks.jsonl"
        path.write_text(networks_jsonl(nets), encoding="utf-8")
        loaded = read_networks(path)
        assert [network_to_dict(n) for n in loaded] == [network_to_dict(n) for n in nets]

    def test_endpoint_closure_enforced_on_read(self):
        data = {
            "doc_id": "d1",
            "nodes": [{"cui": "C1", "name": "c one", "spans": [[0, 2]], "weight": 1}],
            "edges": [{"head": "C1", "tail": "C2", "rel": "r", "conf": 0.5, "prov": "extracted"}],
        }
        with pytest.raises(ConsistencyError, match="C2"):
            network_from_dict(data)

    def test_weight_consistency_enforced_on_read(self):
        data = {
            "doc_id": "d1",
            "nodes": [{"cui": "C1", "name": "c one", "spans": [[0, 2]], "weight": 3}],
            "edges": [],
        }
        with pytest.raises(ValidationError, match="C1"):
            network_from_dict(data)
