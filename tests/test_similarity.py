from __future__ import annotations

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from casegraph.errors import FormatError, UsageError
from casegraph.network import Edge, Node, SemanticNetwork
from casegraph.similarity import (
    LabelCompressor,
    combined_similarity,
    doc_embedding,
    wl_features,
    wl_corpus_labels,
    wl_label_history,
)
from casegraph.transe import EmbeddingModel, TrainConfig


def make_network(doc_id, nodes, edges, weights=None):
    net = SemanticNetwork(doc_id)
    for i, cui in enumerate(nodes):
        weight = 1 if weights is None else weights[i]
        net.nodes[cui] = Node(cui, cui.lower(), [(j, j + 1) for j in range(weight)])
    net.edges = [Edge(h, t, r, 0.5, "extracted") for h, t, r in edges]
    return net


def random_network(rng: random.Random, doc_id: str, pool=None) -> SemanticNetwork:
    pool = pool or [f"C{i:03d}" for i in range(12)]
    nodes = rng.sample(pool, rng.randint(1, 6))
    edges = []
    if len(nodes) > 1:
        for _ in range(rng.randint(0, 2 * len(nodes))):
            head, tail = rng.sample(nodes, 2)
            edges.append((head, tail, rng.choice(["r1", "r2", "r3"])))
    unique = sorted({e for e in edges})
    return make_network(doc_id, nodes, unique)


class TestWlFeatures:
    def test_empty_network(self):
        assert wl_features(SemanticNetwork("d"), 3, LabelCompressor()) == {}

    def test_h_zero_is_node_histogram(self):
        comp = LabelCompressor()
        net = make_network("d", ["A", "B", "C"], [("A", "B", "r")])
        counts = wl_features(net, 0, comp)
        assert sorted(counts.values()) == [1, 1, 1]
        assert sum(counts.values()) == len(net.nodes)

    def test_three_node_path_h1_six_distinct_labels(self):
        # A -r-> B -r-> C: all refined labels differ (ends see one neighbor,
        # the middle sees two), so iterations 0 and 1 contribute 3 labels each.
        comp = LabelCompressor()
        net = make_network("d", ["A", "B", "C"], [("A", "B", "r"), ("B", "C", "r")])
        counts = wl_features(net, 1, comp)
        assert len(counts) == 6
        assert all(count == 1 for count in counts.values())

    def test_shared_compressor_reuses_labels(self):
        comp = LabelCompressor()
        net = make_network("d", ["A", "B"], [("A", "B", "r")])
        assert wl_features(net, 2, comp) == wl_features(net, 2, comp)

    def test_insertion_order_invariance(self):
        rng = random.Random(5)
        for trial in range(10):
            net = random_network(rng, f"d{trial}")
            shuffled = SemanticNetwork(net.doc_id)
            order = sorted(net.nodes, key=lambda _: rng.random())
            for cui in order:
                shuffled.nodes[cui] = net.nodes[cui]
            shuffled.edges = list(reversed(net.edges))
            assert wl_features(net, 3, LabelCompressor()) == wl_features(shuffled, 3, LabelCompressor())
            comp = LabelCompressor()
            assert wl_features(net, 3, comp) == wl_features(shuffled, 3, comp)

    def test_refinement_partitions_nest(self):
        rng = random.Random(11)
        for trial in range(10):
            net = random_network(rng, f"d{trial}")
            history = wl_label_history(net, 3, LabelCompressor())
            for previous, current in zip(history, history[1:]):
                groups: dict[int, set[int]] = {}
                for cui, label in current.items():
                    groups.setdefault(label, set()).add(previous[cui])
                for prior_labels in groups.values():
                    assert len(prior_labels) == 1


class TestWlKernel:
    """The kernel as ``combined_similarity`` computes it at lambda 1, against the ``helpers`` oracles."""

    def test_self_kernel_is_one(self):
        net = make_network("d", ["A", "B"], [("A", "B", "r")])
        assert combined_similarity(net, net, 1.0, LabelCompressor(), 2, None) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_labels_orthogonal(self):
        a, b = make_network("a", ["A", "B"], []), make_network("b", ["C", "D"], [])
        assert combined_similarity(a, b, 1.0, LabelCompressor(), 0, None) == 0.0

    def test_empty_graph_scores_zero(self):
        a, b = SemanticNetwork("a"), make_network("b", ["C"], [])
        assert combined_similarity(a, b, 1.0, LabelCompressor(), 1, None) == 0.0
        assert combined_similarity(b, a, 1.0, LabelCompressor(), 1, None) == 0.0

    def test_matches_feature_map_oracle(self):
        rng = random.Random(23)
        for trial in range(20):
            net_a = random_network(rng, "a")
            net_b = random_network(rng, "b")
            h = rng.randint(0, 3)
            comp = LabelCompressor()
            fa, fb = wl_features(net_a, h, comp), wl_features(net_b, h, comp)
            oracle_a = helpers.oracle_wl_counts(net_a, h)
            oracle_b = helpers.oracle_wl_counts(net_b, h)
            assert helpers.oracle_wl_dot(fa, fb) == helpers.oracle_wl_dot(oracle_a, oracle_b)
            assert helpers.oracle_wl_dot(fa, fa) == helpers.oracle_wl_dot(oracle_a, oracle_a)
            kernel = combined_similarity(net_a, net_b, 1.0, comp, h, None)
            assert kernel == pytest.approx(helpers.oracle_kernel(net_a, net_b, h), abs=1e-12)

    def test_symmetry_exact(self):
        rng = random.Random(31)
        comp = LabelCompressor()
        for trial in range(10):
            net_a, net_b = random_network(rng, "a"), random_network(rng, "b")
            assert combined_similarity(net_a, net_b, 1.0, comp, 2, None) == combined_similarity(net_b, net_a, 1.0, comp, 2, None)

    def test_gram_matrix_equals_feature_matrix_product(self):
        rng = random.Random(37)
        nets = [random_network(rng, f"d{i}") for i in range(6)]
        comp = LabelCompressor()
        vectors = [wl_features(net, 2, comp) for net in nets]
        gram = np.array([[helpers.oracle_wl_dot(a, b) for b in vectors] for a in vectors], dtype=float)
        oracle_counts = [helpers.oracle_wl_counts(net, 2) for net in nets]
        all_labels = sorted({label for counts in oracle_counts for label in counts}, key=repr)
        features = np.array(
            [[counts.get(label, 0) for label in all_labels] for counts in oracle_counts], dtype=float
        )
        assert np.array_equal(gram, features @ features.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-9

    def test_overlay_is_compatible_with_parent(self):
        comp = LabelCompressor()
        net = make_network("d", ["A", "B"], [("A", "B", "r")])
        base = wl_features(net, 1, comp)
        next_id = comp.next_id
        assert wl_features(net, 1, comp.overlay()) == base  # the overlay reads the parent's labels
        assert combined_similarity(net, net, 1.0, comp.overlay(), 1, None) == pytest.approx(1.0, abs=1e-12)
        assert comp.next_id == next_id  # parent untouched by overlay use


# Text that json.dumps escapes: quotes, backslashes, control characters,
# non-ASCII characters (astral ones become surrogate pairs) and lone surrogates.
awkward_text = st.text(
    st.sampled_from(['"', "\\", "/", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "中", "\U0001f600", "\ud800", "\udfff"])
    | st.characters(),
    max_size=5,
)


@st.composite
def awkward_networks(draw) -> SemanticNetwork:
    cuis = draw(st.lists(awkward_text, min_size=1, max_size=6, unique=True))
    relations = draw(st.lists(awkward_text, min_size=1, max_size=3, unique=True))
    edges = []
    if len(cuis) > 1:
        for _ in range(draw(st.integers(0, 2 * len(cuis)))):
            head, tail = draw(st.permutations(cuis))[:2]
            edges.append((head, tail, draw(st.sampled_from(relations))))
    return make_network("d", cuis, edges)


class TestSignaturesEqualJsonDumps:
    """Labels and the order in which they are assigned match those of the json.dumps signatures."""

    @settings(max_examples=150)
    @given(st.lists(awkward_networks(), min_size=1, max_size=3), st.integers(0, 3))
    def test_fresh_compressor(self, nets, h):
        comp, oracle = LabelCompressor(), LabelCompressor()
        for net in nets:
            assert wl_label_history(net, h, comp) == helpers.oracle_wl_label_history(net, h, oracle)
        assert list(comp.table.values()) == list(oracle.table.values())
        assert comp.next_id == oracle.next_id

    @settings(max_examples=150)
    @given(st.lists(awkward_networks(), min_size=2, max_size=4), st.integers(0, 3))
    def test_overlay(self, nets, h):
        parent, oracle_parent = LabelCompressor(), LabelCompressor()
        for net in nets[1:]:
            wl_label_history(net, h, parent)
            helpers.oracle_wl_label_history(net, h, oracle_parent)
        table = dict(parent.table)
        comp, oracle = parent.overlay(), oracle_parent.overlay()
        assert wl_label_history(nets[0], h, comp) == helpers.oracle_wl_label_history(nets[0], h, oracle)
        assert list(comp.table.values()) == list(oracle.table.values())
        assert comp.next_id == oracle.next_id
        assert parent.table == table

    def test_random_networks(self):
        rng = random.Random(5)
        comp, oracle = LabelCompressor(), LabelCompressor()
        for i in range(40):
            net = random_network(rng, f"d{i}")
            assert wl_label_history(net, 3, comp) == helpers.oracle_wl_label_history(net, 3, oracle)
        assert list(comp.table.values()) == list(oracle.table.values())


@st.composite
def hub_networks(draw) -> SemanticNetwork:
    """A hub joined to up to 40 leaves, by one to three relations, in either direction: degrees fall in several bands."""
    leaves = [f"L{i:02d}" for i in range(draw(st.integers(0, 40)))]
    relations = ["r1", "r2", "r3"][: draw(st.integers(1, 3))]
    edges = []
    for leaf in leaves:
        for _ in range(draw(st.integers(1, 3))):
            pair = ("H", leaf) if draw(st.booleans()) else (leaf, "H")
            edges.append((*pair, draw(st.sampled_from(relations))))
    return make_network("d", ["H", *leaves], edges)


@st.composite
def pooled_networks(draw) -> SemanticNetwork:
    """A network over a pool of six cuis, which other networks of a corpus share: isolated nodes, and pairs joined by several relations."""
    cuis = draw(st.lists(st.sampled_from("ABCDEF"), max_size=6, unique=True))
    keys = st.tuples(st.permutations(cuis).map(lambda order: tuple(order[:2])), st.sampled_from(["r1", "r2", "r3"]))
    edges = draw(st.lists(keys, max_size=12, unique=True)) if len(cuis) > 1 else []
    return make_network("d", cuis, [(head, tail, relation) for (head, tail), relation in edges])


CORPORA = st.lists(awkward_networks() | hub_networks() | st.just(SemanticNetwork("d")), min_size=1, max_size=5) | st.lists(
    pooled_networks(), min_size=1, max_size=8
)


class TestCorpusLabels:
    """``wl_corpus_labels`` partitions the nodes as one compressor going through the rows does, and its table labels each row alike."""

    @settings(max_examples=150)
    @given(CORPORA, st.integers(0, 4))
    def test_equal_to_the_oracle_network_by_network(self, nets, h):
        labels, comp = wl_corpus_labels(helpers.oracle_network_columns(nets), h)
        expected, oracle = helpers.oracle_corpus_labels(nets, h)
        assert len(helpers.relabelling(labels.tolist(), expected)) == comp.next_id == oracle.next_id

    @settings(max_examples=150)
    @given(CORPORA, st.integers(0, 3))
    def test_table_relabels_each_row(self, nets, h):
        labels, comp = wl_corpus_labels(helpers.oracle_network_columns(nets), h)
        rows = iter(labels.tolist())
        for net in nets:
            overlay = comp.overlay()
            history = wl_label_history(net, h, overlay)
            row = [next(rows) for _ in range(len(net.nodes) * (h + 1))]
            assert [label for node in zip(*map(dict.values, history)) for label in node] == row
            assert overlay.next_id == comp.next_id  # every signature was found

    def test_no_networks(self):
        labels, comp = wl_corpus_labels(helpers.oracle_network_columns([]), 2)
        assert (labels.tolist(), comp.next_id) == ([], 0)

    def test_degrees_stay_apart(self):
        # b's pairs at iteration 1 are all (relation id 0, cui id 0): two of
        # them in one network, three in the other.
        nets = [
            make_network("d1", ["a", "b"], [("a", "b", "r"), ("b", "a", "r")]),
            make_network("d2", ["a", "b"], [("a", "b", "r"), ("b", "a", "r"), ("a", "b", "r")]),
        ]
        assert wl_corpus_labels(helpers.oracle_network_columns(nets), 1)[0].tolist() == [0, 2, 1, 3, 0, 4, 1, 5]

    def test_overflowing_sort_keys_refused(self):
        columns = helpers.oracle_network_columns([make_network("d", ["A", "B"], [("A", "B", "r")])])
        assert wl_corpus_labels(columns, 1)[1].next_id == 4
        with pytest.raises(FormatError, match="overflow the int64 sort keys"):
            wl_corpus_labels(replace(columns, relations=range(2**62)), 1)


def tiny_model():
    return EmbeddingModel(
        {
            "A": np.array([1.0, 0.0]),
            "B": np.array([0.0, 1.0]),
            "C": np.array([1.0, 1.0]),
        },
        {"r": np.array([0.5, 0.5])},
        TrainConfig(dim=2),
    )


class TestDocEmbedding:
    def test_singleton_average(self):
        model = tiny_model()
        assert np.allclose(doc_embedding(make_network("d", ["A"], []), model), [1.0, 0.0])

    def test_weighted_average(self):
        model = tiny_model()
        net = make_network("d", ["A", "B"], [], weights=[1, 3])
        emb = doc_embedding(net, model)
        assert np.allclose(emb, (model.entity_vectors["A"] + 3 * model.entity_vectors["B"]) / 4)

    def test_no_embeddable_nodes(self):
        model = tiny_model()
        emb = doc_embedding(make_network("d", ["Z1", "Z2"], []), model)
        assert emb.shape == (2,) and not emb.any()

    def test_unknown_nodes_skipped(self):
        model = tiny_model()
        net = make_network("d", ["A", "Z9"], [], weights=[2, 5])
        assert np.allclose(doc_embedding(net, model), model.entity_vectors["A"])


class TestCombinedSimilarity:
    def test_lambda_one_is_kernel(self):
        model = tiny_model()
        net_a = make_network("a", ["A", "B"], [("A", "B", "r")])
        net_b = make_network("b", ["A", "C"], [("A", "C", "r")])
        expected = helpers.oracle_kernel(net_a, net_b, 2)
        assert 0.0 < expected < 1.0
        assert combined_similarity(net_a, net_b, 1.0, LabelCompressor(), 2, model) == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_is_clamped_cosine(self):
        model = tiny_model()
        net_a = make_network("a", ["A"], [])
        for other in ("B", "C"):
            net_b = make_network("b", [other], [])
            value = combined_similarity(net_a, net_b, 0.0, LabelCompressor(), 2, model)
            expected = helpers.oracle_cosine([1.0, 0.0], model.entity_vectors[other].tolist())
            assert value == pytest.approx(max(0.0, expected), abs=1e-12)

    def test_lambda_zero_matches_cosine_oracle(self):
        # Some cuis of the pool have no entity vector; a network may have none at all.
        rng = random.Random(41)
        pool = [f"C{i:03d}" for i in range(12)]
        vectors = {cui: np.array([rng.uniform(-1.0, 1.0) for _ in range(3)]) for cui in pool[::2] + pool[1:4]}
        model = EmbeddingModel(vectors, {"r1": np.zeros(3)}, TrainConfig(dim=3))
        for trial in range(20):
            net_a, net_b = random_network(rng, "a", pool), random_network(rng, "b", pool)
            value = combined_similarity(net_a, net_b, 0.0, LabelCompressor(), 1, model)
            ea, eb = helpers.oracle_embedding(net_a, vectors), helpers.oracle_embedding(net_b, vectors)
            assert value == pytest.approx(max(0.0, helpers.oracle_cosine(ea, eb)), abs=1e-12)

    def test_identical_networks_score_one(self):
        model = tiny_model()
        net = make_network("d", ["A", "B"], [("A", "B", "r")])
        for lam in (0.0, 0.6, 1.0):
            assert combined_similarity(net, net, lam, LabelCompressor(), 3, model) == pytest.approx(1.0, abs=1e-12)

    def test_without_model_latent_component_is_zero(self):
        net = make_network("d", ["A"], [])
        assert combined_similarity(net, net, 0.0, LabelCompressor(), 1, None) == 0.0

    def test_negative_cosine_clamped(self):
        model = EmbeddingModel(
            {"A": np.array([1.0, 0.0]), "B": np.array([-1.0, 0.0])},
            {"r": np.array([0.0, 0.0])},
            TrainConfig(dim=2),
        )
        net_a = make_network("a", ["A"], [])
        net_b = make_network("b", ["B"], [])
        assert combined_similarity(net_a, net_b, 0.0, LabelCompressor(), 1, model) == 0.0

    def test_lambda_range_checked(self):
        net = make_network("d", ["A"], [])
        with pytest.raises(UsageError):
            combined_similarity(net, net, 1.5, LabelCompressor(), 1, None)
