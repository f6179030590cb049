from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from casegraph.errors import TrainingError, UsageError
from casegraph.kb import build_triple_store
from casegraph.linking import Mention, link, split_sentences, tokenize
from casegraph.relations import (
    NA_LABEL,
    ExtractorHyperparams,
    ExtractorModel,
    RelationInstance,
    _scores,
    _softmax,
    distant_label,
    edges_jsonl,
    extract_batch,
    extract_relations,
    featurize,
    featurize_pairs,
    generate_candidates,
    kb_match_extract,
    read_edges,
    train_extractor,
)


def analyze(text, lexicon, doc_id="d1", window=30):
    tokens = tokenize(text)
    sentences = split_sentences(text, tokens)
    mentions = link(text, lexicon, tokens=tokens)
    pairs = generate_candidates(doc_id, mentions, sentences, tokens, window)
    return tokens, pairs


class TestGenerateCandidates:
    def test_both_orientations(self, lexicon):
        tokens, pairs = analyze("Aspirin treats heart attack.", lexicon)
        keys = {(p.head_mention.primary_cui, p.tail_mention.primary_cui) for p in pairs}
        assert keys == {("C0004057", "C0027051"), ("C0027051", "C0004057")}
        for pair in pairs:
            assert pair.token_distance == 1  # "treats"

    def test_single_mention_yields_nothing(self, lexicon):
        _, pairs = analyze("Aspirin was administered.", lexicon)
        assert list(pairs) == []

    def test_sentence_boundary_blocks_pairs(self, lexicon):
        _, pairs = analyze("Aspirin was given. Heart attack occurred later.", lexicon)
        assert list(pairs) == []

    def test_window_limit(self, lexicon):
        text = "Aspirin one two three four five six heart attack."
        _, pairs = analyze(text, lexicon, window=3)
        assert list(pairs) == []
        _, pairs = analyze(text, lexicon, window=6)
        assert len(pairs) == 2

    def test_matches_per_sentence_oracle_on_shuffled_overlapping_mentions(self, lexicon):
        # Mentions read from a file by ``extract`` may be in any order and may
        # overlap; the pairs must keep the order of the per-sentence scan.
        rng = random.Random(5)
        for _ in range(40):
            text = helpers.random_fixture_text(lexicon, rng, num_words=40)
            tokens = tokenize(text)
            sentences = split_sentences(text, tokens)
            mentions = list(link(text, lexicon, tokens=tokens))
            for _ in range(rng.randint(0, 8)):
                first = rng.randrange(len(tokens))
                last = min(len(tokens) - 1, first + rng.randint(0, 3))
                start, end = tokens[first].start, tokens[last].end
                mentions.append(Mention(start, end, text.encode()[start:end].decode(), ("C1",), "C1", 1.0))
            mentions += rng.sample(mentions, k=len(mentions) // 4)  # exact duplicates
            rng.shuffle(mentions)
            window = rng.choice([0, 2, 30])
            expected = helpers.oracle_generate_candidates("d", mentions, sentences, tokens, window)
            assert list(generate_candidates("d", mentions, sentences, tokens, window)) == expected


class TestDistantLabel:
    def test_kb_pair_gets_relation(self, lexicon, kb):
        _, pairs = analyze("Aspirin treats heart attack.", lexicon)
        forward = next(p for p in pairs if p.head_mention.primary_cui == "C0004057")
        assert distant_label(forward, kb) == "may_treat"

    def test_absent_pair_is_na(self, lexicon, kb):
        _, pairs = analyze("Hypertension and heart attack.", lexicon)
        assert {distant_label(p, kb) for p in pairs} == {NA_LABEL}

    def test_lexicographic_tie_break(self, lexicon):
        kb = build_triple_store(
            [("C0004057", "may_treat", "C0027051"), ("C0004057", "cause_of", "C0027051")]
        )
        _, pairs = analyze("Aspirin treats heart attack.", lexicon)
        forward = next(p for p in pairs if p.head_mention.primary_cui == "C0004057")
        assert distant_label(forward, kb) == "cause_of"

    def test_non_na_labels_always_in_store(self, lexicon, kb):
        _, pairs = analyze("Aspirin treats heart attack and hypertension.", lexicon)
        for pair in pairs:
            label = distant_label(pair, kb)
            if label != NA_LABEL:
                assert kb.has_triple(pair.head_mention.primary_cui, label, pair.tail_mention.primary_cui)


class TestFeaturize:
    def test_forward_pair_features(self, lexicon):
        tokens, pairs = analyze("aspirin treats heart attack", lexicon)
        forward = next(p for p in pairs if p.head_mention.primary_cui == "C0004057")
        features = featurize(forward, tokens, lexicon)
        assert features["bet:treats"] == 1
        assert features["dir:fwd"] == 1
        assert features["dist:0-2"] == 1
        assert features["ht:T121"] == 1
        assert features["tt:T047"] == 1

    def test_adjacent_mentions_have_no_between_bag(self, lexicon):
        tokens, pairs = analyze("aspirin heart attack", lexicon)
        forward = next(p for p in pairs if p.head_mention.primary_cui == "C0004057")
        features = featurize(forward, tokens, lexicon)
        assert not any(name.startswith("bet:") for name in features)
        assert features["dist:0-2"] == 1

    def test_reversed_pair_keeps_between_bag(self, lexicon):
        tokens, pairs = analyze("aspirin treats heart attack", lexicon)
        reverse = next(p for p in pairs if p.head_mention.primary_cui == "C0027051")
        features = featurize(reverse, tokens, lexicon)
        assert features["dir:rev"] == 1
        assert features["bet:treats"] == 1

    def test_repeated_between_tokens_are_counted(self, lexicon):
        tokens, pairs = analyze("aspirin with with of WITH heart attack", lexicon)
        forward = next(p for p in pairs if p.head_mention.primary_cui == "C0004057")
        features = featurize(forward, tokens, lexicon)
        assert features == {"bet:with": 3, "bet:of": 1, "dir:fwd": 1, "dist:3-5": 1, "ht:T121": 1, "tt:T047": 1}

    def test_matches_oracle_on_random_documents(self):
        lexicon = helpers.synth_lexicon()
        rng = random.Random(17)
        for _ in range(30):
            tokens, pairs = analyze(helpers.random_fixture_text(lexicon, rng, num_words=40), lexicon)
            batch = featurize_pairs(pairs, tokens, lexicon)
            for pair, features in zip(pairs, batch, strict=True):
                expected = list(helpers.oracle_featurize(pair, tokens, lexicon).items())
                assert list(featurize(pair, tokens, lexicon).items()) == list(features.items()) == expected


def separable_instances():
    rows = [("sig:na", NA_LABEL, 7), ("sig:treat", "may_treat", 7), ("sig:cause", "cause_of", 6)]
    instances = []
    for signature, label, copies in rows:
        for i in range(copies):
            instances.append(RelationInstance(None, label, {signature: 1, "dist:0-2": 1, f"noise:{i}": 1}))
    return instances


class TestTrainExtractor:
    def test_separable_fixture_reaches_full_accuracy(self):
        instances = separable_instances()
        model = train_extractor(instances, ExtractorHyperparams(epochs=50, seed=3))
        correct = sum(
            model.labels[int(np.argmax(helpers.oracle_probabilities(model.weights, inst.features, model.feature_vocab)))] == inst.label
            for inst in instances
        )
        assert correct == len(instances)

    def test_same_seed_same_weights(self):
        instances = separable_instances()
        first = train_extractor(instances, ExtractorHyperparams(seed=11))
        second = train_extractor(instances, ExtractorHyperparams(seed=11))
        assert np.array_equal(first.weights, second.weights)

    def test_zero_epochs_uniform_distribution(self):
        model = train_extractor(separable_instances(), ExtractorHyperparams(epochs=0))
        probs = helpers.oracle_probabilities(model.weights, {"sig:treat": 1}, model.feature_vocab)
        assert np.allclose(probs, 1.0 / len(model.labels))

    def test_all_na_is_an_error(self):
        instances = [RelationInstance(None, NA_LABEL, {"f": 1}) for _ in range(5)]
        with pytest.raises(TrainingError, match="no positive relations"):
            train_extractor(instances)

    def test_na_is_first_label(self):
        model = train_extractor(separable_instances())
        assert model.labels[0] == NA_LABEL

    def test_gradient_matches_central_differences(self):
        labels = [NA_LABEL, "rel_a", "rel_b"]
        vocab = {f"f{i}": i for i in range(5)}
        rng = np.random.default_rng(3)
        instances = []
        for _ in range(12):
            features = {f"f{i}": int(rng.integers(0, 3)) for i in range(5)}
            features = {k: v for k, v in features.items() if v}
            instances.append(RelationInstance(None, labels[int(rng.integers(3))], features))
        weights = rng.normal(size=(3, 5))
        _, grad = helpers.oracle_dataset_loss_and_gradient(weights, instances, vocab, labels, l2=0.01)
        numeric = helpers.central_difference(
            lambda w: helpers.oracle_dataset_loss_and_gradient(w, instances, vocab, labels, 0.01)[0], weights
        )
        assert helpers.relative_error(grad, numeric) < 1e-4

    @pytest.mark.parametrize("l2", [1e-3, 5.0])  # with a large L2 the decay's rounding reaches the weights
    @pytest.mark.parametrize("epochs", [0, 1, 4])
    @pytest.mark.parametrize("seed", [0, 5, 13])
    def test_matches_oracle_bit_for_bit(self, seed, epochs, l2):
        hyper = ExtractorHyperparams(learning_rate=0.3, epochs=epochs, l2=l2, seed=seed)
        for instances in (separable_instances(), synth_instances()):
            model = train_extractor(instances, hyper)
            expected = helpers.oracle_train_extractor(instances, hyper)
            assert (model.labels, model.feature_vocab) == (expected.labels, expected.feature_vocab)
            assert model.weights.tobytes() == expected.weights.tobytes()

    def test_softmax_sums_to_one(self):
        model = train_extractor(separable_instances(), ExtractorHyperparams(epochs=5))
        rng = np.random.default_rng(8)
        features_pool = sorted(model.feature_vocab)
        for _ in range(20):
            features = {rng.choice(features_pool): int(rng.integers(1, 4)) for _ in range(3)}
            ids = np.array([[model.feature_vocab[name] for name in sorted(features)]])
            counts = np.array([[features[name] for name in sorted(features)]], dtype=float)
            probs = _softmax(_scores(model.weights, ids, counts))[0]
            assert abs(float(probs.sum()) - 1.0) < 1e-9
            assert (probs > 0).all()


def synth_instances():
    """Distantly labelled instances of the synthetic corpus, as ``train-extractor`` builds them."""
    lexicon = helpers.synth_lexicon()
    kb = helpers.synth_kb(lexicon)
    instances = []
    for doc in helpers.synth_corpus(lexicon, 12, seed=3):
        tokens, pairs = analyze(doc.content(), lexicon, doc_id=doc.id)
        instances += [RelationInstance(p, distant_label(p, kb), featurize(p, tokens, lexicon)) for p in pairs]
    return instances


def trained_fixture_model(lexicon, kb):
    corpus = [
        "Aspirin treats heart attack.",
        "Aspirin rapidly treats heart attack.",
        "Aspirin clearly treats heart attack today.",
        "Hypertension and heart attack.",
        "Hypertension with heart attack risk.",
    ]
    instances = []
    token_map = {}
    for i, text in enumerate(corpus):
        tokens, pairs = analyze(text, lexicon, doc_id=f"d{i}")
        token_map[f"d{i}"] = tokens
        for pair in pairs:
            instances.append(RelationInstance(pair, distant_label(pair, kb), featurize(pair, tokens, lexicon)))
    model = train_extractor(instances, ExtractorHyperparams(epochs=80, seed=5))
    return model, token_map


class TestExtractRelations:
    def test_threshold_gates_edges(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        tokens, pairs = analyze("Aspirin treats heart attack.", lexicon)
        edges = extract_relations(pairs, model, 0.5, tokens, lexicon)
        assert len(edges) == 1
        edge = edges[0]
        assert (edge.head, edge.relation, edge.tail) == ("C0004057", "may_treat", "C0027051")
        assert edge.provenance == "extracted"
        assert 0.5 <= edge.confidence <= 1.0
        above = edge.confidence + 1e-9
        assert extract_relations(pairs, model, above, tokens, lexicon) == []

    def test_na_prediction_suppressed(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        tokens, pairs = analyze("Hypertension and heart attack.", lexicon)
        assert extract_relations(pairs, model, 0.0, tokens, lexicon) == []

    def test_monotone_in_threshold(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        tokens, pairs = analyze("Aspirin treats heart attack and hypertension.", lexicon)
        previous = None
        for theta in (0.0, 0.3, 0.6, 0.9, 1.0):
            edges = {(e.head, e.tail, e.relation) for e in extract_relations(pairs, model, theta, tokens, lexicon)}
            if previous is not None:
                assert edges <= previous
            previous = edges

    def test_duplicate_edges_keep_max_confidence(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        text = "Aspirin treats heart attack. Aspirin rapidly treats heart attack."
        tokens, pairs = analyze(text, lexicon)
        edges = extract_relations(pairs, model, 0.0, tokens, lexicon)
        keys = [(e.head, e.tail, e.relation) for e in edges]
        assert len(keys) == len(set(keys))
        per_pair = {}
        for pair in pairs:
            probs = helpers.oracle_probabilities(model.weights, featurize(pair, tokens, lexicon), model.feature_vocab)
            label = model.labels[int(np.argmax(probs))]
            if label == NA_LABEL:
                continue
            key = (pair.head_mention.primary_cui, pair.tail_mention.primary_cui, label)
            per_pair[key] = max(per_pair.get(key, 0.0), float(probs.max()))
        for edge in edges:
            assert edge.confidence == pytest.approx(per_pair[(edge.head, edge.tail, edge.relation)])


class TestKbMatchExtract:
    def test_co_occurring_kb_pair(self, lexicon, kb):
        _, pairs = analyze("Aspirin treats heart attack.", lexicon)
        edges = kb_match_extract(pairs, kb)
        assert len(edges) == 1
        assert edges[0].confidence == 0.5
        assert (edges[0].head, edges[0].relation, edges[0].tail) == ("C0004057", "may_treat", "C0027051")

    def test_non_kb_pair(self, lexicon, kb):
        _, pairs = analyze("Hypertension and heart attack.", lexicon)
        assert kb_match_extract(pairs, kb) == []

    def test_multi_relation_pair_emits_all(self, lexicon):
        kb = build_triple_store(
            [("C0004057", "may_treat", "C0027051"), ("C0004057", "may_prevent", "C0027051")]
        )
        _, pairs = analyze("Aspirin treats heart attack.", lexicon)
        edges = kb_match_extract(pairs, kb)
        assert {e.relation for e in edges} == {"may_prevent", "may_treat"}


class TestEdgeIO:
    def test_round_trip(self, lexicon, kb, tmp_path):
        _, pairs = analyze("Aspirin treats heart attack.", lexicon)
        per_doc = {"d1": kb_match_extract(pairs, kb), "d2": []}
        path = tmp_path / "edges.jsonl"
        path.write_text(edges_jsonl(per_doc), encoding="utf-8")
        assert read_edges(path) == per_doc


def random_model(features, num_labels: int, rng: np.random.Generator, keep: float = 1.0) -> ExtractorModel:
    """Random weights over a random share ``keep`` of ``features``, numbered in sorted order."""
    names = sorted(name for name in set(features) if rng.random() < keep)
    labels = [NA_LABEL] + [f"rel_{i:02d}" for i in range(num_labels - 1)]
    weights = rng.normal(size=(num_labels, len(names))) * rng.choice([0.01, 1.0, 4.0], size=(num_labels, len(names)))
    return ExtractorModel({name: i for i, name in enumerate(names)}, weights, labels, ExtractorHyperparams())


def pair_features(docs, lexicon):
    return [name for tokens, pairs in docs for pair in pairs for name in helpers.oracle_featurize(pair, tokens, lexicon)]


class TestBatchedExtraction:
    """``extract_relations`` scores a call's pairs together; the per-pair oracle is the reference."""

    @pytest.mark.parametrize("num_labels", [2, 12])
    def test_matches_oracle_on_random_documents(self, num_labels):
        lexicon = helpers.synth_lexicon()
        rng = random.Random(num_labels)
        docs = [
            analyze(helpers.random_fixture_text(lexicon, rng, num_words=50), lexicon, window=rng.choice([0, 3, 30]))
            for _ in range(15)
        ]
        features = pair_features(docs, lexicon)
        weights_rng = np.random.default_rng(num_labels)
        for keep in (1.0, 0.6, 0.1):
            model = random_model(features, num_labels, weights_rng, keep)
            for tokens, pairs in docs:
                for theta in (0.0, 0.3, 0.6, 1.0):
                    expected = helpers.oracle_extract_relations(pairs, model, theta, tokens, lexicon)
                    assert extract_relations(pairs, model, theta, tokens, lexicon) == expected

    @pytest.mark.parametrize("num_labels", [2, 12])
    def test_every_feature_count_from_zero_to_window_plus_four(self, num_labels):
        # One sentence per number k of distinct between-tokens; models that
        # know every feature give k + 4 known features, models that know only
        # the between-tokens give k.
        window = 8
        lexicon = helpers.synth_lexicon()
        fillers = ["patient", "presented", "with", "history", "of", "treated", "using", "after", "severe"]
        text = " ".join(f"Aspirin {' '.join(fillers[:k])} fever." for k in range(window + 1))
        tokens, pairs = analyze(text, lexicon, window=window)
        features = pair_features([(tokens, pairs)], lexicon)
        rng = np.random.default_rng(3)
        seen = set()
        for between_only in (False, True):
            for _ in range(3):
                model = random_model([f for f in features if f.startswith("bet:") or not between_only], num_labels, rng)
                for pair in pairs:
                    seen.add(sum(name in model.feature_vocab for name in helpers.oracle_featurize(pair, tokens, lexicon)))
                for theta in (0.0, 0.5):
                    expected = helpers.oracle_extract_relations(pairs, model, theta, tokens, lexicon)
                    assert extract_relations(pairs, model, theta, tokens, lexicon) == expected
        assert seen == set(range(window + 5))

    def test_theta_exactly_at_a_confidence_keeps_the_edge(self):
        lexicon = helpers.synth_lexicon()
        rng = random.Random(4)
        docs = [analyze(helpers.random_fixture_text(lexicon, rng, num_words=30), lexicon) for _ in range(4)]
        model = random_model(pair_features(docs, lexicon), 3, np.random.default_rng(4))
        checked = 0
        for tokens, pairs in docs:
            for edge in helpers.oracle_extract_relations(pairs, model, 0.0, tokens, lexicon)[:8]:
                edges = extract_relations(pairs, model, edge.confidence, tokens, lexicon)
                assert edge in edges
                assert edges == helpers.oracle_extract_relations(pairs, model, edge.confidence, tokens, lexicon)
                checked += 1
        assert checked >= 8

    def test_same_cui_pairs_are_skipped(self, lexicon):
        tokens, pairs = analyze("Heart attack after myocardial infarction with aspirin.", lexicon)
        assert any(p.head_mention.primary_cui == p.tail_mention.primary_cui for p in pairs)
        model = random_model(pair_features([(tokens, pairs)], lexicon), 2, np.random.default_rng(0))
        model.weights[1] = 50.0  # every known feature votes for the relation
        edges = extract_relations(pairs, model, 0.0, tokens, lexicon)
        assert edges == helpers.oracle_extract_relations(pairs, model, 0.0, tokens, lexicon)
        assert edges and all(e.head != e.tail for e in edges)

    def test_pairs_without_a_known_feature_predict_na(self, lexicon):
        tokens, pairs = analyze("Aspirin treats heart attack and hypertension.", lexicon)
        labels = [NA_LABEL, "may_treat"]
        unknown = ExtractorModel({"bet:never": 0}, np.array([[0.0], [9.0]]), labels, ExtractorHyperparams())
        assert extract_relations(pairs, unknown, 0.0, tokens, lexicon) == []
        assert helpers.oracle_extract_relations(pairs, unknown, 0.0, tokens, lexicon) == []
        empty = ExtractorModel({}, np.zeros((2, 0)), labels, ExtractorHyperparams())
        assert extract_relations(pairs, empty, 0.0, tokens, lexicon) == []


SYNTH = helpers.synth_lexicon()
SURFACES = sorted(SYNTH.surface_index)


@st.composite
def extraction_batches(draw):
    """``(docs, model, theta)``: a batch of analyzed synthetic documents, a random model and a threshold.

    A batch may repeat a document, so the same (head, tail, relation) key
    occurs in several documents, and may hold documents without pairs or
    whose pairs all join one concept. The model knows a random share of the
    batch's features, down to none; a forceful one votes for a relation on
    every known feature. The threshold may equal one of the batch's
    confidences.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    docs = []
    for kind in draw(st.lists(st.sampled_from(["text", "repeat", "no pairs", "one concept"]), max_size=8)):
        if kind == "repeat" and docs:
            docs.append(docs[rng.randrange(len(docs))])
            continue
        if kind == "no pairs":
            text = rng.choice(["", "Fever.", "Patient with history of episode.", "Aspirin. Fever."])
        elif kind == "one concept":
            surface = rng.choice(SURFACES)
            text = f"{surface} with {surface.title()} after {surface}. Severe {surface}."
        else:
            text = helpers.random_fixture_text(SYNTH, rng, num_words=rng.randrange(5, 40))
        docs.append(analyze(text, SYNTH, doc_id=f"d{len(docs)}", window=rng.choice([0, 3, 30])))
    weights_rng = np.random.default_rng(rng.randrange(2**32))
    model = random_model(pair_features(docs, SYNTH), draw(st.sampled_from([2, 5])), weights_rng, draw(st.sampled_from([1.0, 0.5, 0.05, 0.0])))
    if draw(st.booleans()):
        model.weights[1] = 50.0
    theta = draw(st.sampled_from([0.0, 0.3, 0.6, 1.0, "a confidence"]))
    if theta == "a confidence":
        confidences = sorted(e.confidence for tokens, pairs in docs for e in helpers.oracle_extract_relations(pairs, model, 0.0, tokens, SYNTH))
        theta = confidences[rng.randrange(len(confidences))] if confidences else 0.5
    return docs, model, theta


class TestExtractBatch:
    """``extract_batch`` scores many documents at once; each document must get what the per-pair oracle gives it alone."""

    @given(extraction_batches())
    def test_each_document_matches_the_oracle(self, batch):
        docs, model, theta = batch
        expected = [helpers.oracle_extract_relations(pairs, model, theta, tokens, SYNTH) for tokens, pairs in docs]
        assert extract_batch([(pairs, tokens) for tokens, pairs in docs], model, theta, SYNTH) == expected

    def test_a_key_in_several_documents_stays_in_each(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        texts = ["Aspirin treats heart attack.", "Hypertension.", "Aspirin rapidly treats heart attack."]
        docs = [analyze(text, lexicon, doc_id=f"d{i}") for i, text in enumerate(texts)]
        edges = extract_batch([(pairs, tokens) for tokens, pairs in docs], model, 0.0, lexicon)
        assert edges == [helpers.oracle_extract_relations(pairs, model, 0.0, tokens, lexicon) for tokens, pairs in docs]
        assert edges[0] and edges[1] == [] and edges[2]
        assert {(e.head, e.tail, e.relation) for e in edges[0]} == {(e.head, e.tail, e.relation) for e in edges[2]}
        assert edges[0] != edges[2]  # the same keys, each at its own document's confidence

    def test_pairs_that_all_join_one_concept_yield_nothing(self, lexicon):
        tokens, pairs = analyze("Heart attack after myocardial infarction.", lexicon)
        assert pairs and all(p.head_mention.primary_cui == p.tail_mention.primary_cui for p in pairs)
        model = random_model(pair_features([(tokens, pairs)], lexicon), 2, np.random.default_rng(0))
        model.weights[1] = 50.0
        assert extract_batch([(pairs, tokens), (pairs, tokens)], model, 0.0, lexicon) == [[], []]

    def test_out_of_range_theta_on_an_empty_batch(self, lexicon, kb):
        model, _ = trained_fixture_model(lexicon, kb)
        assert extract_batch([], model, 1.0, lexicon) == []
        for theta in (-0.1, 1.5, float("nan")):
            with pytest.raises(UsageError):
                extract_batch([], model, theta, lexicon)


class TestScores:
    """The stacked product behind ``_scores`` is bit-equal to one gemv per row."""

    @pytest.mark.parametrize("num_labels", [2, 3, 7, 12])
    def test_stacked_product_is_bit_equal_to_per_row_gemv(self, num_labels):
        rng = np.random.default_rng(num_labels)
        weights = rng.normal(size=(num_labels, 60)) * rng.choice([1e-3, 1.0, 30.0], size=(num_labels, 60))
        for layout in (weights, np.ascontiguousarray(weights.T).T):
            for n in range(1, 41):
                for rows in (1, 2, 7, 100):
                    ids = np.sort(np.array([rng.choice(60, n, replace=False) for _ in range(rows)]), axis=1)
                    counts = rng.integers(1, 4, size=(rows, n)).astype(float)
                    expected = np.array([weights[:, ids[p]] @ counts[p] for p in range(rows)])
                    assert _scores(layout, ids, counts).tobytes() == expected.tobytes(), (n, rows)

    @pytest.mark.parametrize("num_labels", [2, 7, 12, 33])
    def test_row_softmax_keeps_each_rows_bits(self, num_labels):
        rng = np.random.default_rng(num_labels)
        scores = rng.normal(size=(200, num_labels)) * 20.0
        expected = np.array([helpers.oracle_softmax(row) for row in scores])
        assert _softmax(scores).tobytes() == expected.tobytes()
