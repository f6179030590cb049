from __future__ import annotations

import math

import numpy as np
import pytest

import helpers
from casegraph.errors import ConfigError, FormatError, UnknownIdentifierError, UsageError
from casegraph.kb import Triple, build_triple_store
from casegraph.transe import (
    EmbeddingModel,
    TrainConfig,
    dissimilarity,
    evaluate_link_prediction,
    init_model,
    load_model,
    margin_loss,
    margin_loss_gradients,
    model_from_columns,
    model_to_columns,
    plausibility,
    rank_heads,
    rank_tails,
    save_model,
    train,
)


def toy_model(distance="l1", margin=1.0):
    config = TrainConfig(dim=2, margin=margin, distance=distance)
    return EmbeddingModel(
        {
            "C1": np.array([1.0, 0.0]),
            "C2": np.array([1.0, 1.0]),
            "C3": np.array([0.0, 0.0]),
        },
        {"r": np.array([0.0, 1.0]), "zero": np.array([0.0, 0.0])},
        config,
    )


class TestInitModel:
    def test_deterministic(self):
        config = TrainConfig(dim=8, seed=4)
        first = init_model({"a", "b", "c"}, {"r1"}, config)
        second = init_model({"c", "a", "b"}, {"r1"}, config)
        for name in first.entity_vectors:
            assert np.array_equal(first.entity_vectors[name], second.entity_vectors[name])
        assert np.array_equal(first.relation_vectors["r1"], second.relation_vectors["r1"])

    def test_entities_unit_norm(self):
        model = init_model([f"e{i}" for i in range(5)], ["r"], TrainConfig(dim=2, seed=1))
        for vec in model.entity_vectors.values():
            assert abs(np.linalg.norm(vec) - 1.0) < 1e-9

    def test_cardinality(self):
        model = init_model(["a", "b", "c"], ["r"], TrainConfig(dim=3))
        assert len(model.entity_vectors) == 3
        assert len(model.relation_vectors) == 1

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigError):
            init_model([], ["r"], TrainConfig())
        with pytest.raises(ConfigError):
            init_model(["a"], [], TrainConfig())


class TestDissimilarity:
    def test_exact_translation_l1(self):
        assert dissimilarity(toy_model("l1"), "C1", "r", "C2") == 0.0

    def test_l1_arithmetic(self):
        assert dissimilarity(toy_model("l1"), "C1", "zero", "C3") == 1.0

    def test_l2_arithmetic(self):
        assert dissimilarity(toy_model("l2"), "C1", "zero", "C3") == 1.0

    def test_unknown_identifiers_named(self):
        model = toy_model()
        with pytest.raises(UnknownIdentifierError, match="C9"):
            dissimilarity(model, "C9", "r", "C2")
        with pytest.raises(UnknownIdentifierError, match="nope"):
            dissimilarity(model, "C1", "nope", "C2")


class TestPlausibility:
    def test_perfect_translation(self):
        assert plausibility(toy_model(), "C1", "r", "C2") == 1.0

    def test_unit_distance(self):
        assert plausibility(toy_model(), "C1", "zero", "C3") == pytest.approx(0.3679, abs=1e-4)

    def test_decay(self):
        model = toy_model()
        model.entity_vectors["far"] = np.array([11.0, 0.0])
        assert plausibility(model, "C1", "zero", "far") < 1e-4

    def test_strictly_decreasing_in_dissimilarity(self):
        model = toy_model()
        scored = [
            (dissimilarity(model, h, r, t), plausibility(model, h, r, t))
            for h in model.entity_vectors
            for t in model.entity_vectors
            for r in model.relation_vectors
        ]
        scored.sort()
        for (d1, p1), (d2, p2) in zip(scored, scored[1:]):
            if d1 < d2:
                assert p1 > p2
            assert (p1 == 1.0) == (d1 == 0.0)


class TestMarginGradients:
    @pytest.mark.parametrize("distance", ["l2", "l1"])
    def test_matches_central_differences(self, distance):
        rng = np.random.default_rng(17)
        config = TrainConfig(dim=4, margin=5.0, distance=distance, seed=0)
        model = EmbeddingModel(
            {name: rng.normal(size=4) for name in ("e1", "e2", "e3")},
            {"r": rng.normal(size=4)},
            config,
        )
        positive = Triple("e1", "r", "e2")
        corrupted = Triple("e1", "r", "e3")
        assert margin_loss(model, positive, corrupted) > 0.0
        grads = margin_loss_gradients(model, positive, corrupted)
        for kind, name in [("entity", "e1"), ("entity", "e2"), ("entity", "e3"), ("relation", "r")]:
            table = model.entity_vectors if kind == "entity" else model.relation_vectors
            vec = table[name]
            numeric = helpers.central_difference(lambda _: margin_loss(model, positive, corrupted), vec)
            assert helpers.relative_error(grads[(kind, name)], numeric) < 1e-4

    def test_inactive_margin_has_no_gradients(self):
        model = toy_model(margin=0.5)
        # d(C1, r, C2) = 0 and d(C1, r, C3) = 3, so the margin is satisfied.
        assert margin_loss_gradients(model, Triple("C1", "r", "C2"), Triple("C1", "r", "C3")) == {}


class TestTrain:
    def test_loss_decreases_on_toy_kb(self):
        kb = helpers.planted_toy_kb(num_triples=10)
        config = TrainConfig(dim=16, learning_rate=0.01, epochs=200, seed=7)
        trained = train(init_model(kb.entities, kb.relations, config), kb, config)
        assert trained.epoch_losses[-1] < trained.epoch_losses[0]

    def test_zero_epochs_is_identity(self):
        kb = helpers.planted_toy_kb(num_triples=10)
        config = TrainConfig(dim=8, epochs=0, seed=7)
        model = init_model(kb.entities, kb.relations, config)
        trained = train(model, kb, config)
        for name in model.entity_vectors:
            assert np.array_equal(model.entity_vectors[name], trained.entity_vectors[name])
        for name in model.relation_vectors:
            assert np.array_equal(model.relation_vectors[name], trained.relation_vectors[name])
        assert trained.epoch_losses == []

    def test_seeded_reproducibility(self):
        kb = helpers.planted_toy_kb(num_triples=12)
        config = TrainConfig(dim=8, epochs=25, seed=21)
        first = train(init_model(kb.entities, kb.relations, config), kb, config)
        second = train(init_model(kb.entities, kb.relations, config), kb, config)
        assert model_to_columns(first) == model_to_columns(second)

    def test_entity_norms_one_after_every_epoch(self):
        kb = helpers.planted_toy_kb(num_triples=12)
        config = TrainConfig(dim=8, epochs=10, seed=2)
        norms_seen = []

        def check(epoch, model):
            norms_seen.append(max(abs(np.linalg.norm(v) - 1.0) for v in model.entity_vectors.values()))

        train(init_model(kb.entities, kb.relations, config), kb, config, on_epoch=check)
        assert len(norms_seen) == 10
        assert max(norms_seen) < 1e-6

    def test_config_dim_must_match_model(self):
        # Training such a model would write a file that load_model refuses.
        kb = helpers.planted_toy_kb(num_triples=10)
        model = init_model(kb.entities, kb.relations, TrainConfig(dim=8))
        with pytest.raises(ConfigError, match="dim is 4"):
            train(model, kb, TrainConfig(dim=4, epochs=2))

    def test_input_model_untouched(self):
        kb = helpers.planted_toy_kb(num_triples=10)
        config = TrainConfig(dim=8, epochs=5, seed=3)
        model = init_model(kb.entities, kb.relations, config)
        snapshot = {k: v.copy() for k, v in model.entity_vectors.items()}
        train(model, kb, config)
        for name, vec in snapshot.items():
            assert np.array_equal(model.entity_vectors[name], vec)


def dense_kb():
    """Seven entities: E0 has r0 to every other entity and every other entity
    has r1 to E1, so the only corrupted tail of (E0, r0, .) is E0 itself and
    the only corrupted head of (., r1, E1) is E1: a self-loop triple. A seeded
    sprinkle of r0/r2 facts fills in the rest."""
    entities = [f"E{i}" for i in range(7)]
    triples = [("E0", "r0", e) for e in entities[1:]] + [(e, "r1", "E1") for e in entities if e != "E1"]
    rng = np.random.default_rng(11)
    for _ in range(25):
        head, tail = rng.choice(entities, size=2, replace=False).tolist()
        triples.append((head, "r2" if rng.integers(2) else "r0", tail))
    return build_triple_store(triples)


class TestTrainMatchesOracle:
    @pytest.mark.parametrize("dim", [5, 16, 50])
    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_identical_to_allowed_list_loop(self, distance, dim):
        kbs = [dense_kb(), helpers.planted_toy_kb(num_entities=12, num_triples=30)]
        for kb, extra in ((kbs[0], []), (kbs[1], []), (kbs[1], ["C0", "Z9"])):
            for seed in (0, 1, 2):
                config = TrainConfig(dim=dim, margin=2.0, learning_rate=0.05, epochs=5, distance=distance, seed=seed)
                model = init_model([*kb.entities, *extra], kb.relations, config)
                got = train(model, kb, config)
                want = helpers.oracle_train(model, kb, config)
                assert model_to_columns(got) == model_to_columns(want)
                assert (list(got.entity_vectors), list(got.relation_vectors)) == (list(want.entity_vectors), list(want.relation_vectors))
                assert got.epoch_losses == want.epoch_losses

    def test_dense_kb_forces_self_loop_corruptions(self):
        kb = dense_kb()
        entities = sorted(kb.entities)
        assert [e for e in entities if not kb.has_triple("E0", "r0", e)] == ["E0"]
        assert [e for e in entities if not kb.has_triple(e, "r1", "E1")] == ["E1"]

    def test_epoch_vectors_keep_their_values(self):
        kb = dense_kb()

        def config(epochs):
            return TrainConfig(dim=6, learning_rate=0.05, epochs=epochs, distance="l2", seed=4)

        model = init_model(kb.entities, kb.relations, config(3))
        held = []
        train(model, kb, config(3), on_epoch=lambda epoch, m: held.append({**m.entity_vectors, **m.relation_vectors}))
        # The vectors handed out at an epoch end still hold that epoch's values
        # after training went on, and equal a run that stops there.
        for epoch, vectors in enumerate(held, start=1):
            shorter = train(model, kb, config(epoch))
            expected = {**shorter.entity_vectors, **shorter.relation_vectors}
            assert {k: v.tobytes() for k, v in vectors.items()} == {k: v.tobytes() for k, v in expected.items()}

    def test_unknown_entity_fails_like_oracle(self):
        kb = dense_kb()
        config = TrainConfig(dim=4, epochs=2, seed=1)
        model = init_model(sorted(kb.entities)[:-1], kb.relations, config)
        with pytest.raises(UnknownIdentifierError) as want:
            helpers.oracle_train(model, kb, config)
        with pytest.raises(UnknownIdentifierError) as got:
            train(model, kb, config)
        assert str(got.value) == str(want.value)


def lp_case(seed, distance):
    """A random model with e3 and e7 on the same vector (a tie broken by
    name) and a store with several true tails per (head, relation)."""
    rng = np.random.default_rng(seed)
    vectors = {f"e{i:02d}": rng.normal(size=4) for i in range(14)}
    vectors["e07"] = vectors["e03"].copy()
    relations = {"r": rng.normal(size=4), "s": rng.normal(size=4)}
    model = EmbeddingModel(vectors, relations, TrainConfig(dim=4, distance=distance))
    kb = build_triple_store(
        [("e00", "r", t) for t in ("e01", "e03", "e05", "e07", "e11")]
        + [(h, "s", "e03") for h in ("e02", "e04", "e09", "e07")]
        + [("e06", "r", "e08"), ("e08", "s", "e07"), ("e10", "r", "e12"), ("e13", "s", "e00")]
    )
    test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
    test += [Triple("e00", "r", "e02"), Triple("e01", "s", "e03"), Triple("e12", "r", "e07")]
    return model, kb, test


class TestLinkPredictionMatchesOracle:
    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_reports_equal_full_sort(self, distance):
        for seed in range(4):
            model, kb, test = lp_case(seed, distance)
            assert evaluate_link_prediction(model, test, kb) == helpers.oracle_link_prediction(model, test, kb)

    def test_trained_model_reports_equal_full_sort(self):
        kb = helpers.planted_toy_kb(num_entities=15, num_triples=40)
        test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
        for distance in ("l1", "l2"):
            config = TrainConfig(dim=8, learning_rate=0.05, epochs=20, distance=distance, seed=2)
            model = train(init_model(kb.entities, kb.relations, config), kb, config)
            assert evaluate_link_prediction(model, test, kb) == helpers.oracle_link_prediction(model, test, kb)

    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_rank_functions_keep_their_output(self, distance):
        model, kb, test = lp_case(5, distance)
        candidates = sorted(model.entity_vectors, reverse=True)
        for triple in test:
            h, r, t = triple.head, triple.relation, triple.tail
            for store in (None, kb):
                def kept(c, true, head, tail):
                    return store is None or c == true or not store.has_triple(head, r, tail)

                tails = rank_tails(model, h, r, candidates, store, t)
                want = [(c, dissimilarity(model, h, r, c)) for c in candidates if kept(c, t, h, c)]
                assert tails == sorted(want, key=lambda item: (item[1], item[0]))
                assert [c for c, _ in tails] == [name for _, name in helpers.oracle_ranking(model, triple, "tail", store)]
                heads = rank_heads(model, t, r, candidates, store, h)
                want = [(c, dissimilarity(model, c, r, t)) for c in candidates if kept(c, h, c, t)]
                assert heads == sorted(want, key=lambda item: (item[1], item[0]))
                assert [c for c, _ in heads] == [name for _, name in helpers.oracle_ranking(model, triple, "head", store)]

    def test_tie_counts_the_earlier_name(self):
        model, kb, _ = lp_case(0, "l1")
        report = evaluate_link_prediction(model, [Triple("e12", "r", "e07")], kb)
        ranking = helpers.oracle_ranking(model, Triple("e12", "r", "e07"), "tail", None)
        names = [name for _, name in ranking]
        assert names.index("e03") + 1 == names.index("e07")
        assert report == helpers.oracle_link_prediction(model, [Triple("e12", "r", "e07")], kb)


class TestRanking:
    def test_singleton_candidate(self):
        model = toy_model()
        assert rank_tails(model, "C1", "r", ["C2"])[0][0] == "C2"

    def test_ties_break_lexicographically(self):
        model = toy_model()
        model.entity_vectors["C0"] = model.entity_vectors["C2"].copy()
        ranked = rank_tails(model, "C1", "r", ["C2", "C0"])
        assert [cui for cui, _ in ranked] == ["C0", "C2"]

    def test_empty_candidates_rejected(self):
        with pytest.raises(UsageError):
            rank_tails(toy_model(), "C1", "r", [])

    def test_filter_removes_other_true_tails(self):
        model = toy_model()
        kb = build_triple_store([("C1", "r", "C2"), ("C1", "r", "C3")])
        ranked = rank_tails(model, "C1", "r", ["C2", "C3"], filter_store=kb, true_tail="C2")
        assert [cui for cui, _ in ranked] == ["C2"]

    def test_trained_beats_random_baseline(self):
        kb = helpers.planted_toy_kb()
        test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
        config = TrainConfig(dim=20, learning_rate=0.01, epochs=200, seed=7)
        trained = train(init_model(kb.entities, kb.relations, config), kb, config)
        report = evaluate_link_prediction(trained, test, kb)
        baseline = helpers.analytic_random_mean_rank(test, kb, sorted(kb.entities))
        assert report["filtered"]["mean_rank"] < baseline


class TestEvaluateLinkPrediction:
    def perfect_model(self):
        config = TrainConfig(dim=2, distance="l1")
        entities = {f"e{i}": np.array([10.0 * i, 0.0]) for i in range(5)}
        relations = {"r": np.array([10.0, 0.0])}
        return EmbeddingModel(entities, relations, config)

    def test_perfect_model_scores_one(self):
        model = self.perfect_model()
        kb = build_triple_store([("e0", "r", "e1"), ("e1", "r", "e2")])
        report = evaluate_link_prediction(model, sorted(kb.triples, key=str), kb)
        for setting in ("raw", "filtered"):
            assert report[setting]["mean_rank"] == 1.0
            assert report[setting]["hits_at_1"] == 1.0

    def test_random_model_filtered_rank_matches_expectation(self):
        entities = [f"E{i:02d}" for i in range(50)]
        triples = []
        for i in range(60):
            head = entities[i % 50]
            tail = entities[(i * 7 + 3) % 50]
            if head != tail:
                triples.append((head, "r0" if i % 2 else "r1", tail))
        kb = build_triple_store(triples)
        test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))[:20]
        expected = helpers.analytic_random_mean_rank(test, kb, entities)

        per_query_variance = []
        for triple in test:
            for side in ("tail", "head"):
                if side == "tail":
                    others = sum(
                        1 for e in entities if e != triple.tail and kb.has_triple(triple.head, triple.relation, e)
                    )
                else:
                    others = sum(
                        1 for e in entities if e != triple.head and kb.has_triple(e, triple.relation, triple.tail)
                    )
                n = len(entities) - others
                per_query_variance.append((n * n - 1) / 12.0)
        seeds = 20
        queries = len(per_query_variance)
        sigma = math.sqrt(sum(per_query_variance) / (queries * queries) / seeds)

        observed = []
        for seed in range(seeds):
            model = init_model(entities, ["r0", "r1"], TrainConfig(dim=16, seed=seed))
            observed.append(evaluate_link_prediction(model, test, kb)["filtered"]["mean_rank"])
        mean_observed = sum(observed) / len(observed)
        assert abs(mean_observed - expected) < 3.0 * sigma

    def test_filtered_rank_never_worse_than_raw(self):
        kb = helpers.planted_toy_kb(num_triples=20)
        test = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
        for seed in range(3):
            model = init_model(kb.entities, kb.relations, TrainConfig(dim=8, seed=seed))
            report = evaluate_link_prediction(model, test, kb)
            assert report["filtered"]["mean_rank"] <= report["raw"]["mean_rank"]
            for k in ("hits_at_1", "hits_at_3", "hits_at_10"):
                assert report["filtered"][k] >= report["raw"][k]

    def test_hits_monotone(self):
        for seed in range(5):
            model = init_model([f"e{i}" for i in range(12)], ["r"], TrainConfig(dim=4, seed=seed))
            kb = build_triple_store([("e0", "r", "e1"), ("e2", "r", "e3"), ("e4", "r", "e5")])
            report = evaluate_link_prediction(model, sorted(kb.triples, key=str), kb)
            for setting in ("raw", "filtered"):
                metrics = report[setting]
                assert metrics["hits_at_10"] >= metrics["hits_at_3"] >= metrics["hits_at_1"]

    def test_unknown_identifier_rejected(self):
        model = self.perfect_model()
        kb = build_triple_store([("e0", "r", "e1")])
        with pytest.raises(UnknownIdentifierError):
            evaluate_link_prediction(model, [Triple("missing", "r", "e1")], kb)


class TestModelIO:
    def test_round_trip_exact(self, tmp_path):
        kb = helpers.planted_toy_kb(num_triples=10)
        config = TrainConfig(dim=8, epochs=5, seed=9)
        model = train(init_model(kb.entities, kb.relations, config), kb, config)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        for name, vec in model.entity_vectors.items():
            assert np.array_equal(loaded.entity_vectors[name], vec)
        for name, vec in model.relation_vectors.items():
            assert np.array_equal(loaded.relation_vectors[name], vec)
        assert loaded.config == config

    @pytest.mark.parametrize("component", ["0.5", True, False, None, [0.5]])
    def test_non_numeric_components_rejected(self, component):
        # Vectors are one float64 column: a JSON list of components, numeric or not, is not read as one.
        payload = model_to_columns(toy_model())
        payload["entity_vectors"] = [component, 1.0]
        with pytest.raises(FormatError, match="transe entity_vectors must be base64 of little-endian float64 numbers"):
            model_from_columns(payload)

    def test_wrong_container_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "other", "version": 1}', encoding="utf-8")
        from casegraph.errors import FormatError

        with pytest.raises(FormatError):
            load_model(path)
