from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from casegraph.errors import ConfigError, FormatError, TrainingError, UnknownIdentifierError, UsageError
from casegraph.kb import Triple, build_triple_store
from casegraph.transe import (
    EmbeddingModel,
    TrainConfig,
    evaluate_link_prediction,
    init_model,
    load_model,
    model_from_columns,
    model_to_columns,
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
        assert helpers.oracle_dissimilarity(toy_model("l1"), "C1", "r", "C2") == 0.0

    def test_l1_arithmetic(self):
        assert helpers.oracle_dissimilarity(toy_model("l1"), "C1", "zero", "C3") == 1.0

    def test_l2_arithmetic(self):
        assert helpers.oracle_dissimilarity(toy_model("l2"), "C1", "zero", "C3") == 1.0

    def test_unknown_identifiers_named(self):
        model = toy_model()
        for triple, name in ((Triple("C9", "r", "C2"), "entity C9"), (Triple("C1", "nope", "C2"), "relation nope")):
            kb = build_triple_store([tuple(triple)])
            with pytest.raises(UnknownIdentifierError, match=f"^unknown {name}$"):
                evaluate_link_prediction(model, [triple], kb)
            with pytest.raises(UnknownIdentifierError, match=f"^unknown {name}$"):
                train(model, kb)


class TestPlausibility:
    def test_perfect_translation(self):
        assert helpers.oracle_plausibility(toy_model(), "C1", "r", "C2") == 1.0

    def test_unit_distance(self):
        assert helpers.oracle_plausibility(toy_model(), "C1", "zero", "C3") == pytest.approx(0.3679, abs=1e-4)

    def test_decay(self):
        model = toy_model()
        model.entity_vectors["far"] = np.array([11.0, 0.0])
        assert helpers.oracle_plausibility(model, "C1", "zero", "far") < 1e-4

    def test_strictly_decreasing_in_dissimilarity(self):
        model = toy_model()
        scored = [
            (helpers.oracle_dissimilarity(model, h, r, t), helpers.oracle_plausibility(model, h, r, t))
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
        assert helpers.oracle_margin_loss(model, positive, corrupted) > 0.0
        grads = helpers.oracle_margin_loss_gradients(model, positive, corrupted)
        for kind, name in [("entity", "e1"), ("entity", "e2"), ("entity", "e3"), ("relation", "r")]:
            table = model.entity_vectors if kind == "entity" else model.relation_vectors
            vec = table[name]
            numeric = helpers.central_difference(lambda _: helpers.oracle_margin_loss(model, positive, corrupted), vec)
            assert helpers.relative_error(grads[(kind, name)], numeric) < 1e-4

    def test_inactive_margin_has_no_gradients(self):
        model = toy_model(margin=0.5)
        # d(C1, r, C2) = 0 and d(C1, r, C3) = 3, so the margin is satisfied.
        assert helpers.oracle_margin_loss_gradients(model, Triple("C1", "r", "C2"), Triple("C1", "r", "C3")) == {}


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


class TestTrainMatchesOracle:
    @pytest.mark.parametrize("dim", [5, 16, 50])
    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_identical_to_allowed_list_loop(self, distance, dim):
        kbs = [helpers.dense_kb(), helpers.planted_toy_kb(num_entities=12, num_triples=30)]
        for kb, extra in ((kbs[0], []), (kbs[1], []), (kbs[1], ["C0", "Z9"])):
            for seed in (0, 1, 2):
                config = TrainConfig(dim=dim, margin=2.0, learning_rate=0.05, epochs=5, distance=distance, seed=seed)
                model = init_model([*kb.entities, *extra], kb.relations, config)
                got = train(model, kb, config)
                want = helpers.oracle_train(model, kb, config)
                assert model_to_columns(got) == model_to_columns(want)
                assert (list(got.entity_vectors), list(got.relation_vectors)) == (list(want.entity_vectors), list(want.relation_vectors))
                assert got.epoch_losses == want.epoch_losses

    @pytest.mark.parametrize("distance", ["l1", "l2"])
    def test_zero_distance_step(self, distance):
        # A and B share a vector and r is zero, so the first step's positive
        # (A, r, B) is at distance 0; its replacement is C, three distinct rows,
        # when the draw after the coin flip is 1.
        vector = np.array([0.6, 0.8, 0.0])
        model = EmbeddingModel(
            {"A": vector, "B": vector.copy(), "C": np.array([0.0, 0.6, -0.8])},
            {"r": np.zeros(3)},
            TrainConfig(dim=3, margin=2.0, learning_rate=0.1, epochs=3, distance=distance),
        )
        kb = build_triple_store([("A", "r", "B")])
        seeds = range(6)
        first_draws = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rng.permutation(1), rng.integers(2)
            first_draws.append(int(rng.integers(2)))
        assert 1 in first_draws
        for seed in seeds:
            config = replace(model.config, seed=seed)
            got, want = train(model, kb, config), helpers.oracle_train(model, kb, config)
            assert model_to_columns(got) == model_to_columns(want)
            assert got.epoch_losses == want.epoch_losses

    @given(st.data())
    def test_random_stores(self, data):
        # Two to eight entities make repeated-row corruptions such as (t, r, t) common.
        size = data.draw(st.integers(2, 8))
        entities = [f"e{i}" for i in range(size)]
        name = st.sampled_from(entities)
        fact = st.tuples(name, st.sampled_from("rs"), name).filter(lambda f: f[0] != f[2])
        kb = build_triple_store(data.draw(st.lists(fact, min_size=1, max_size=12)))
        config = TrainConfig(
            dim=data.draw(st.integers(1, 6)),
            margin=data.draw(st.floats(0.01, 4.0)),
            learning_rate=data.draw(st.floats(0.001, 0.5)),
            epochs=data.draw(st.integers(1, 3)),
            distance=data.draw(st.sampled_from(["l1", "l2"])),
            seed=data.draw(st.integers(0, 2**16)),
        )
        model = init_model(entities, kb.relations, config)
        got, want = train(model, kb, config), helpers.oracle_train(model, kb, config)
        assert model_to_columns(got) == model_to_columns(want)
        assert (list(got.entity_vectors), list(got.relation_vectors)) == (list(want.entity_vectors), list(want.relation_vectors))
        assert got.epoch_losses == want.epoch_losses

    def test_divergent_entity_named_like_oracle(self):
        # One step at a huge learning rate: its loss is finite, but the norms of
        # the rows it writes overflow. A is always one of them and comes first by
        # name; the error names the first in the model's own order, C then B.
        rng = np.random.default_rng(3)
        model = EmbeddingModel(
            {name: rng.normal(size=3) for name in "CBA"},
            {"r": rng.normal(size=3)},
            TrainConfig(dim=3, margin=100.0, learning_rate=1e160, epochs=1),
        )
        kb = build_triple_store([("A", "r", "B")])
        named = set()
        for seed in range(4):
            config = replace(model.config, seed=seed)
            with pytest.raises(TrainingError) as want:
                helpers.oracle_train(model, kb, config)
            with pytest.raises(TrainingError) as got:
                train(model, kb, config)
            assert str(got.value) == str(want.value)
            named.add(str(got.value).split(" vector of entity ")[1].split()[0])
        assert named == {"B", "C"}

    @pytest.mark.parametrize("lr", [1e154, 1e156])
    def test_overflowing_steps_raise_only_training_error(self, lr):
        # Under tier-1's error::RuntimeWarning filter a numpy overflow warning
        # would escape as an exception before the divergence check.
        kb = helpers.dense_kb()
        config = TrainConfig(dim=4, margin=1.0, learning_rate=lr, epochs=3, distance="l2", seed=0)
        with pytest.raises(TrainingError, match="diverged"):
            train(init_model(kb.entities, kb.relations, config), kb, config)

    def test_dense_kb_forces_self_loop_corruptions(self):
        kb = helpers.dense_kb()
        entities = sorted(kb.entities)
        assert [e for e in entities if not kb.has_triple("E0", "r0", e)] == ["E0"]
        assert [e for e in entities if not kb.has_triple(e, "r1", "E1")] == ["E1"]

    def test_epoch_vectors_keep_their_values(self):
        kb = helpers.dense_kb()

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
        kb = helpers.dense_kb()
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

    def test_tie_counts_the_earlier_name(self):
        model, kb, _ = lp_case(0, "l1")
        report = evaluate_link_prediction(model, [Triple("e12", "r", "e07")], kb)
        ranking = helpers.oracle_ranking(model, Triple("e12", "r", "e07"), "tail", None)
        names = [name for _, name in ranking]
        assert names.index("e03") + 1 == names.index("e07")
        assert report == helpers.oracle_link_prediction(model, [Triple("e12", "r", "e07")], kb)


@pytest.mark.parametrize("distance", ["l1", "l2"])
class TestLinkPredictionFilter:
    """The filter holds only the test set's keys, filled from the whole store; each report equals the full sorts."""

    def test_store_holds_names_the_model_lacks(self, distance):
        for seed in range(4):
            model, kb, test = lp_case(seed, distance)
            # Unknown tails and heads on test keys, an unknown relation, and a fact of unknown names only.
            extra = [("e00", "r", "x01"), ("x02", "s", "e03"), ("e00", "q", "e05"), ("x03", "q", "x04"), ("e10", "r", "x05")]
            kb = build_triple_store([*kb.triples, *extra])
            assert {"x01", "x02"}.isdisjoint(model.entity_vectors) and "q" not in model.relation_vectors
            assert evaluate_link_prediction(model, test, kb) == helpers.oracle_link_prediction(model, test, kb)

    def test_test_triples_share_keys(self, distance):
        for seed in range(4):
            model, kb, _ = lp_case(seed, distance)
            # Stored and unstored tails of (e00, r), heads of (s, e03), and one triple twice.
            test = [Triple("e00", "r", t) for t in ("e01", "e02", "e07", "e09", "e01")]
            test += [Triple(h, "s", "e03") for h in ("e04", "e06", "e07")]
            assert evaluate_link_prediction(model, test, kb) == helpers.oracle_link_prediction(model, test, kb)

    def test_own_fact_stored(self, distance):
        for seed in range(4):
            model, _, _ = lp_case(seed, distance)
            triple = Triple("e06", "r", "e08")
            kb = build_triple_store([triple])
            report = evaluate_link_prediction(model, [triple], kb)
            assert report["filtered"] == report["raw"]  # the target is never filtered out of its own ranking
            assert report == helpers.oracle_link_prediction(model, [triple], kb)

    @given(st.data())
    def test_random_models_and_stores(self, distance, data):
        # Integer components make exact distance ties common; the store also names two entities and a relation
        # the model lacks.
        size = data.draw(st.integers(1, 5))
        vector = st.lists(st.integers(-2, 2), min_size=2, max_size=2).map(lambda v: np.array(v, dtype=float))
        entities = {f"e{i}": data.draw(vector) for i in range(size)}
        model = EmbeddingModel(entities, {r: data.draw(vector) for r in "rs"}, TrainConfig(dim=2, distance=distance))
        stored = st.sampled_from([f"e{i}" for i in range(size + 2)])
        fact = st.tuples(stored, st.sampled_from("rsq"), stored).filter(lambda f: f[0] != f[2])
        kb = build_triple_store(data.draw(st.lists(fact, max_size=12)))
        known = st.sampled_from(sorted(entities))
        test = data.draw(st.lists(st.builds(Triple, known, st.sampled_from("rs"), known), min_size=1, max_size=6))
        assert evaluate_link_prediction(model, test, kb) == helpers.oracle_link_prediction(model, test, kb)


class TestRanking:
    """The rankings behind ``evaluate_link_prediction``'s report."""

    def test_ties_break_lexicographically(self):
        model = toy_model()
        model.entity_vectors["C0"] = model.entity_vectors["C2"].copy()
        # C0 and C2 tie at distance 0 as tails of (C1, r); C0 comes first.
        report = evaluate_link_prediction(model, [Triple("C1", "r", "C2")], build_triple_store([("C1", "r", "C2")]))
        assert report["raw"]["mean_rank"] == 1.5  # tail rank 2, head rank 1
        assert report["raw"]["hits_at_1"] == 0.5

    def test_empty_candidates_rejected(self):
        model = EmbeddingModel({}, {"r": np.array([0.0, 1.0])}, TrainConfig(dim=2))
        with pytest.raises(UsageError, match="candidate set must be non-empty"):
            evaluate_link_prediction(model, [Triple("C1", "r", "C2")], build_triple_store([("C1", "r", "C2")]))

    def test_filter_removes_other_true_tails(self):
        model = toy_model()
        kb = build_triple_store([("C1", "r", "C2"), ("C1", "r", "C3")])
        # Tails of (C1, r) by l1 distance: C2 0, C1 1, C3 2; heads of (r, C3): C3 1, C1 2, C2 3.
        report = evaluate_link_prediction(model, [Triple("C1", "r", "C3")], kb)
        assert report["raw"]["mean_rank"] == (3 + 2) / 2
        assert report["filtered"]["mean_rank"] == (2 + 2) / 2  # the other true tail C2 is dropped

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
