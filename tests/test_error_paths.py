"""Failure-mode coverage: malformed files, bad arguments, degenerate inputs."""

from __future__ import annotations

import re

import numpy as np
import pytest

from casegraph.config import merge_config, read_config_file
from casegraph.errors import (
    ConfigError,
    FormatError,
    ParseError,
    TrainingError,
    UsageError,
    ValidationError,
)
from casegraph.kb import build_lexicon, build_triple_store, load_corpus, load_lexicon, load_triples
from casegraph.linking import Mention, read_mentions, tokenize
from casegraph.network import SemanticNetwork, enrich_network, read_networks
from casegraph.relations import (
    RelationInstance,
    _mention_token_range,
    extract_relations,
    load_extractor,
    read_edges,
    train_extractor,
)
from casegraph.transe import EmbeddingModel, TrainConfig, evaluate_link_prediction, init_model, rank_heads, train
from casegraph.trec import parse_qrels, read_run


class TestLexiconValidation:
    def test_empty_cui_rejected(self):
        with pytest.raises(ValidationError, match="empty cui"):
            build_lexicon([("", "Name", [], "T1")])

    def test_empty_preferred_name_rejected(self):
        with pytest.raises(ValidationError, match="C1"):
            build_lexicon([("C1", "", [], "T1")])

    def test_duplicate_cui_merges_synonyms(self):
        lexicon = build_lexicon(
            [("C1", "Fever", ["pyrexia"], "T1"), ("C1", "Fever", ["febrile state"], "T1")]
        )
        assert lexicon.concepts["C1"].synonyms == ("pyrexia", "febrile state")
        assert lexicon.lookup("febrile state") == ["C1"]

    def test_punctuation_only_synonym_not_indexed(self):
        lexicon = build_lexicon([("C1", "Fever", ["!!!"], "T1")])
        assert "" not in lexicon.surface_index
        assert lexicon.lookup("!!!") == []


class TestTrainConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0},
            {"margin": 0.0},
            {"learning_rate": 0.0},
            {"epochs": -1},
            {"distance": "cosine"},
        ],
    )
    def test_bad_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)


class TestTransEDegenerate:
    def test_train_on_empty_store_rejected(self):
        model = init_model(["a", "b"], ["r"], TrainConfig(dim=2))
        with pytest.raises(ConfigError, match="empty triple store"):
            train(model, build_triple_store([]))

    def test_train_defaults_to_model_config(self):
        kb = build_triple_store([("a", "r", "b"), ("b", "r", "c")])
        model = init_model(kb.entities, kb.relations, TrainConfig(dim=4, epochs=2, seed=1))
        trained = train(model, kb)  # no explicit config
        assert len(trained.epoch_losses) == 2

    def test_rank_heads_empty_candidates(self):
        model = init_model(["a", "b"], ["r"], TrainConfig(dim=2))
        with pytest.raises(UsageError):
            rank_heads(model, "a", "r", [])

    def test_evaluate_empty_test_set(self):
        model = init_model(["a", "b"], ["r"], TrainConfig(dim=2))
        with pytest.raises(UsageError):
            evaluate_link_prediction(model, [], build_triple_store([("a", "r", "b")]))


class TestExtractorDegenerate:
    def test_empty_instances_rejected(self):
        with pytest.raises(TrainingError, match="no training instances"):
            train_extractor([])

    def test_instance_with_only_unknown_features_predicts_uniform(self):
        instances = [
            RelationInstance(None, "NA", {"f:a": 1}),
            RelationInstance(None, "rel", {"f:b": 1}),
        ]
        model = train_extractor(instances)
        from casegraph.relations import predict_probabilities

        probs = predict_probabilities(model, {"never-seen": 3})
        assert np.allclose(probs, 0.5)

    def test_theta_range_checked(self, lexicon):
        model = train_extractor(
            [RelationInstance(None, "NA", {"x": 1}), RelationInstance(None, "rel", {"y": 1})]
        )
        with pytest.raises(UsageError, match="theta_rel"):
            extract_relations([], model, 1.5, [], lexicon)

    def test_misaligned_mention_rejected(self):
        tokens = tokenize("plain words here")
        mention = Mention(2, 7, "ain w", ("C1",), "C1", 1.0)
        with pytest.raises(ValidationError, match="token boundary"):
            _mention_token_range(mention, tokens)


class TestEnrichDegenerate:
    def test_empty_network_unchanged(self):
        model = init_model(["a", "b"], ["r"], TrainConfig(dim=2))
        net = SemanticNetwork("d")
        enriched = enrich_network(net, model, 0.5, 5)
        assert enriched.nodes == {} and enriched.edges == []


class TestInvalidUtf8:
    # Lines 1 and 2 are valid for their reader; line 3 holds byte 0xff.
    @pytest.mark.parametrize(
        "reader, data",
        [
            (load_lexicon, b"C1\tfever\t\tT1\nC2\tcough\t\tT1\nC3\tna\xffusea\t\tT1\n"),
            (load_triples, b"C1\tr\tC2\nC2\tr\tC3\nC3\tr\tC\xff\n"),
            (load_corpus, b'{"id": "1", "title": "", "text": "a"}\n{"id": "2", "title": "", "text": "b"}\n{"id": "\xff"}\n'),
            (read_config_file, b"window = 3\nk = 5\nseed = \xff\n"),
            (parse_qrels, b"q1 0 d1 1\nq1 0 d2 0\nq1 0 d\xff 1\n"),
            (read_run, b"q1 Q0 d1 1 0.9 t\nq1 Q0 d2 2 0.8 t\nq1 Q0 d\xff 3 0.7 t\n"),
        ],
        ids=["lexicon", "triples", "corpus", "config", "qrels", "run"],
    )
    def test_names_path_and_line(self, tmp_path, reader, data):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: line 3: invalid UTF-8 \(byte 0xff\)$"):
            reader(path)


class TestArtifactReaders:
    def test_mentions_bad_json(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 1"):
            read_mentions(path)

    def test_mentions_wrong_shape(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"doc_id": "d", "mentions": [{"start": 0}]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="mention record"):
            read_mentions(path)

    def test_edges_wrong_shape(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text('{"doc_id": "d", "edges": [{"head": "a"}]}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="edge record"):
            read_edges(path)

    def test_networks_wrong_shape(self, tmp_path):
        path = tmp_path / "n.jsonl"
        path.write_text('{"doc_id": "d", "nodes": [{}], "edges": []}\n', encoding="utf-8")
        with pytest.raises(ParseError, match="network record"):
            read_networks(path)

    def test_extractor_container_checked(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "nope", "version": 1}', encoding="utf-8")
        with pytest.raises(FormatError):
            load_extractor(path)

    def test_qrels_negative_grade(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("1 0 doc -2\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="negative"):
            parse_qrels(path)

    def test_qrels_non_integer_grade(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("1 0 doc high\n", encoding="utf-8")
        with pytest.raises(ParseError, match="high"):
            parse_qrels(path)

    def test_run_wrong_field_count(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 Q0 doc 1 0.5\n", encoding="utf-8")
        with pytest.raises(ParseError, match="6"):
            read_run(path)

    def test_run_non_numeric_score(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("1 Q0 doc 1 best tag\n", encoding="utf-8")
        with pytest.raises(ParseError, match="best"):
            read_run(path)


class TestConfigCoercion:
    def test_bad_boolean_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("enrich = maybe\n", encoding="utf-8")
        with pytest.raises(UsageError, match="boolean"):
            read_config_file(path)

    def test_merge_skips_none_overrides(self):
        config = merge_config({"window": 5}, {"window": None})
        assert config.window == 5


class TestIndexContainer:
    def test_junk_bytes_rejected(self, tmp_path):
        from casegraph.engine import load_index

        path = tmp_path / "junk.idx"
        path.write_text("\x00\x01 not json", encoding="utf-8")
        with pytest.raises(FormatError, match="JSON"):
            load_index(path)

    def test_truncated_container_rejected(self, tmp_path):
        from casegraph.engine import INDEX_VERSION, load_index

        path = tmp_path / "trunc.idx"
        path.write_text(f'{{"format": "casegraph-index", "version": {INDEX_VERSION}}}', encoding="utf-8")
        with pytest.raises(FormatError, match="malformed"):
            load_index(path)
