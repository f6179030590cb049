from __future__ import annotations

import argparse
import json
import math
import re
from pathlib import Path

import pytest

import helpers
from casegraph import engine, linking, relations
from casegraph.cli import build_parser, dispatch
from casegraph.kb import Document
from casegraph.network import network_to_dict
from casegraph.trec import read_run


@pytest.fixture
def fixtures(tmp_path):
    return helpers.write_pipeline_fixtures(tmp_path, num_docs=12, seed=3)


def run_cli(*argv):
    return dispatch(list(argv))


def model_spoilers(part: str) -> list[str]:
    """The ``helpers.INDEX_MODEL_SPOILERS`` cases of the model part ``part``, named without it."""
    return sorted(name.removeprefix(f"{part} ") for name, (of, _, _) in helpers.INDEX_MODEL_SPOILERS.items() if of == part)


class TestDispatchBasics:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_unknown_flag(self, capsys):
        assert run_cli("link", "--bogus", "x") == 1

    def test_out_of_range_flag_names_flag(self, fixtures, capsys):
        code = run_cli(
            "extract",
            "--corpus", fixtures["corpus"],
            "--lexicon", fixtures["lexicon"],
            "--mentions", "whatever.jsonl",
            "--theta-rel", "1.5",
        )
        assert code == 1
        assert "--theta-rel" in capsys.readouterr().err

    def test_data_error_exits_two(self, tmp_path, fixtures, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n", encoding="utf-8")
        code = run_cli("link", "--lexicon", str(bad), "--corpus", fixtures["corpus"])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_required_path_is_usage_error(self, capsys):
        assert run_cli("link") == 1
        assert "--lexicon" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0


class TestBadInputsExitTwo:
    def assert_one_error_line(self, capsys) -> str:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        return err

    def test_eval_lp_model_not_json(self, tmp_path, fixtures, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("not json at all\n", encoding="utf-8")
        assert run_cli("eval-lp", "--transe-model", str(junk), "--triples", fixtures["triples"]) == 2
        self.assert_one_error_line(capsys)

    def test_index_extractor_model_not_json(self, tmp_path, fixtures, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("not json at all\n", encoding="utf-8")
        code = run_cli(
            "index",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mode", "model",
            "--extractor-model", str(junk),
            "--out", str(tmp_path / "x.idx"),
        )
        assert code == 2
        self.assert_one_error_line(capsys)
        assert not (tmp_path / "x.idx").exists()

    def test_divergent_transe_writes_no_model(self, tmp_path, fixtures, capsys):
        out = tmp_path / "model.json"
        code = run_cli(
            "train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "3", "--lr", "1e300", "--out", str(out)
        )
        assert code == 2
        assert "diverged" in self.assert_one_error_line(capsys)
        assert not out.exists()

    def test_relation_beyond_bound_is_divergence(self, tmp_path, fixtures, capsys):
        out = tmp_path / "model.json"
        code = run_cli(
            "train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "3", "--lr", "1e120", "--out", str(out)
        )
        assert code == 2
        assert "diverged" in self.assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("case", ["missing index", "missing corpus", "missing output directory", "corpus not UTF-8"])
    def test_unusable_path(self, tmp_path, fixtures, capsys, case):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "1", "title": "", "text": "a"}\n\n{"id": "2", "title": "", "text": "\xff"}\n')
        nope = tmp_path / "nope"
        link = ["link", "--lexicon", fixtures["lexicon"], "--corpus"]
        argv, named = {
            "missing index": (["search", "--index", str(nope), "--query-file", fixtures["corpus"]], "nope"),
            "missing corpus": ([*link, str(nope)], "nope"),
            "missing output directory": ([*link, fixtures["corpus"], "--out", str(nope / "m.jsonl")], "nope"),
            "corpus not UTF-8": ([*link, str(bad)], "line 3"),
        }[case]
        assert run_cli(*argv) == 2
        assert named in self.assert_one_error_line(capsys)


    def test_extract_with_mention_ending_inside_a_token(self, tmp_path, fixtures, capsys):
        corpus, mentions = tmp_path / "corpus.jsonl", tmp_path / "mentions.jsonl"
        corpus.write_text('{"id": "d", "title": "", "text": "aspirin treats fever."}\n', encoding="utf-8")
        spans = [(0, 3, "asp"), (15, 17, "fe")]
        mentions.write_text(json.dumps({"doc_id": "d", "mentions": [
            {"start": s, "end": e, "surface": t, "candidates": ["C1"], "primary": "C1", "score": 1.0} for s, e, t in spans
        ]}) + "\n", encoding="utf-8")
        argv = ["extract", "--lexicon", fixtures["lexicon"], "--corpus", str(corpus), "--mentions", str(mentions)]
        assert run_cli(*argv, "--mode", "kbmatch", "--triples", fixtures["triples"]) == 2
        # The message used to leave out the document.
        assert self.assert_one_error_line(capsys) == "error: document d: mention at byte 0 ends at byte 3, inside a token\n"

    @pytest.mark.parametrize("edit", ["string count", "label out of range", "negative next_id"])
    def test_search_on_edited_index(self, tmp_path, fixtures, built_index, capsys, edit):
        # The ids are those of the cases that damaged the stored kernel
        # features and compressor, which v5 derives from the node labels.
        payload = json.loads(built_index.read_text(encoding="utf-8"))
        size = len(helpers.column(payload["networks"], "node_labels"))
        if edit == "string count":
            label = lambda labels: labels.__setitem__(0, str(labels[0]))  # noqa: E731
        elif edit == "label out of range":
            label = lambda labels: labels.__setitem__(size - 1, size)  # noqa: E731
        else:
            label = lambda labels: labels.__setitem__(0, -1)  # noqa: E731
        helpers.edit_column(payload["networks"], "node_labels", label)
        built_index.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("search", "--index", str(built_index), "--query-file", fixtures["corpus"]) == 2
        assert str(built_index) in self.assert_one_error_line(capsys)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"kb": None}, "mode 'kbmatch' requires a triple store"),
            ({"mode": "model"}, "mode 'model' requires a trained relation extractor"),
            ({"transe": None}, "enrichment requires an embedding model"),
            ({"transe": None, "enrich": False}, "confidence fusion requires an embedding model"),
        ],
        ids=["kbmatch without triple store", "model without extractor", "enrich without transe", "fuse without transe"],
    )
    def test_search_on_index_lacking_a_model_its_config_needs(self, fixtures, built_index, capsys, edit, message):
        # The index is kbmatch with enrichment and fusion, and holds no extractor.
        payload = json.loads(built_index.read_text(encoding="utf-8"))
        for key, value in edit.items():
            (payload if key in payload else payload["config"])[key] = value
        built_index.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("search", "--index", str(built_index), "--query-file", fixtures["corpus"]) == 2
        assert self.assert_one_error_line(capsys) == f"error: {built_index}: {message}\n"

    @pytest.mark.parametrize("command", ["link", "index", "search"])
    @pytest.mark.parametrize(
        "fields",
        [{"id": None}, {"id": 7}, {"title": False}, {"text": [1, 2, {"a": None}]}],
        ids=["null id", "numeric id", "boolean title", "list text"],
    )
    def test_corpus_fields_must_be_strings(self, tmp_path, fixtures, built_index, capsys, command, fields):
        corpus = tmp_path / "typed.jsonl"
        lines = [{"id": "d1", "title": "", "text": "aspirin treats fever."}, {"id": "d2", "title": "", "text": "fever.", **fields}]
        corpus.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        argv = {
            "link": ["link", "--lexicon", fixtures["lexicon"], "--corpus", str(corpus)],
            "index": ["index", "--lexicon", fixtures["lexicon"], "--corpus", str(corpus), "--triples", fixtures["triples"]],
            "search": ["search", "--index", str(built_index), "--query-file", str(corpus)],
        }[command]
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert f"{corpus}: line 2: document id, title and text must be strings" in self.assert_one_error_line(capsys)
        assert not (tmp_path / "out").exists()


    @staticmethod
    def spoil_model_file(model: Path, spoiler: str) -> str:
        """Damage the model file with the ``helpers.INDEX_MODEL_SPOILERS`` case ``spoiler``; its error's text."""
        _, spoil, match = helpers.INDEX_MODEL_SPOILERS[spoiler]
        payload = json.loads(model.read_text(encoding="utf-8"))
        spoil(payload)
        model.write_text(json.dumps(payload), encoding="utf-8")
        return match

    def assert_model_refused(self, capsys, model: Path, match: str, argv: list, out: Path) -> None:
        capsys.readouterr()
        assert run_cli(*argv, "--out", str(out)) == 2
        err = self.assert_one_error_line(capsys)
        assert err.startswith(f"error: {model}: ") and re.search(match, err), err
        assert not out.exists()

    @pytest.mark.parametrize("spoiler", model_spoilers("transe"))
    @pytest.mark.parametrize("command", ["eval-lp", "enrich", "index"])
    def test_bad_model_vectors(self, tmp_path, fixtures, capsys, command, spoiler):
        # A model file holds the payload of an index's transe part, and is damaged as that part is.
        model = tmp_path / "transe.json"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "6", "--epochs", "2", "--out", str(model)) == 0
        match = self.spoil_model_file(model, f"transe {spoiler}")
        argv = {
            "eval-lp": ["eval-lp", "--triples", fixtures["triples"]],
            "enrich": ["enrich", "--networks", helpers.write_pipeline_networks(fixtures, tmp_path / "n.jsonl"), "--fuse"],
            "index": [
                "index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"],
                "--triples", fixtures["triples"], "--enrich", "--fuse",
            ],
        }[command]
        self.assert_model_refused(capsys, model, match, [*argv, "--transe-model", str(model)], tmp_path / "out")

    @pytest.mark.parametrize("spoiler", model_spoilers("extractor"))
    def test_bad_extractor_model(self, tmp_path, fixtures, capsys, spoiler):
        model, mentions = tmp_path / "extractor.json", tmp_path / "mentions.jsonl"
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        assert run_cli("train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "3", "--out", str(model)) == 0
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        match = self.spoil_model_file(model, f"extractor {spoiler}")
        for argv in (["extract", *docs, "--mentions", str(mentions)], ["index", *docs]):
            argv += ["--mode", "model", "--extractor-model", str(model)]
            self.assert_model_refused(capsys, model, match, argv, tmp_path / "out")

    @pytest.mark.parametrize("kind", ["transe", "extractor"])
    def test_version_1_model_file_refused(self, tmp_path, fixtures, capsys, kind):
        # Written inline in the version-1 form: names mapped to JSON number vectors, or a feature-to-id object and weight rows.
        model = tmp_path / "model.json"
        if kind == "transe":
            config = {"dim": 2, "margin": 1.0, "learning_rate": 0.01, "epochs": 1, "distance": "l1", "seed": 13}
            payload = {"config": config, "entities": {"C0001": [0.6, 0.8]}, "relations": {"treats": [0.5, -0.5]}}
            argv = ["eval-lp", "--triples", fixtures["triples"], "--transe-model", str(model)]
        else:
            hyperparams = {"learning_rate": 0.1, "epochs": 1, "l2": 0.0001, "seed": 13}
            vocab, weights = {"dir:fwd": 0, "dir:rev": 1}, [[0.0, 0.0], [0.5, -0.5]]
            payload = {"labels": ["NA", "treats"], "feature_vocab": vocab, "weights": weights, "hyperparams": hyperparams}
            docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
            argv = ["index", *docs, "--mode", "model", "--extractor-model", str(model)]
        model.write_text(json.dumps({**payload, "format": f"casegraph-{kind}", "version": 1}), encoding="utf-8")
        message = f"error: {model}: unsupported casegraph-{kind} version 1 (expected 2)\n"
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert self.assert_one_error_line(capsys) == message
        assert not (tmp_path / "out").exists()

    RECORD_SPOILERS = {
        "list relation": lambda r, e: e.__setitem__("rel", [1]),
        "numeric relation": lambda r, e: e.__setitem__("rel", 5),
        "numeric head": lambda r, e: e.__setitem__("head", 3),
        "list provenance": lambda r, e: e.__setitem__("prov", ["extracted"]),
        "boolean confidence": lambda r, e: e.__setitem__("conf", True),
        "string confidence": lambda r, e: e.__setitem__("conf", "0.5"),
        "list doc id": lambda r, e: r.__setitem__("doc_id", [3]),
        "edges not a list": lambda r, e: r.__setitem__("edges", {"0": e}),
    }
    NODE_SPOILERS = {
        "numeric cui": lambda n: n.__setitem__("cui", 7),
        "numeric name": lambda n: n.__setitem__("name", 7),
        "one-bound span": lambda n: n["spans"].__setitem__(0, [1]),
        "three-bound span": lambda n: n["spans"].__setitem__(0, [1, 2, 3]),
        "string bound": lambda n: n["spans"].__setitem__(0, ["1", 2]),
        "boolean bound": lambda n: n["spans"].__setitem__(0, [True, 2]),
        "spans not a list": lambda n: n.__setitem__("spans", "0-5"),
        "float weight": lambda n: n.__setitem__("weight", float(n["weight"])),
        "boolean weight": lambda n: n.update(spans=n["spans"][:1], weight=True),
    }

    @staticmethod
    def spoil_jsonl(path: Path, spoil, items: str = "edges") -> None:
        """Apply ``spoil`` to the first record of a JSONL file whose ``items`` list is not empty."""
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        spoil(next(r for r in records if r[items]))
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")

    @pytest.mark.parametrize("spoiler", sorted(RECORD_SPOILERS) + sorted(NODE_SPOILERS))
    def test_bad_network_record(self, tmp_path, fixtures, capsys, spoiler):
        model, networks = tmp_path / "transe.json", tmp_path / "networks.jsonl"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "4", "--epochs", "2", "--out", str(model)) == 0
        helpers.write_pipeline_networks(fixtures, networks)
        if spoiler in self.RECORD_SPOILERS:
            self.spoil_jsonl(networks, lambda r: self.RECORD_SPOILERS[spoiler](r, r["edges"][0]))
        else:
            self.spoil_jsonl(networks, lambda r: self.NODE_SPOILERS[spoiler](r["nodes"][0]))
        capsys.readouterr()
        out = tmp_path / "out.jsonl"
        argv = ["enrich", "--networks", str(networks), "--transe-model", str(model), "--fuse", "--out", str(out)]
        assert run_cli(*argv) == 2
        assert f"{networks}: line " in self.assert_one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("spoiler", sorted(RECORD_SPOILERS))
    def test_bad_edge_record(self, tmp_path, fixtures, capsys, spoiler):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        argv = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*argv, "--out", str(edges)) == 0
        self.spoil_jsonl(edges, lambda r: self.RECORD_SPOILERS[spoiler](r, r["edges"][0]))
        out = tmp_path / "out"
        for argv in (
            ["build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges)],
            ["train-transe", "--triples", fixtures["triples"], "--extra-edges", str(edges), "--dim", "4", "--epochs", "1"],
        ):
            capsys.readouterr()
            assert run_cli(*argv, "--out", str(out)) == 2
            assert f"{edges}: line " in self.assert_one_error_line(capsys)
            assert not out.exists()

    MENTION_SPOILERS = {
        "string start": lambda r, m: m.__setitem__("start", str(m["start"])),
        "boolean start": lambda r, m: m.__setitem__("start", True),
        "float end": lambda r, m: m.__setitem__("end", float(m["end"])),
        "numeric surface": lambda r, m: m.__setitem__("surface", 7),
        "list primary": lambda r, m: m.__setitem__("primary", [m["primary"]]),
        "candidates not a list": lambda r, m: m.__setitem__("candidates", m["candidates"][0]),
        "numeric candidate": lambda r, m: m["candidates"].__setitem__(0, 7),
        "boolean score": lambda r, m: m.__setitem__("score", True),
        "string score": lambda r, m: m.__setitem__("score", "1.0"),
        "list doc id": lambda r, m: r.__setitem__("doc_id", [r["doc_id"]]),
        "mentions not a list": lambda r, m: r.__setitem__("mentions", m),
    }

    @pytest.mark.parametrize("spoiler", sorted(MENTION_SPOILERS))
    def test_bad_mention_record(self, tmp_path, fixtures, capsys, spoiler):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges, extractor = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "extractor.json"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        kbmatch = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*kbmatch, "--out", str(edges)) == 0
        assert run_cli("train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "1", "--out", str(extractor)) == 0
        self.spoil_jsonl(mentions, lambda r: self.MENTION_SPOILERS[spoiler](r, r["mentions"][0]), "mentions")
        out = tmp_path / "out"
        for argv in (
            kbmatch,
            ["extract", *docs, "--mentions", str(mentions), "--mode", "model", "--extractor-model", str(extractor)],
            ["build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges)],
        ):
            capsys.readouterr()
            assert run_cli(*argv, "--out", str(out)) == 2
            assert f"{mentions}: line " in self.assert_one_error_line(capsys)
            assert not out.exists()

    @pytest.mark.parametrize("span", [(-5, -9), (0, -1), (0, 10**6)])
    def test_build_graphs_refuses_mention_off_the_tokens(self, tmp_path, fixtures, capsys, span):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges, networks = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "networks.jsonl"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        argv = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*argv, "--out", str(edges)) == 0
        build = ["build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges), "--out", str(networks)]
        assert run_cli(*build) == 0
        expected = helpers.write_pipeline_networks(fixtures, tmp_path / "expected.jsonl")
        assert networks.read_bytes() == Path(expected).read_bytes()
        networks.unlink()
        spoiled = []

        def spoil(record):
            spoiled.append(record["doc_id"])
            record["mentions"][0].update(start=span[0], end=span[1])

        self.spoil_jsonl(mentions, spoil, "mentions")
        capsys.readouterr()
        assert run_cli(*build) == 2
        assert f"error: document {spoiled[0]}: mention at byte {span[0]} " in self.assert_one_error_line(capsys)
        assert not networks.exists()

    def test_build_graphs_neither_splits_nor_pairs(self, tmp_path, fixtures, monkeypatch):
        # build-graphs aligns the file's mentions to the tokens; it used to
        # split sentences and pair every mention only to drop the pairs.
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges, networks = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "networks.jsonl"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        argv = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*argv, "--out", str(edges)) == 0
        expected = Path(helpers.write_pipeline_networks(fixtures, tmp_path / "expected.jsonl")).read_bytes()
        calls = []
        for module in (engine, relations, linking):
            for name in ("split_sentences", "generate_candidates"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
        assert run_cli("build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges), "--out", str(networks)) == 0
        assert calls == []
        assert networks.read_bytes() == expected

    @staticmethod
    def repeat_record(path: Path, items: str) -> tuple[str, int]:
        """Add, right after the first record whose ``items`` list has two items or more,
        a record of the same doc id holding only its first item; returns the doc id
        and the line of the repeat."""
        records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        i = next(i for i, r in enumerate(records) if len(r[items]) >= 2)
        records.insert(i + 1, {**records[i], items: records[i][items][:1]})
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return records[i]["doc_id"], i + 2

    @pytest.mark.parametrize("command", ["extract", "build-graphs"])
    def test_repeated_mention_record(self, tmp_path, fixtures, capsys, command):
        # The last record of a doc id used to win: a 1-node network, exit 0.
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges, out = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "out"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        kbmatch = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*kbmatch, "--out", str(edges)) == 0
        doc_id, line = self.repeat_record(mentions, "mentions")
        capsys.readouterr()
        argv = kbmatch if command == "extract" else ["build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges)]
        assert run_cli(*argv, "--out", str(out)) == 2
        assert self.assert_one_error_line(capsys) == f"error: {mentions}: line {line}: duplicate document id {doc_id}\n"
        assert not out.exists()

    def test_repeated_edge_record(self, tmp_path, fixtures, capsys):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, edges, out = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "out"
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        argv = ["extract", *docs, "--mentions", str(mentions), "--mode", "kbmatch", "--triples", fixtures["triples"]]
        assert run_cli(*argv, "--out", str(edges)) == 0
        doc_id, line = self.repeat_record(edges, "edges")
        capsys.readouterr()
        assert run_cli("build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges), "--out", str(out)) == 2
        assert self.assert_one_error_line(capsys) == f"error: {edges}: line {line}: duplicate document id {doc_id}\n"
        assert not out.exists()

    def test_repeated_network_record(self, tmp_path, capsys):
        # The repeat used to be kept: exit 0 and 31 enriched networks for 30 documents.
        fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=30, seed=3)
        model, networks, out = tmp_path / "transe.json", tmp_path / "networks.jsonl", tmp_path / "out.jsonl"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "4", "--epochs", "1", "--out", str(model)) == 0
        helpers.write_pipeline_networks(fixtures, networks)
        lines = networks.read_text(encoding="utf-8").splitlines(keepends=True)
        networks.write_text("".join([lines[0], *lines]), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("enrich", "--networks", str(networks), "--transe-model", str(model), "--out", str(out)) == 2
        assert self.assert_one_error_line(capsys) == f"error: {networks}: line 2: duplicate document id doc000\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "spoiler, text",
        [
            # The last node of a cui used to win, and the first one's spans were lost.
            (lambda nodes: nodes.append({**nodes[0], "spans": nodes[0]["spans"][:1], "weight": 1}), "is stored twice"),
            # check_columns refuses such a node in an index.
            (lambda nodes: nodes[0].update(spans=[], weight=0), "has no mention spans"),
        ],
        ids=["repeated cui", "no spans"],
    )
    def test_bad_network_node(self, tmp_path, fixtures, capsys, spoiler, text):
        model, networks, out = tmp_path / "transe.json", tmp_path / "networks.jsonl", tmp_path / "out.jsonl"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "4", "--epochs", "1", "--out", str(model)) == 0
        helpers.write_pipeline_networks(fixtures, networks)
        spoiled = []
        self.spoil_jsonl(networks, lambda r: spoiled.append((r["doc_id"], r["nodes"][0]["cui"])) or spoiler(r["nodes"]), "nodes")
        doc_id, cui = spoiled[0]
        capsys.readouterr()
        assert run_cli("enrich", "--networks", str(networks), "--transe-model", str(model), "--out", str(out)) == 2
        err = self.assert_one_error_line(capsys)
        assert f"{networks}: line " in err and f": node {cui} in document {doc_id} {text}" in err
        assert not out.exists()

    @pytest.mark.parametrize("spoiler", ["short vector", "NaN", "Infinity", "-Infinity"])
    def test_search_on_index_with_bad_model(self, tmp_path, fixtures, built_index, capsys, spoiler):
        # The index stores the vectors as one float64 column, which these damage as the model file cases damage its lists.
        payload = json.loads(built_index.read_text(encoding="utf-8"))
        if spoiler == "short vector":
            helpers.edit_column(payload["transe"], "entity_vectors", list.pop, "float64")
        else:
            value = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}[spoiler]
            helpers.edit_column(payload["transe"], "entity_vectors", lambda vectors: vectors.__setitem__(0, value), "float64")
        built_index.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("search", "--index", str(built_index), "--query-file", fixtures["corpus"]) == 2
        err = self.assert_one_error_line(capsys)
        assert str(built_index) in err and "entity" in err

    @pytest.fixture(scope="class")
    def model_part_indexes(self, tmp_path_factory):
        """A kbmatch index holding a lexicon, a triple store and a TransE model, and a model-mode index holding an extractor."""
        tmp = tmp_path_factory.mktemp("model-parts")
        fixtures = helpers.write_pipeline_fixtures(tmp, num_docs=12, seed=3)
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        transe, extractor = tmp / "transe.json", tmp / "extractor.json"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "4", "--epochs", "2", "--out", str(transe)) == 0
        assert run_cli("train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "2", "--out", str(extractor)) == 0
        kbmatch = ["--triples", fixtures["triples"], "--transe-model", str(transe), "--enrich", "--fuse"]
        assert run_cli("index", *docs, *kbmatch, "--out", str(tmp / "kbmatch.idx")) == 0
        assert run_cli("index", *docs, "--mode", "model", "--extractor-model", str(extractor), "--out", str(tmp / "model.idx")) == 0
        kbmatch_index, model_index = (tmp / name for name in ("kbmatch.idx", "model.idx"))
        valid = {part: kbmatch_index.read_text(encoding="utf-8") for part in ("lexicon", "kb", "transe")}
        return fixtures, valid | {"extractor": model_index.read_text(encoding="utf-8")}

    @pytest.mark.parametrize("spoiler", sorted(helpers.INDEX_MODEL_SPOILERS))
    def test_search_on_index_with_bad_model_part(self, tmp_path, model_part_indexes, capsys, spoiler):
        fixtures, valid = model_part_indexes
        part, spoil, match = helpers.INDEX_MODEL_SPOILERS[spoiler]
        payload = json.loads(valid[part])
        spoil(payload[part])
        index, out = tmp_path / "spoiled.idx", tmp_path / "run.txt"
        index.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("search", "--index", str(index), "--query-file", fixtures["corpus"], "--out", str(out)) == 2
        err = self.assert_one_error_line(capsys)
        assert err.startswith(f"error: {index}: ") and re.search(match, err), err
        assert not out.exists()

    @pytest.mark.parametrize("spoiler", ["empty bucket", "concept twice in the bucket", "empty surface"])
    def test_search_on_index_with_impossible_lexicon(self, tmp_path, capsys, spoiler):
        # Each used to load, and search exited 0: with the bucket emptied, the query's concept was silently never linked.
        fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=30, seed=3)
        index, queries = tmp_path / "corpus.idx", tmp_path / "queries.jsonl"
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        assert run_cli("index", *docs, "--triples", fixtures["triples"], "--out", str(index)) == 0
        helpers.write_corpus_jsonl([Document("q1", "", "Acute renal failure after aspirin.")], queries)
        payload = json.loads(index.read_text(encoding="utf-8"))
        lexicon = payload["lexicon"]
        if spoiler == "empty bucket":
            helpers.empty_bucket(lexicon, "acute renal failure")
        elif spoiler == "empty surface":
            lexicon["surfaces"][0] = ""  # the first surface: an empty one elsewhere would also break their order
        else:
            helpers.repeat_in_bucket(lexicon, "acute renal failure")
        index.write_text(json.dumps(payload), encoding="utf-8")
        capsys.readouterr()
        assert run_cli("search", "--index", str(index), "--query-file", str(queries)) == 2
        assert self.assert_one_error_line(capsys).startswith(f"error: {index}: lexicon surface ")


class TestModelLoading:
    """index and extract read the model of their extraction mode and not the other one."""

    def test_index_in_model_mode_leaves_the_triples_out(self, tmp_path, fixtures):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        extractor, index = tmp_path / "extractor.json", tmp_path / "corpus.idx"
        assert run_cli("train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "2", "--out", str(extractor)) == 0
        argv = ["index", *docs, "--mode", "model", "--extractor-model", str(extractor), "--out", str(index)]
        assert run_cli(*argv, "--triples", fixtures["triples"]) == 0
        payload = json.loads(index.read_text(encoding="utf-8"))
        assert payload["kb"] is None and payload["extractor"] is not None
        with_triples = index.read_bytes()
        assert run_cli(*argv) == 0
        assert index.read_bytes() == with_triples

    def test_unused_model_files_are_not_opened(self, tmp_path, fixtures):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        mentions, nope = tmp_path / "mentions.jsonl", str(tmp_path / "nope")
        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        kbmatch = ["--mode", "kbmatch", "--triples", fixtures["triples"], "--extractor-model", nope]
        assert run_cli("index", *docs, *kbmatch, "--out", str(tmp_path / "corpus.idx")) == 0
        payload = json.loads((tmp_path / "corpus.idx").read_text(encoding="utf-8"))
        assert payload["extractor"] is None and payload["kb"] is not None
        assert run_cli("extract", *docs, "--mentions", str(mentions), *kbmatch, "--out", str(tmp_path / "e.jsonl")) == 0

    def test_model_files_hold_the_index_parts(self, tmp_path, fixtures):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        transe, extractor, index = tmp_path / "transe.json", tmp_path / "extractor.json", tmp_path / "corpus.idx"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "6", "--epochs", "2", "--out", str(transe)) == 0
        assert run_cli("train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "2", "--out", str(extractor)) == 0
        models = ["--mode", "model", "--extractor-model", str(extractor), "--transe-model", str(transe)]
        assert run_cli("index", *docs, *models, "--enrich", "--fuse", "--out", str(index)) == 0
        stored = engine.index_to_dict(engine.load_index(index))
        for part, path in (("transe", transe), ("extractor", extractor)):
            payload = json.loads(path.read_text(encoding="utf-8"))
            assert (payload.pop("format"), payload.pop("version")) == (f"casegraph-{part}", 2)
            assert payload == stored[part]


class TestUnexpectedFailure:
    def test_exits_three_with_traceback(self, fixtures, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("a defect")

        monkeypatch.setattr("casegraph.cli._cmd_link", broken)
        assert run_cli("link", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback") and "RuntimeError: a defect" in err


class TestStagedPipeline:
    def test_link_extract_build_enrich(self, tmp_path, fixtures, capsys):
        mentions = tmp_path / "mentions.jsonl"
        edges = tmp_path / "edges.jsonl"
        networks = tmp_path / "networks.jsonl"
        enriched = tmp_path / "enriched.jsonl"
        transe_model = tmp_path / "transe.json"

        assert run_cli("link", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--out", str(mentions)) == 0
        assert mentions.exists()
        first_line = json.loads(mentions.read_text(encoding="utf-8").splitlines()[0])
        assert {"doc_id", "mentions"} <= set(first_line)

        assert run_cli(
            "extract",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mentions", str(mentions),
            "--triples", fixtures["triples"],
            "--mode", "kbmatch",
            "--out", str(edges),
        ) == 0
        payload = [json.loads(line) for line in edges.read_text(encoding="utf-8").splitlines()]
        assert any(doc["edges"] for doc in payload)
        for doc in payload:
            for edge in doc["edges"]:
                assert edge["prov"] == "extracted"
                assert edge["conf"] == 0.5

        assert run_cli(
            "build-graphs",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mentions", str(mentions),
            "--edges", str(edges),
            "--out", str(networks),
        ) == 0

        assert run_cli(
            "train-transe",
            "--triples", fixtures["triples"],
            "--dim", "12",
            "--epochs", "20",
            "--seed", "5",
            "--out", str(transe_model),
        ) == 0

        assert run_cli(
            "enrich",
            "--networks", str(networks),
            "--transe-model", str(transe_model),
            "--tau-lp", "0.6",
            "--fuse",
            "--out", str(enriched),
        ) == 0
        enriched_payload = [json.loads(line) for line in enriched.read_text(encoding="utf-8").splitlines()]
        base_payload = [json.loads(line) for line in networks.read_text(encoding="utf-8").splitlines()]
        for base, plus in zip(base_payload, enriched_payload):
            assert len(plus["edges"]) >= len(base["edges"])
            assert {n["cui"] for n in plus["nodes"]} == {n["cui"] for n in base["nodes"]}

    @pytest.mark.parametrize("mode", ["kbmatch", "model"])
    def test_staged_networks_equal_index_networks(self, tmp_path, fixtures, mode):
        docs = ["--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"]]
        transe_model = tmp_path / "transe.json"
        extractor = tmp_path / "extractor.json"
        mentions, edges, networks = tmp_path / "mentions.jsonl", tmp_path / "edges.jsonl", tmp_path / "networks.jsonl"
        enriched, index_path = tmp_path / "enriched.jsonl", tmp_path / "corpus.idx"
        assert run_cli(
            "train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "10", "--seed", "5",
            "--out", str(transe_model),
        ) == 0
        if mode == "model":
            assert run_cli(
                "train-extractor", *docs, "--triples", fixtures["triples"], "--epochs", "20", "--seed", "4",
                "--out", str(extractor),
            ) == 0
            source = ["--mode", mode, "--extractor-model", str(extractor), "--theta-rel", "0.3"]
        else:
            source = ["--mode", mode, "--triples", fixtures["triples"]]
        enrich = ["--transe-model", str(transe_model), "--tau-lp", "0.001", "--fuse"]

        assert run_cli("link", *docs, "--out", str(mentions)) == 0
        assert run_cli("extract", *docs, "--mentions", str(mentions), *source, "--out", str(edges)) == 0
        assert run_cli(
            "build-graphs", *docs, "--mentions", str(mentions), "--edges", str(edges), "--out", str(networks)
        ) == 0
        assert run_cli("enrich", "--networks", str(networks), *enrich, "--out", str(enriched)) == 0
        assert run_cli("index", *docs, *source, *enrich, "--enrich", "--out", str(index_path)) == 0

        staged = [json.loads(line) for line in enriched.read_text(encoding="utf-8").splitlines()]
        indexed = engine.load_index(index_path).networks
        assert staged == [network_to_dict(indexed[doc.id]) for doc in fixtures["docs"]]
        provenances = {edge["prov"] for net in staged for edge in net["edges"]}
        assert {"predicted", "fused"} <= provenances

    def test_extractor_training_and_model_mode(self, tmp_path, fixtures):
        extractor = tmp_path / "extractor.json"
        mentions = tmp_path / "mentions.jsonl"
        edges = tmp_path / "edges.jsonl"
        assert run_cli(
            "train-extractor",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--triples", fixtures["triples"],
            "--epochs", "20",
            "--seed", "4",
            "--out", str(extractor),
        ) == 0
        assert json.loads(extractor.read_text(encoding="utf-8"))["labels"][0] == "NA"

        assert run_cli("link", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--out", str(mentions)) == 0
        assert run_cli(
            "extract",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mentions", str(mentions),
            "--extractor-model", str(extractor),
            "--mode", "model",
            "--theta-rel", "0.4",
            "--out", str(edges),
        ) == 0
        assert edges.exists()

    def test_train_transe_with_extracted_edges_appended(self, tmp_path, fixtures):
        mentions = tmp_path / "mentions.jsonl"
        edges = tmp_path / "edges.jsonl"
        base_model = tmp_path / "base.json"
        extended_model = tmp_path / "extended.json"
        assert run_cli("link", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--out", str(mentions)) == 0
        assert run_cli(
            "extract",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mentions", str(mentions),
            "--triples", fixtures["triples"],
            "--out", str(edges),
        ) == 0
        for out, extra in ((base_model, None), (extended_model, str(edges))):
            argv = ["train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "5", "--out", str(out)]
            if extra:
                argv += ["--extra-edges", extra]
            assert run_cli(*argv) == 0
        base = json.loads(base_model.read_text(encoding="utf-8"))
        extended = json.loads(extended_model.read_text(encoding="utf-8"))
        assert set(base["entities"]) <= set(extended["entities"])

    def test_index_kbmatch_requires_triples(self, fixtures, capsys):
        assert run_cli("index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"], "--out", "x.idx") == 1
        assert "--triples" in capsys.readouterr().err

    def test_eval_lp_reports_metrics(self, tmp_path, fixtures, capsys):
        transe_model = tmp_path / "transe.json"
        assert run_cli(
            "train-transe", "--triples", fixtures["triples"], "--dim", "12", "--epochs", "20", "--out", str(transe_model)
        ) == 0
        assert run_cli("eval-lp", "--transe-model", str(transe_model), "--triples", fixtures["triples"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"raw", "filtered"}
        for setting in report.values():
            assert setting["hits_at_10"] >= setting["hits_at_3"] >= setting["hits_at_1"]

    def test_eval_lp_with_held_out_test_triples(self, tmp_path, fixtures, capsys):
        transe_model = tmp_path / "transe.json"
        assert run_cli(
            "train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "5", "--out", str(transe_model)
        ) == 0
        held_out = tmp_path / "test.tsv"
        first = Path(fixtures["triples"]).read_text(encoding="utf-8").splitlines()[0]
        held_out.write_text(first + "\n", encoding="utf-8")
        assert run_cli(
            "eval-lp", "--transe-model", str(transe_model), "--triples", fixtures["triples"],
            "--test-triples", str(held_out),
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert 1.0 <= report["filtered"]["mean_rank"]

    def test_enrich_requires_model_flag(self, tmp_path, capsys):
        networks = tmp_path / "networks.jsonl"
        networks.write_text("", encoding="utf-8")
        assert run_cli("enrich", "--networks", str(networks)) == 1
        assert "--transe-model" in capsys.readouterr().err

    def test_model_mode_index_preserves_self_retrieval(self, tmp_path, fixtures, capsys):
        extractor = tmp_path / "extractor.json"
        index_path = tmp_path / "model.idx"
        query_file = tmp_path / "q.jsonl"
        assert run_cli(
            "train-extractor",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--triples", fixtures["triples"],
            "--epochs", "30",
            "--seed", "6",
            "--out", str(extractor),
        ) == 0
        assert run_cli(
            "index",
            "--lexicon", fixtures["lexicon"],
            "--corpus", fixtures["corpus"],
            "--mode", "model",
            "--extractor-model", str(extractor),
            "--theta-rel", "0.4",
            "--out", str(index_path),
        ) == 0
        doc = fixtures["docs"][5]
        query_file.write_text(json.dumps({"id": "t", "title": doc.title, "text": doc.text}) + "\n", encoding="utf-8")
        assert run_cli(
            "search", "--index", str(index_path), "--query-file", str(query_file), "--k", "3", "--lambda", "1.0"
        ) == 0
        first = capsys.readouterr().out.splitlines()[0].split()
        assert first[2] == doc.id and first[3] == "1"
        assert abs(float(first[4]) - 1.0) < 1e-9


@pytest.fixture
def built_index(tmp_path, fixtures):
    transe_model = tmp_path / "transe.json"
    index_path = tmp_path / "corpus.idx"
    assert dispatch([
        "train-transe", "--triples", fixtures["triples"], "--dim", "12", "--epochs", "25",
        "--seed", "9", "--out", str(transe_model),
    ]) == 0
    assert dispatch([
        "index",
        "--lexicon", fixtures["lexicon"],
        "--corpus", fixtures["corpus"],
        "--triples", fixtures["triples"],
        "--transe-model", str(transe_model),
        "--mode", "kbmatch",
        "--enrich", "--fuse",
        "--seed", "9",
        "--out", str(index_path),
    ]) == 0
    return index_path


class TestIndexSearchEvaluate:
    def test_search_ranks_as_the_fused_query_network(self, fixtures, built_index):
        texts = [doc.text for doc in fixtures["docs"]] + ["aspirin and insulin after cardiac arrest with fever"]
        helpers.assert_search_ranks_fused_query(engine.load_index(built_index), texts)

    def test_search_writes_k_line_run(self, tmp_path, fixtures, built_index, capsys):
        query_file = tmp_path / "q.jsonl"
        doc = fixtures["docs"][0]
        query_file.write_text(
            json.dumps({"id": "topic1", "title": doc.title, "text": doc.text}) + "\n", encoding="utf-8"
        )
        assert run_cli("search", "--index", str(built_index), "--query-file", str(query_file), "--k", "10") == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 10
        first = lines[0].split()
        assert first[0] == "topic1" and first[1] == "Q0" and first[3] == "1"
        assert first[2] == doc.id  # verbatim document retrieves itself

    def test_collection_graph_dot(self, built_index, capsys):
        assert run_cli("collection-graph", "--index", str(built_index), "--tau-doc", "0.2") == 0
        dot = capsys.readouterr().out
        assert dot.startswith("graph collection {")
        assert dot.rstrip().endswith("}")

    def test_evaluate_run_against_qrels(self, tmp_path, fixtures, built_index, capsys):
        query_file = tmp_path / "q.jsonl"
        doc = fixtures["docs"][1]
        query_file.write_text(json.dumps({"id": "t1", "title": "", "text": doc.content()}) + "\n", encoding="utf-8")
        run_path = tmp_path / "run.txt"
        assert run_cli(
            "search", "--index", str(built_index), "--query-file", str(query_file), "--k", "5", "--out", str(run_path)
        ) == 0
        qrels_path = tmp_path / "qrels.txt"
        qrels_path.write_text(f"t1 0 {doc.id} 2\nt1 0 {fixtures['docs'][2].id} 1\n", encoding="utf-8")
        assert run_cli("evaluate", "--run", str(run_path), "--qrels", str(qrels_path), "--format", "json") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["per_topic"]["t1"]["P@5"] >= 0.2  # the verbatim doc is retrieved

        assert run_cli("evaluate", "--run", str(run_path), "--qrels", str(qrels_path)) == 0
        text = capsys.readouterr().out
        assert text.startswith("# nDCG gain") and "\nmean" in text

    def test_index_bytes_do_not_depend_on_corpus_order(self, tmp_path):
        fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=30, seed=3)
        transe_model = tmp_path / "transe.json"
        assert run_cli("train-transe", "--triples", fixtures["triples"], "--dim", "8", "--epochs", "5", "--out", str(transe_model)) == 0
        lines = Path(fixtures["corpus"]).read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_corpus = tmp_path / "reversed.jsonl"
        reversed_corpus.write_text("".join(reversed(lines)), encoding="utf-8")
        built = []
        for corpus in (fixtures["corpus"], reversed_corpus):
            built.append(tmp_path / f"{len(built)}.idx")
            assert run_cli(
                "index", "--lexicon", fixtures["lexicon"], "--corpus", str(corpus), "--triples", fixtures["triples"],
                "--transe-model", str(transe_model), "--enrich", "--fuse", "--out", str(built[-1]),
            ) == 0
        assert built[0].read_bytes() == built[1].read_bytes()

    def test_config_file_supplies_paths(self, tmp_path, fixtures, built_index, capsys):
        conf = tmp_path / "search.conf"
        conf.write_text(f"index = {built_index}\nk = 3\n", encoding="utf-8")
        query_file = tmp_path / "q.jsonl"
        query_file.write_text(json.dumps({"id": "t", "title": "", "text": "fever"}) + "\n", encoding="utf-8")
        assert run_cli("search", "--config", str(conf), "--query-file", str(query_file)) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        conf = tmp_path / "bad.conf"
        conf.write_text("no_such_key = 1\n", encoding="utf-8")
        assert run_cli("link", "--config", str(conf)) == 1
        assert "no_such_key" in capsys.readouterr().err


class TestEndToEndDeterminism:
    def test_pipeline_twice_is_byte_identical(self, tmp_path, fixtures):
        artifacts = {}
        for attempt in ("one", "two"):
            base = tmp_path / attempt
            base.mkdir()
            transe_model = base / "transe.json"
            index_path = base / "corpus.idx"
            run_path = base / "run.txt"
            report_path = base / "report.json"
            query_file = base / "q.jsonl"
            doc = fixtures["docs"][4]
            query_file.write_text(json.dumps({"id": "t1", "title": "", "text": doc.content()}) + "\n", encoding="utf-8")
            qrels_path = base / "qrels.txt"
            qrels_path.write_text(f"t1 0 {doc.id} 2\n", encoding="utf-8")
            assert dispatch([
                "train-transe", "--triples", fixtures["triples"], "--dim", "10", "--epochs", "15",
                "--seed", "21", "--out", str(transe_model),
            ]) == 0
            assert dispatch([
                "index", "--lexicon", fixtures["lexicon"], "--corpus", fixtures["corpus"],
                "--triples", fixtures["triples"], "--transe-model", str(transe_model),
                "--enrich", "--fuse", "--seed", "21", "--out", str(index_path),
            ]) == 0
            assert dispatch([
                "search", "--index", str(index_path), "--query-file", str(query_file),
                "--k", "5", "--out", str(run_path),
            ]) == 0
            assert dispatch([
                "evaluate", "--run", str(run_path), "--qrels", str(qrels_path),
                "--format", "json", "--out", str(report_path),
            ]) == 0
            artifacts[attempt] = tuple(
                path.read_bytes() for path in (transe_model, index_path, run_path, report_path)
            )
        assert artifacts["one"] == artifacts["two"]

    def test_run_file_round_trips_through_reader(self, tmp_path, fixtures, built_index):
        query_file = tmp_path / "q.jsonl"
        query_file.write_text(json.dumps({"id": "t1", "title": "", "text": "aspirin for fever"}) + "\n", encoding="utf-8")
        run_path = tmp_path / "run.txt"
        assert dispatch([
            "search", "--index", str(built_index), "--query-file", str(query_file),
            "--k", "4", "--out", str(run_path),
        ]) == 0
        run = read_run(run_path)
        assert "t1" in run.topics and len(run.topics["t1"]) == 4


# Each subcommand's options as (option strings, dest, type, choices, action,
# required, default), written down from the hand-written parser that the
# generated one replaced. Sets, because declaration order is free.
COMMON_OPTIONS = {
    (('--config',), 'config', None, None, '_StoreAction', False, None),
    (('--out',), 'out', None, None, '_StoreAction', False, None),
    (('--seed',), 'seed', 'int', None, '_StoreAction', False, None),
    (('-h', '--help'), 'help', None, None, '_HelpAction', False, '==SUPPRESS=='),
}
SUBCOMMAND_OPTIONS = {
    'build-graphs': {
        (('--corpus',), 'corpus', None, None, '_StoreAction', False, None),
        (('--edges',), 'edges', None, None, '_StoreAction', True, None),
        (('--lexicon',), 'lexicon', None, None, '_StoreAction', False, None),
        (('--mentions',), 'mentions', None, None, '_StoreAction', True, None),
    },
    'collection-graph': {
        (('--index',), 'index', None, None, '_StoreAction', False, None),
        (('--lambda',), 'lambda_weight', 'float', None, '_StoreAction', False, None),
        (('--tau-doc',), 'tau_doc', 'float', None, '_StoreAction', False, None),
    },
    'enrich': {
        (('--fuse', '--no-fuse'), 'fuse', None, None, 'BooleanOptionalAction', False, None),
        (('--m-cap',), 'm_cap', 'int', None, '_StoreAction', False, None),
        (('--networks',), 'networks', None, None, '_StoreAction', True, None),
        (('--tau-lp',), 'tau_lp', 'float', None, '_StoreAction', False, None),
        (('--transe-model',), 'transe_model', None, None, '_StoreAction', False, None),
    },
    'eval-lp': {
        (('--test-triples',), 'test_triples', None, None, '_StoreAction', False, None),
        (('--transe-model',), 'transe_model', None, None, '_StoreAction', False, None),
        (('--triples',), 'triples', None, None, '_StoreAction', False, None),
    },
    'evaluate': {
        (('--format',), 'format', None, ('text', 'json'), '_StoreAction', False, 'text'),
        (('--qrels',), 'qrels', None, None, '_StoreAction', True, None),
        (('--run',), 'run', None, None, '_StoreAction', True, None),
    },
    'extract': {
        (('--corpus',), 'corpus', None, None, '_StoreAction', False, None),
        (('--extractor-model',), 'extractor_model', None, None, '_StoreAction', False, None),
        (('--lexicon',), 'lexicon', None, None, '_StoreAction', False, None),
        (('--mentions',), 'mentions', None, None, '_StoreAction', True, None),
        (('--mode',), 'mode', None, ('model', 'kbmatch'), '_StoreAction', False, None),
        (('--theta-rel',), 'theta_rel', 'float', None, '_StoreAction', False, None),
        (('--triples',), 'triples', None, None, '_StoreAction', False, None),
        (('--window',), 'window', 'int', None, '_StoreAction', False, None),
    },
    'index': {
        (('--corpus',), 'corpus', None, None, '_StoreAction', False, None),
        (('--enrich', '--no-enrich'), 'enrich', None, None, 'BooleanOptionalAction', False, None),
        (('--extractor-model',), 'extractor_model', None, None, '_StoreAction', False, None),
        (('--fuse', '--no-fuse'), 'fuse', None, None, 'BooleanOptionalAction', False, None),
        (('--h',), 'h', 'int', None, '_StoreAction', False, None),
        (('--lexicon',), 'lexicon', None, None, '_StoreAction', False, None),
        (('--m-cap',), 'm_cap', 'int', None, '_StoreAction', False, None),
        (('--mode',), 'mode', None, ('model', 'kbmatch'), '_StoreAction', False, None),
        (('--tau-lp',), 'tau_lp', 'float', None, '_StoreAction', False, None),
        (('--theta-rel',), 'theta_rel', 'float', None, '_StoreAction', False, None),
        (('--transe-model',), 'transe_model', None, None, '_StoreAction', False, None),
        (('--triples',), 'triples', None, None, '_StoreAction', False, None),
        (('--window',), 'window', 'int', None, '_StoreAction', False, None),
    },
    'link': {
        (('--corpus',), 'corpus', None, None, '_StoreAction', False, None),
        (('--lexicon',), 'lexicon', None, None, '_StoreAction', False, None),
    },
    'search': {
        (('--index',), 'index', None, None, '_StoreAction', False, None),
        (('--k',), 'k', 'int', None, '_StoreAction', False, None),
        (('--lambda',), 'lambda_weight', 'float', None, '_StoreAction', False, None),
        (('--prune', '--no-prune'), 'prune', None, None, 'BooleanOptionalAction', False, None),
        (('--query-file',), 'query_file', None, None, '_StoreAction', True, None),
        (('--tag',), 'tag', None, None, '_StoreAction', False, 'casegraph'),
    },
    'train-extractor': {
        (('--corpus',), 'corpus', None, None, '_StoreAction', False, None),
        (('--epochs',), 'extractor_epochs', 'int', None, '_StoreAction', False, None),
        (('--l2',), 'l2', 'float', None, '_StoreAction', False, None),
        (('--lexicon',), 'lexicon', None, None, '_StoreAction', False, None),
        (('--lr',), 'extractor_lr', 'float', None, '_StoreAction', False, None),
        (('--triples',), 'triples', None, None, '_StoreAction', False, None),
        (('--window',), 'window', 'int', None, '_StoreAction', False, None),
    },
    'train-transe': {
        (('--dim',), 'dim', 'int', None, '_StoreAction', False, None),
        (('--dist',), 'distance', None, ('l1', 'l2'), '_StoreAction', False, None),
        (('--epochs',), 'transe_epochs', 'int', None, '_StoreAction', False, None),
        (('--extra-edges',), 'extra_edges', None, None, '_StoreAction', False, None),
        (('--lr',), 'transe_lr', 'float', None, '_StoreAction', False, None),
        (('--margin',), 'margin', 'float', None, '_StoreAction', False, None),
        (('--triples',), 'triples', None, None, '_StoreAction', False, None),
    },
}


def parsed_options(parser: argparse.ArgumentParser) -> set:
    return {
        (
            tuple(a.option_strings), a.dest, a.type.__name__ if a.type else None,
            tuple(a.choices) if a.choices else None, type(a).__name__, a.required, a.default,
        )
        for a in parser._actions
    }


class TestParser:
    def test_subcommands_parse_their_options(self):
        subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert {name: parsed_options(sub) for name, sub in subparsers.choices.items()} == {
            name: COMMON_OPTIONS | options for name, options in SUBCOMMAND_OPTIONS.items()
        }

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_OPTIONS))
    def test_help_exits_zero(self, command, capsys):
        assert run_cli(command, "--help") == 0
        assert capsys.readouterr().out.startswith(f"usage: casegraph {command} ")
