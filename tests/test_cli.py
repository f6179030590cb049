from __future__ import annotations

import json
from pathlib import Path

import pytest

import helpers
from casegraph.cli import dispatch
from casegraph.trec import read_run


@pytest.fixture
def fixtures(tmp_path):
    return helpers.write_pipeline_fixtures(tmp_path, num_docs=12, seed=3)


def run_cli(*argv):
    return dispatch(list(argv))


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
        indexed = json.loads(index_path.read_text(encoding="utf-8"))["networks"]
        assert staged == [indexed[doc.id] for doc in fixtures["docs"]]
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
