from __future__ import annotations

import itertools
import json
import re

import pytest

from casegraph.errors import ParseError, ValidationError
from casegraph.trec import (
    MetricReport,
    Qrels,
    Run,
    evaluate_run,
    parse_qrels,
    read_run,
    report_to_json,
    report_to_text,
    run_lines,
    write_run,
)


def qrels_from(judgments: dict) -> Qrels:
    return Qrels(judgments=dict(judgments))


def run_from(topics: dict, tag="test") -> Run:
    return Run(topics={t: list(docs) for t, docs in topics.items()}, tag=tag)


class TestParseQrels:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 docA 2\n", encoding="utf-8")
        qrels = parse_qrels(path)
        assert qrels.judgments == {("1", "docA"): 2}

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 docA 2\n1 0 docA 1\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="line 2"):
            parse_qrels(path)

    def test_malformed_line_named(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 docA 2\n1 0 docB\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2"):
            parse_qrels(path)

    def test_top_grade_is_exact(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("1 0 docA 53\n1 0 docB 1\n", encoding="utf-8")
        report = evaluate_run(run_from({"1": [("docA", 1.0), ("docB", 0.5)]}), parse_qrels(path))
        assert report.per_topic["1"]["nDCG@10"] == 1.0

    @pytest.mark.parametrize("grade", [54, 1024])
    def test_grade_above_53_rejected(self, tmp_path, grade):
        # 2**1024 - 1 overflowed float division; above 53 the gain is no longer exact.
        path = tmp_path / "qrels.txt"
        path.write_text(f"1 0 docA 2\n1 0 docB {grade}\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=f"line 2: relevance {grade} above 53"):
            parse_qrels(path)

    def test_empty_file_gives_zero_metrics(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("", encoding="utf-8")
        qrels = parse_qrels(path)
        report = evaluate_run(run_from({"1": [("docA", 1.0)]}), qrels)
        assert all(value == 0.0 for value in report.mean.values())


class TestRunIO:
    def test_two_docs_two_lines(self, tmp_path):
        run = run_from({"1": [("docA", 0.9), ("docB", 0.5)]})
        path = tmp_path / "run.txt"
        write_run(run, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["1 Q0 docA 1 0.900000 test", "1 Q0 docB 2 0.500000 test"]

    def test_empty_run_empty_file(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(run_from({}), path)
        assert path.read_text(encoding="utf-8") == ""

    def test_round_trip_reproduces_run(self, tmp_path):
        run = run_from({"1": [("docA", 0.912345), ("docB", 0.5)], "2": [("docC", 0.25)]})
        path = tmp_path / "run.txt"
        write_run(run, path)
        loaded = read_run(path)
        assert loaded.topics == run.topics
        assert loaded.tag == run.tag
        write_run(loaded, path)
        assert run_lines(loaded) == path.read_text(encoding="utf-8")

    def test_increasing_scores_rejected(self):
        with pytest.raises(ValidationError, match="increase"):
            run_lines(run_from({"1": [("docA", 0.1), ("docB", 0.9)]}))

    @pytest.mark.parametrize(
        "field, topic, doc_id, tag",
        [
            ("topic", "q 1", "d1", "t"),
            ("doc id", "q1", "d\t1", "t"),
            ("doc id", "q1", "", "t"),
            ("doc id", "q1", "d\u20281", "t"),
            ("tag", "q1", "d1", "my tag"),
            ("tag", "q1", "d1", ""),
        ],
        ids=["spaced topic", "tab in doc id", "empty doc id", "line separator in doc id", "spaced tag", "empty tag"],
    )
    def test_field_that_would_not_read_back_rejected(self, field, topic, doc_id, tag):
        # A space used to split the field: the run was written, and read_run then refused it.
        value = {"topic": topic, "doc id": doc_id, "tag": tag}[field]
        with pytest.raises(ValidationError, match=f"^{re.escape(f'run {field} {value!r} is empty or holds whitespace')}"):
            run_lines(run_from({topic: [(doc_id, 1.0)]}, tag))

    def test_duplicate_docs_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            run_lines(run_from({"1": [("docA", 0.9), ("docA", 0.5)]}))


class TestEvaluateRun:
    def test_precision_at_five(self):
        qrels = qrels_from({("1", f"d{i}"): 1 for i in range(3)})
        ranked = [("d0", 0.9), ("x1", 0.8), ("d1", 0.7), ("x2", 0.6), ("d2", 0.5)]
        report = evaluate_run(run_from({"1": ranked}), qrels)
        assert report.per_topic["1"]["P@5"] == pytest.approx(0.6)

    def test_ideal_ranking_has_ndcg_one(self):
        qrels = qrels_from({("1", "a"): 3, ("1", "b"): 2, ("1", "c"): 1, ("1", "d"): 0})
        ranked = [("a", 0.9), ("b", 0.8), ("c", 0.7), ("d", 0.6)]
        report = evaluate_run(run_from({"1": ranked}), qrels)
        assert report.per_topic["1"]["nDCG@5"] == pytest.approx(1.0)

    def test_worked_ndcg_value(self):
        qrels = qrels_from({("1", "docA"): 2, ("1", "docB"): 0, ("1", "docC"): 1})
        ranked = [("docA", 0.9), ("docB", 0.8), ("docC", 0.7)]
        report = evaluate_run(run_from({"1": ranked}), qrels, ks=(3,))
        assert report.per_topic["1"]["nDCG@3"] == pytest.approx(0.96394, abs=1e-4)

    def test_average_precision_hand_computed(self):
        qrels = qrels_from({("1", "a"): 1, ("1", "b"): 1})
        ranked = [("a", 0.9), ("x", 0.8), ("b", 0.7)]
        report = evaluate_run(run_from({"1": ranked}), qrels)
        assert report.per_topic["1"]["AP"] == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)

    def test_r_precision_hand_computed(self):
        qrels = qrels_from({("1", "a"): 1, ("1", "b"): 2})
        ranked = [("a", 0.9), ("x", 0.8), ("b", 0.7)]
        report = evaluate_run(run_from({"1": ranked}), qrels)
        assert report.per_topic["1"]["R-prec"] == pytest.approx(0.5)

    def test_unretrieved_relevant_counts_against_ap(self):
        qrels = qrels_from({("1", "a"): 1, ("1", "b"): 1, ("1", "c"): 1})
        report = evaluate_run(run_from({"1": [("a", 0.9)]}), qrels)
        assert report.per_topic["1"]["AP"] == pytest.approx(1.0 / 3.0)

    def test_topic_without_relevant_docs_scores_zero(self):
        qrels = qrels_from({("1", "a"): 1, ("2", "b"): 0})
        report = evaluate_run(run_from({"1": [("a", 0.9)], "2": [("b", 0.8)]}), qrels)
        assert all(value == 0.0 for value in report.per_topic["2"].values())
        assert report.mean["AP"] == pytest.approx(0.5)

    def test_topic_missing_from_run_contributes_zero(self):
        qrels = qrels_from({("1", "a"): 1, ("2", "b"): 1})
        report = evaluate_run(run_from({"1": [("a", 0.9)]}), qrels)
        assert report.mean["P@5"] == pytest.approx((0.2 + 0.0) / 2.0)

    def test_metrics_within_unit_interval(self):
        qrels = qrels_from({("1", f"d{i}"): i % 3 for i in range(8)})
        ranked = [(f"d{i}", 1.0 - i * 0.1) for i in range(8)]
        report = evaluate_run(run_from({"1": ranked}), qrels)
        for metrics in report.per_topic.values():
            for value in metrics.values():
                assert 0.0 <= value <= 1.0

    def test_deterministic(self):
        qrels = qrels_from({("1", "a"): 2, ("1", "b"): 1})
        run = run_from({"1": [("b", 0.9), ("a", 0.8)]})
        first = report_to_json(evaluate_run(run, qrels))
        second = report_to_json(evaluate_run(run, qrels))
        assert first == second

    def test_fixing_an_inversion_never_hurts(self):
        # Exhaustive small-case enumeration: swapping an adjacent pair that is
        # out of ideal order (lower grade above higher grade) must not
        # decrease AP or nDCG.
        docs = ["a", "b", "c", "d"]
        for grades in itertools.product((0, 1, 2), repeat=4):
            if all(g == 0 for g in grades):
                continue
            qrels = qrels_from({("1", doc): grade for doc, grade in zip(docs, grades)})

            def metrics_for(order):
                ranked = [(doc, 1.0 - i * 0.1) for i, doc in enumerate(order)]
                report = evaluate_run(run_from({"1": ranked}), qrels, ks=(4,))
                return report.per_topic["1"]

            order = list(docs)
            grade_of = dict(zip(docs, grades))
            for i in range(3):
                if grade_of[order[i]] < grade_of[order[i + 1]]:
                    swapped = order[:i] + [order[i + 1], order[i]] + order[i + 2 :]
                    before = metrics_for(order)
                    after = metrics_for(swapped)
                    assert after["AP"] >= before["AP"] - 1e-12
                    assert after["nDCG@4"] >= before["nDCG@4"] - 1e-12


class TestReportRendering:
    def sample_report(self) -> MetricReport:
        qrels = qrels_from({("1", "a"): 2, ("1", "b"): 1, ("2", "c"): 1})
        run = run_from({"1": [("a", 0.9), ("b", 0.8)], "2": [("x", 0.9), ("c", 0.8)]})
        return evaluate_run(run, qrels)

    def test_text_report_aligned(self):
        text = report_to_text(self.sample_report())
        lines = text.splitlines()
        assert lines[0].startswith("# nDCG gain")
        header = lines[1]
        assert header.startswith("topic")
        widths = [len(line) for line in lines[1:]]
        assert len(set(widths)) <= 2  # header and rows padded to matching columns

    def test_json_report_parses(self):
        payload = json.loads(report_to_json(self.sample_report()))
        assert set(payload) == {"note", "per_topic", "mean"}
        assert payload["per_topic"]["1"]["P@5"] == pytest.approx(0.4)
