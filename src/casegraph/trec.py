"""Relevance judgments, run files, and ranked-retrieval metrics.

Text formats follow the TREC conventions:

* qrels: ``topic_id 0 doc_id relevance`` (whitespace separated, graded
  relevance as a non-negative integer);
* runs: ``topic_id Q0 doc_id rank score tag`` with 1-based ranks and
  6-decimal scores.

Gain for nDCG is exponential: (2^grade - 1) / log2(rank + 1), with the
ideal DCG computed from the full judged set for the topic.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ParseError, ValidationError
from .kb import read_lines

log = logging.getLogger(__name__)

GAIN_NOTE = "nDCG gain: (2^grade - 1) / log2(rank + 1); relevant means grade >= 1"


@dataclass
class Qrels:
    judgments: dict[tuple[str, str], int] = field(default_factory=dict)

    def topics(self) -> list[str]:
        return sorted({topic for topic, _ in self.judgments})

    def grade(self, topic: str, doc_id: str) -> int:
        return self.judgments.get((topic, doc_id), 0)

    def relevant_count(self, topic: str) -> int:
        return sum(1 for (t, _), grade in self.judgments.items() if t == topic and grade >= 1)


@dataclass
class Run:
    topics: dict[str, list[tuple[str, float]]] = field(default_factory=dict)
    tag: str = "casegraph"


@dataclass
class MetricReport:
    per_topic: dict[str, dict[str, float]]
    mean: dict[str, float]
    note: str = GAIN_NOTE


def parse_qrels(path: str | Path) -> Qrels:
    qrels = Qrels()
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"{path}: line {lineno}: expected 4 whitespace-separated fields")
        topic, _, doc_id, grade_text = parts
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: relevance {grade_text!r} is not an integer") from None
        if grade < 0:
            raise ValidationError(f"{path}: line {lineno}: negative relevance {grade}")
        if (topic, doc_id) in qrels.judgments:
            raise ValidationError(f"{path}: line {lineno}: duplicate judgment for ({topic}, {doc_id})")
        qrels.judgments[(topic, doc_id)] = grade
    if not qrels.judgments:
        log.warning("%s: empty qrels; all metrics will be reported as 0", path)
    return qrels


def _validate_run(run: Run) -> None:
    for topic, results in run.topics.items():
        seen = set()
        previous = None
        for doc_id, score in results:
            if doc_id in seen:
                raise ValidationError(f"topic {topic}: duplicate document {doc_id} in run")
            seen.add(doc_id)
            if previous is not None and score > previous:
                raise ValidationError(f"topic {topic}: scores increase at document {doc_id}")
            previous = score


def run_lines(run: Run) -> str:
    _validate_run(run)
    lines = []
    for topic in sorted(run.topics):
        for rank, (doc_id, score) in enumerate(run.topics[topic], start=1):
            lines.append(f"{topic} Q0 {doc_id} {rank} {score:.6f} {run.tag}\n")
    return "".join(lines)


def write_run(run: Run, path: str | Path) -> None:
    Path(path).write_text(run_lines(run), encoding="utf-8")


def read_run(path: str | Path) -> Run:
    run = Run(topics={})
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != 6:
            raise ParseError(f"{path}: line {lineno}: expected 6 whitespace-separated fields")
        topic, _, doc_id, _, score_text, tag = parts
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: score {score_text!r} is not a number") from None
        run.topics.setdefault(topic, []).append((doc_id, score))
        run.tag = tag
    _validate_run(run)
    return run


def _dcg(grades: list[int], k: int) -> float:
    return sum((2**grade - 1) / math.log2(rank + 1) for rank, grade in enumerate(grades[:k], start=1))


def _topic_metrics(ranked: list[str], qrels: Qrels, topic: str, ks: tuple[int, ...]) -> dict[str, float]:
    total_relevant = qrels.relevant_count(topic)
    metrics: dict[str, float] = {}
    if total_relevant == 0:
        log.warning("topic %s has no relevant documents; its metrics are reported as 0", topic)
        for k in ks:
            metrics[f"P@{k}"] = 0.0
            metrics[f"nDCG@{k}"] = 0.0
        metrics["R-prec"] = 0.0
        metrics["AP"] = 0.0
        return metrics
    grades = [qrels.grade(topic, doc_id) for doc_id in ranked]
    relevant_flags = [g >= 1 for g in grades]
    for k in ks:
        metrics[f"P@{k}"] = sum(relevant_flags[:k]) / k
    ideal = sorted((g for (t, _), g in qrels.judgments.items() if t == topic), reverse=True)
    for k in ks:
        idcg = _dcg(ideal, k)
        metrics[f"nDCG@{k}"] = _dcg(grades, k) / idcg if idcg > 0 else 0.0
    metrics["R-prec"] = sum(relevant_flags[:total_relevant]) / total_relevant
    hits = 0
    precision_sum = 0.0
    for rank, is_relevant in enumerate(relevant_flags, start=1):
        if is_relevant:
            hits += 1
            precision_sum += hits / rank
    metrics["AP"] = precision_sum / total_relevant
    return metrics


def evaluate_run(run: Run, qrels: Qrels, ks: tuple[int, ...] = (5, 10)) -> MetricReport:
    """Per-topic and mean P@k, nDCG@k, R-precision, and average precision.

    Means are arithmetic over the topics present in the qrels; topics the
    run never answered contribute zeros.
    """
    per_topic: dict[str, dict[str, float]] = {}
    for topic in qrels.topics():
        ranked = [doc_id for doc_id, _ in run.topics.get(topic, [])]
        per_topic[topic] = _topic_metrics(ranked, qrels, topic, ks)
    names = [f"P@{k}" for k in ks] + [f"nDCG@{k}" for k in ks] + ["R-prec", "AP"]
    if per_topic:
        mean = {name: sum(m[name] for m in per_topic.values()) / len(per_topic) for name in names}
    else:
        log.warning("no judged topics; all means reported as 0")
        mean = {name: 0.0 for name in names}
    return MetricReport(per_topic, mean)


def report_to_text(report: MetricReport) -> str:
    """Aligned-column rendering, one row per topic plus the mean row."""
    names = list(report.mean)
    lines = [f"# {report.note}"]
    header = ["topic"] + names
    rows = [[topic] + [f"{report.per_topic[topic][n]:.4f}" for n in names] for topic in sorted(report.per_topic)]
    rows.append(["mean"] + [f"{report.mean[n]:.4f}" for n in names])
    widths = [max(len(row[i]) for row in [header] + rows) for i in range(len(header))]
    for row in [header] + rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines) + "\n"


def report_to_json(report: MetricReport) -> str:
    payload = {"note": report.note, "per_topic": report.per_topic, "mean": report.mean}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
