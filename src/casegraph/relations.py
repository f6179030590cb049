"""Relation extraction between co-occurring concept mentions.

Two modes are supported:

* a log-linear classifier over lexical window features, trained with
  distant supervision against the triple store (co-occurring concept pairs
  are labeled with a stored relation when one exists, otherwise ``NA``);
* a training-free KB-match mode that emits an edge for every co-occurring
  pair that is a stored fact.
"""

from __future__ import annotations

import logging
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import TrainingError, UsageError, ValidationError
from .kb import Lexicon, TripleStore, jsonl, load_container, normalize_token, read_jsonl, save_container
from .linking import Mention, SentenceSpan, Token
from .network import PROV_EXTRACTED, Edge, edge_from_dict, edge_to_dict

log = logging.getLogger(__name__)

NA_LABEL = "NA"
KB_MATCH_CONFIDENCE = 0.5

MODEL_FORMAT = "casegraph-extractor"
MODEL_VERSION = 1


@dataclass(frozen=True)
class ExtractorHyperparams:
    learning_rate: float = 0.1
    epochs: int = 50
    l2: float = 1e-4
    seed: int = 13


@dataclass(frozen=True)
class CandidatePair:
    doc_id: str
    head_mention: Mention
    tail_mention: Mention
    sentence: SentenceSpan
    between_start: int  # token index range strictly between the mentions
    between_end: int
    token_distance: int


@dataclass(frozen=True)
class RelationInstance:
    pair: CandidatePair | None
    label: str
    features: dict


@dataclass
class ExtractorModel:
    feature_vocab: dict[str, int]
    weights: np.ndarray  # [num_labels, num_features]
    labels: list[str]  # NA first
    hyperparams: ExtractorHyperparams


def _mention_token_range(mention: Mention, starts: Sequence[int], ends: Sequence[int]) -> tuple[int, int]:
    """First and last token of a mention, given every token's start and end byte."""
    first = bisect_left(starts, mention.start)
    if first == len(starts) or starts[first] != mention.start:
        raise ValidationError(f"mention at byte {mention.start} does not align with a token boundary")
    last = bisect_left(ends, mention.end, first)
    if last == len(ends):
        raise ValidationError(f"mention at byte {mention.start} ends at byte {mention.end}, past the last token")
    if ends[last] != mention.end:
        raise ValidationError(f"mention at byte {mention.start} ends at byte {mention.end}, inside a token")
    return first, last


def generate_candidates(
    doc_id: str,
    mentions: Sequence[Mention],
    sentences: Sequence[SentenceSpan],
    tokens: Sequence[Token],
    window: int,
) -> list[CandidatePair]:
    """All ordered pairs of distinct same-sentence mentions within the window.

    ``window`` bounds the number of tokens strictly between the mentions;
    both orientations of every pair are emitted. ``sentences`` must come from
    ``split_sentences``, whose token ranges ascend and do not overlap, so a
    mention lies in the one sentence found by bisecting on its first token.
    Mentions may arrive unsorted or overlapping (``extract`` reads them from
    a file): pairs follow the sentence order, then the given mention order.
    """
    starts = [t.start for t in tokens]
    ends = [t.end for t in tokens]
    ranges = [_mention_token_range(m, starts, ends) for m in mentions]
    sentence_starts = [s.token_start for s in sentences]
    inside: list[list[int]] = [[] for _ in sentences]
    for i, (first, last) in enumerate(ranges):
        k = bisect_right(sentence_starts, first) - 1
        if k >= 0 and last < sentences[k].token_end:
            inside[k].append(i)
    pairs: list[CandidatePair] = []
    for sentence, members in zip(sentences, inside):
        for i in members:
            for j in members:
                if i == j:
                    continue
                head, tail = mentions[i], mentions[j]
                (h_first, h_last), (t_first, t_last) = ranges[i], ranges[j]
                if head.start < tail.start:
                    between = (h_last + 1, t_first)
                else:
                    between = (t_last + 1, h_first)
                distance = between[1] - between[0]
                if distance > window:
                    continue
                pairs.append(CandidatePair(doc_id, head, tail, sentence, between[0], between[1], distance))
    return pairs


def distant_label(pair: CandidatePair, kb: TripleStore) -> str:
    """Smallest stored relation for the pair's primary cuis, or NA."""
    relations = kb.relations_between(pair.head_mention.primary_cui, pair.tail_mention.primary_cui)
    if not relations:
        return NA_LABEL
    return min(relations)


def featurize(pair: CandidatePair, tokens: Sequence[Token], lexicon: Lexicon) -> dict[str, int]:
    """Sparse feature counts: between-token bag, orientation, distance bucket, types."""
    features: Counter[str] = Counter()
    for token in tokens[pair.between_start : pair.between_end]:
        features[f"bet:{normalize_token(token.text)}"] += 1
    forward = pair.head_mention.start < pair.tail_mention.start
    features[f"dir:{'fwd' if forward else 'rev'}"] += 1
    if pair.token_distance <= 2:
        bucket = "0-2"
    elif pair.token_distance <= 5:
        bucket = "3-5"
    else:
        bucket = "6+"
    features[f"dist:{bucket}"] += 1
    for prefix, mention in (("ht", pair.head_mention), ("tt", pair.tail_mention)):
        concept = lexicon.concepts.get(mention.primary_cui)
        features[f"{prefix}:{concept.semantic_type if concept else 'unknown'}"] += 1
    return dict(features)


def _sparse(features: dict, vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """Vocabulary ids and counts of the known features, in sorted feature order."""
    ids = []
    counts = []
    for feature, count in sorted(features.items()):
        fid = vocab.get(feature)
        if fid is not None:
            ids.append(fid)
            counts.append(float(count))
    return np.array(ids, dtype=int), np.array(counts, dtype=float)


def _encode(
    instances: Sequence[RelationInstance], vocab: dict[str, int], labels: list[str]
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    label_ids = {label: i for i, label in enumerate(labels)}
    return [(*_sparse(instance.features, vocab), label_ids[instance.label]) for instance in instances]


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


def _instance_probabilities(weights: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if ids.size == 0:
        return _softmax(np.zeros(weights.shape[0]))
    return _softmax(weights[:, ids] @ counts)


def _instance_gradient(
    weights: np.ndarray, ids: np.ndarray, counts: np.ndarray, label_id: int
) -> tuple[np.ndarray, np.ndarray]:
    """Label probabilities of one instance and its cross-entropy gradient on the columns ``ids``."""
    probs = _instance_probabilities(weights, ids, counts)
    delta = probs.copy()
    delta[label_id] -= 1.0
    return probs, np.outer(delta, counts)


def dataset_loss_and_gradient(
    weights: np.ndarray,
    instances: Sequence[RelationInstance],
    feature_vocab: dict[str, int],
    labels: list[str],
    l2: float,
) -> tuple[float, np.ndarray]:
    """Total cross-entropy plus (l2/2)*||W||^2, with its analytic gradient."""
    encoded = _encode(instances, feature_vocab, labels)
    loss = 0.0
    grad = np.zeros_like(weights)
    for ids, counts, label_id in encoded:
        probs, instance_grad = _instance_gradient(weights, ids, counts, label_id)
        loss -= float(np.log(probs[label_id]))
        grad[:, ids] += instance_grad
    loss += 0.5 * l2 * float((weights * weights).sum())
    grad += l2 * weights
    return loss, grad


def train_extractor(
    instances: Sequence[RelationInstance], hyperparams: ExtractorHyperparams | None = None
) -> ExtractorModel:
    """Seeded SGD on the regularized cross-entropy; NA is always label 0.

    The feature vocabulary and label list are fixed up front (sorted), the
    instance order is reshuffled every epoch, and the L2 penalty is spread
    across the instances of each epoch so a full pass matches the batch
    objective of ``dataset_loss_and_gradient``.
    """
    if hyperparams is None:
        hyperparams = ExtractorHyperparams()
    if not instances:
        raise TrainingError("no training instances")
    observed = {i.label for i in instances}
    if observed <= {NA_LABEL}:
        raise TrainingError("no positive relations in the training instances")
    labels = [NA_LABEL] + sorted(observed - {NA_LABEL})
    vocab = {feature: i for i, feature in enumerate(sorted({f for i in instances for f in i.features}))}
    weights = np.zeros((len(labels), len(vocab)))
    encoded = _encode(instances, vocab, labels)
    rng = np.random.default_rng(hyperparams.seed)
    lr = hyperparams.learning_rate
    l2_share = hyperparams.l2 / len(encoded)
    for _ in range(hyperparams.epochs):
        for idx in rng.permutation(len(encoded)):
            ids, counts, label_id = encoded[idx]
            grad = l2_share * weights
            grad[:, ids] += _instance_gradient(weights, ids, counts, label_id)[1]
            weights -= lr * grad
    if not np.isfinite(weights).all():
        raise TrainingError("training diverged to non-finite weights")
    return ExtractorModel(vocab, weights, labels, hyperparams)


def predict_probabilities(model: ExtractorModel, features: dict) -> np.ndarray:
    """Label distribution for one feature map; unknown features are ignored."""
    return _instance_probabilities(model.weights, *_sparse(features, model.feature_vocab))


def extract_relations(
    pairs: Sequence[CandidatePair],
    model: ExtractorModel,
    theta_rel: float,
    tokens: Sequence[Token],
    lexicon: Lexicon,
) -> list[Edge]:
    """Predicted edges with softmax confidence at or above ``theta_rel``.

    NA predictions and pairs whose mentions resolve to the same concept are
    suppressed; duplicate (head, tail, relation) edges keep the maximum
    confidence.
    """
    if not 0.0 <= theta_rel <= 1.0:
        raise UsageError(f"theta_rel must be within [0, 1], got {theta_rel}")
    best: dict[tuple[str, str, str], float] = {}
    for pair in pairs:
        head = pair.head_mention.primary_cui
        tail = pair.tail_mention.primary_cui
        if head == tail:
            continue
        probs = predict_probabilities(model, featurize(pair, tokens, lexicon))
        label_id = int(np.argmax(probs))
        if model.labels[label_id] == NA_LABEL:
            continue
        confidence = float(probs[label_id])
        if confidence < theta_rel:
            continue
        key = (head, tail, model.labels[label_id])
        if confidence > best.get(key, 0.0):
            best[key] = confidence
    return [Edge(h, t, r, c, PROV_EXTRACTED) for (h, t, r), c in sorted(best.items())]


def kb_match_extract(pairs: Sequence[CandidatePair], kb: TripleStore) -> list[Edge]:
    """One edge per (pair, stored relation) at a flat confidence of 0.5."""
    keys: set[tuple[str, str, str]] = set()
    for pair in pairs:
        head = pair.head_mention.primary_cui
        tail = pair.tail_mention.primary_cui
        if head == tail:
            continue
        for relation in kb.relations_between(head, tail):
            keys.add((head, tail, relation))
    return [Edge(h, t, r, KB_MATCH_CONFIDENCE, PROV_EXTRACTED) for h, t, r in sorted(keys)]


def edges_to_dict(doc_id: str, edges: Sequence[Edge]) -> dict:
    return {"doc_id": doc_id, "edges": [edge_to_dict(e) for e in edges]}


def edges_jsonl(per_doc: dict[str, list[Edge]]) -> str:
    return jsonl(edges_to_dict(doc_id, edges) for doc_id, edges in per_doc.items())


def write_edges(per_doc: dict[str, list[Edge]], path: str | Path) -> None:
    Path(path).write_text(edges_jsonl(per_doc), encoding="utf-8")


def read_edges(path: str | Path) -> dict[str, list[Edge]]:
    def decode(obj) -> tuple[str, list[Edge]]:
        return obj["doc_id"], [edge_from_dict(e) for e in obj["edges"]]

    return dict(read_jsonl(path, decode, "an edge"))


def extractor_to_dict(model: ExtractorModel) -> dict:
    return {
        "labels": list(model.labels),
        "feature_vocab": dict(model.feature_vocab),
        "weights": model.weights.tolist(),
        "hyperparams": asdict(model.hyperparams),
    }


def extractor_from_dict(data: dict) -> ExtractorModel:
    return ExtractorModel(
        dict(data["feature_vocab"]),
        np.array(data["weights"], dtype=float),
        list(data["labels"]),
        ExtractorHyperparams(**data["hyperparams"]),
    )


def save_extractor(model: ExtractorModel, path: str | Path) -> None:
    save_container(path, MODEL_FORMAT, MODEL_VERSION, extractor_to_dict(model))


def load_extractor(path: str | Path) -> ExtractorModel:
    return load_container(path, MODEL_FORMAT, MODEL_VERSION, extractor_from_dict)
