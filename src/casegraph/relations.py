"""Relation extraction between co-occurring concept mentions.

Two modes are supported:

* a log-linear classifier over lexical window features, trained with
  distant supervision against the triple store (co-occurring concept pairs
  are labeled with a stored relation when one exists, otherwise ``NA``);
* a training-free KB-match mode that emits an edge for every co-occurring
  pair that is a stored fact.

A classifier has one stored form (``extractor_to_columns``/
``extractor_from_columns``): its labels, its features ascending (a
feature's position is its id), its weights as one ``float64`` column and its
hyperparameters. A model file (``save_extractor``, a version-2
``casegraph-extractor`` container) and an index's ``extractor`` part hold the
same payload.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import Settings, check, setting
from .errors import FormatError, ParseError, TrainingError
from .kb import Lexicon, TripleStore, jsonl, load_container, pack, read_doc_records, save_container, strings, unpack
from .linking import Mention, Mentions, Record, Sentences, SentenceSpan, Tokens
from .network import PROV_EXTRACTED, Edge, edge_from_dict, edge_to_dict
from .transe import MAX_COMPONENT

log = logging.getLogger(__name__)

NA_LABEL = "NA"
KB_MATCH_CONFIDENCE = 0.5

MODEL_FORMAT = "casegraph-extractor"
MODEL_VERSION = 2


@dataclass(frozen=True)
class ExtractorHyperparams(Settings):
    learning_rate: float = setting("extractor_lr")
    epochs: int = setting("extractor_epochs")
    l2: float = setting("l2")
    seed: int = setting("seed")


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


@dataclass
class Pairs(Record):
    """A document's candidate pairs, column-wise over its mentions and sentences.

    Pair ``p`` runs from mention ``heads[p]`` to mention ``tails[p]`` within
    sentence ``in_sentence[p]``; the tokens ``between_starts[p]`` up to
    ``between_ends[p]`` lie strictly between the two. Item ``p`` is its
    ``CandidatePair``, built when it is first read.
    """

    doc_id: str
    mentions: Mentions
    sentences: Sentences
    heads: list[int]
    tails: list[int]
    between_starts: list[int]
    between_ends: list[int]
    in_sentence: list[int]
    _columns = ("heads",)

    @classmethod
    def of(cls, pairs: Sequence[CandidatePair]) -> Pairs:
        """``pairs`` as a record; a record is returned as it is.

        The record holds each pair's head and tail mention and its sentence
        on their own, and takes its doc id from the first pair.
        """
        if isinstance(pairs, Pairs):
            return pairs
        n = len(pairs)
        return cls(
            pairs[0].doc_id if n else "",
            Mentions.of([mention for pair in pairs for mention in (pair.head_mention, pair.tail_mention)]),
            Sentences.of([pair.sentence for pair in pairs]),
            list(range(0, 2 * n, 2)),
            list(range(1, 2 * n, 2)),
            [pair.between_start for pair in pairs],
            [pair.between_end for pair in pairs],
            list(range(n)),
        )

    def _build(self, p: int) -> CandidatePair:
        start, end = self.between_starts[p], self.between_ends[p]
        head, tail = self.mentions[self.heads[p]], self.mentions[self.tails[p]]
        return CandidatePair(self.doc_id, head, tail, self.sentences[self.in_sentence[p]], start, end, end - start)

    def select(self, positions: list[int]) -> Pairs:
        """The pairs at ``positions``, in that order."""
        columns = (self.heads, self.tails, self.between_starts, self.between_ends, self.in_sentence)
        return Pairs(self.doc_id, self.mentions, self.sentences, *([column[p] for p in positions] for column in columns))


def generate_candidates(
    doc_id: str,
    mentions: Sequence[Mention],
    sentences: Sentences,
    tokens: Tokens,
    window: int,
) -> Pairs:
    """All ordered pairs of distinct same-sentence mentions within the window.

    ``window`` bounds the number of tokens strictly between the mentions;
    both orientations of every pair are emitted. ``sentences`` must come from
    ``split_sentences``, whose token ranges ascend and do not overlap, so a
    mention lies in the one sentence found by bisecting on its first token.
    Mentions may arrive unsorted or overlapping (``extract`` reads them from
    a file): pairs follow the sentence order, then the given mention order.
    The pairs' mentions are ``mentions`` aligned to ``tokens``.
    """
    check("window", window)
    mentions = Mentions.of(mentions).aligned(tokens)
    firsts, lasts, starts = mentions.firsts, mentions.lasts, mentions.starts
    sentence_starts, sentence_ends = sentences.token_starts, sentences.token_ends
    runs: list[list[int]] = [[] for _ in sentence_starts]
    for i, (first, last) in enumerate(zip(firsts, lasts)):
        k = bisect_right(sentence_starts, first) - 1
        if k >= 0 and last < sentence_ends[k]:
            runs[k].append(i)
    heads, tails, between_starts, between_ends, in_sentence = [], [], [], [], []
    for k, run in enumerate(runs):
        for i in run:
            for j in run:
                if i == j:
                    continue
                if starts[i] < starts[j]:
                    start, end = lasts[i] + 1, firsts[j]
                else:
                    start, end = lasts[j] + 1, firsts[i]
                if end - start > window:
                    continue
                heads.append(i)
                tails.append(j)
                between_starts.append(start)
                between_ends.append(end)
                in_sentence.append(k)
    return Pairs(doc_id, mentions, sentences, heads, tails, between_starts, between_ends, in_sentence)


def distant_label(pair: CandidatePair, kb: TripleStore) -> str:
    """Smallest stored relation for the pair's primary cuis, or NA."""
    relations = kb.relations_between(pair.head_mention.primary_cui, pair.tail_mention.primary_cui)
    if not relations:
        return NA_LABEL
    return min(relations)


class _Encoded(dict):
    """``encoded[value]`` is ``encode(name(value))``, computed on the first lookup of ``value``."""

    def __init__(self, name: Callable, encode: Callable):  # starts empty, as dict.__new__ makes it
        self.name = name
        self.encode = encode

    def __missing__(self, value):
        entry = self[value] = self.encode(self.name(value))
        return entry


def _feature_rows(pairs: Pairs, tokens: Tokens, lexicon: Lexicon, encode: Callable) -> list[list]:
    """Each pair's features, one entry per occurrence: this defines the feature set.

    A pair has one ``bet:`` feature per token strictly between its mentions
    (the token's normal form), then its orientation (``dir:``), its
    distance bucket (``dist:``) and the semantic types of its head (``ht:``)
    and tail (``tt:``) concepts. ``encode`` turns a feature name into the
    entry the caller wants, once per distinct name of the call.
    """

    def semantic_type(cui: str) -> str:
        concept = lexicon.concepts.get(cui)
        return concept.semantic_type if concept else "unknown"

    between = _Encoded(lambda norm: f"bet:{norm}", encode)
    direction = _Encoded(lambda forward: "dir:fwd" if forward else "dir:rev", encode)
    bucket = _Encoded(lambda d: "dist:0-2" if d <= 2 else "dist:3-5" if d <= 5 else "dist:6+", encode)
    head_type = _Encoded(lambda cui: f"ht:{semantic_type(cui)}", encode)
    tail_type = _Encoded(lambda cui: f"tt:{semantic_type(cui)}", encode)
    norms, starts, primaries = tokens.norms, pairs.mentions.starts, pairs.mentions.primaries
    rows = []
    for head, tail, start, end in zip(pairs.heads, pairs.tails, pairs.between_starts, pairs.between_ends):
        row = [between[norm] for norm in norms[start:end]]
        row += (
            direction[starts[head] < starts[tail]],
            bucket[end - start],
            head_type[primaries[head]],
            tail_type[primaries[tail]],
        )
        rows.append(row)
    return rows


def featurize_pairs(pairs: Sequence[CandidatePair], tokens: Tokens, lexicon: Lexicon) -> list[dict[str, int]]:
    """``featurize`` of each of a document's pairs, naming each distinct feature once."""
    return [dict(Counter(row)) for row in _feature_rows(Pairs.of(pairs), tokens, lexicon, str)]


def featurize(pair: CandidatePair, tokens: Tokens, lexicon: Lexicon) -> dict[str, int]:
    """Sparse feature counts: between-token bag, orientation, distance bucket, types."""
    return featurize_pairs([pair], tokens, lexicon)[0]


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
    """Softmax along the last axis; a row of a 2-D block gets the bits of the same row alone.

    The ufunc reductions are what ``max`` and ``sum`` call, without their
    Python wrappers, which cost a training step about a microsecond.
    """
    exp = np.exp(scores - np.maximum.reduce(scores, axis=-1, keepdims=True))
    return exp / np.add.reduce(exp, axis=-1, keepdims=True)


def _scores(weights: np.ndarray, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Label scores of P instances that each have n known features: ``ids`` and ``counts`` are (P, n).

    Row p equals ``weights[:, ids[p]] @ counts[p]`` bit for bit. That gather is
    F-ordered, so numpy hands it to the column-major BLAS gemv. Every
    (labels, n) block of the transposed stack below is F-ordered too and takes
    the same kernel; a C-ordered stack or ``einsum`` rounds differently.
    """
    return np.matmul(weights.T[ids].transpose(0, 2, 1), counts[:, :, None])[:, :, 0]


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
        probs = _softmax(weights[:, ids] @ counts)
        loss -= float(np.log(probs[label_id]))
        probs[label_id] -= 1.0  # now the label error
        grad[:, ids] += probs[:, None] * counts
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

    A step subtracts ``lr * grad``, where ``grad`` is ``l2_share * weights``
    plus, on the instance's columns, the outer product of the label error
    and the counts. It gathers those columns once, for the scores and the
    update, and reuses one buffer for ``grad``.
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
    grad = np.empty_like(weights)
    encoded = _encode(instances, vocab, labels)
    rng = np.random.default_rng(hyperparams.seed)
    lr = hyperparams.learning_rate
    l2_share = hyperparams.l2 / len(encoded)
    for _ in range(hyperparams.epochs):
        for idx in rng.permutation(len(encoded)):
            ids, counts, label_id = encoded[idx]
            columns = weights[:, ids]
            delta = _softmax(columns @ counts)
            delta[label_id] -= 1.0
            np.multiply(weights, l2_share, out=grad)
            columns *= l2_share
            columns += np.multiply.outer(delta, counts)
            grad[:, ids] = columns
            grad *= lr
            weights -= grad
    if not np.isfinite(weights).all():
        raise TrainingError("training diverged to non-finite weights")
    return ExtractorModel(vocab, weights, labels, hyperparams)


def predict_probabilities(model: ExtractorModel, features: dict) -> np.ndarray:
    """Label distribution for one feature map; unknown features are ignored."""
    ids, counts = _sparse(features, model.feature_vocab)
    return _softmax(_scores(model.weights, ids[None], counts[None]))[0]


def _feature_blocks(
    rows: list[list[int]], num_features: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """The rows' known features (ids >= 0), grouped by their number n >= 1 of distinct known features.

    Returns the positions of the rows that have a known feature, ordered by
    n and then by position, and for each n in ascending order the (rows, n)
    ``ids`` and ``counts`` of its rows in that order. Ids ascend within a
    row, which is the order of ``_sparse``: the vocabulary numbers its
    features in sorted order.
    """
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
    owners = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    known = flat >= 0
    keys, counts = np.unique(owners[known] * num_features + flat[known], return_counts=True)
    owners = keys // num_features
    sizes = np.bincount(owners, minlength=len(rows))
    entries = np.argsort(sizes[owners], kind="stable")  # by n, then by position and id
    ids, counts = (keys - owners * num_features)[entries], counts[entries].astype(float)
    blocks = []
    start = 0
    for n, rows_with_n in enumerate(np.bincount(sizes).tolist()):
        if n and rows_with_n:
            end = start + n * rows_with_n
            blocks.append((ids[start:end].reshape(-1, n), counts[start:end].reshape(-1, n)))
            start = end
    return np.argsort(sizes, kind="stable")[np.count_nonzero(sizes == 0) :], blocks


def extract_relations(
    pairs: Sequence[CandidatePair],
    model: ExtractorModel,
    theta_rel: float,
    tokens: Tokens,
    lexicon: Lexicon,
) -> list[Edge]:
    """Predicted edges with softmax confidence at or above ``theta_rel``.

    NA predictions and pairs whose mentions resolve to the same concept are
    suppressed; duplicate (head, tail, relation) edges keep the maximum
    confidence. The pairs of a call are featurized together and scored in
    one matrix product per number of known features, with the bits that
    ``predict_probabilities`` gives each pair alone. A pair without a known
    feature scores 0 on every label, so its prediction is the first label,
    NA.
    """
    check("theta_rel", theta_rel)
    pairs = Pairs.of(pairs)
    primaries = pairs.mentions.primaries
    pairs = pairs.select([p for p, (h, t) in enumerate(zip(pairs.heads, pairs.tails)) if primaries[h] != primaries[t]])
    if not pairs:
        return []
    vocab = model.feature_vocab
    rows = _feature_rows(pairs, tokens, lexicon, lambda name: vocab.get(name, -1))
    positions, blocks = _feature_blocks(rows, len(vocab))
    if not blocks:
        return []
    probs = _softmax(np.concatenate([_scores(model.weights, ids, counts) for ids, counts in blocks]))
    best: dict[tuple[str, str, str], float] = {}
    predictions = zip(positions.tolist(), probs.argmax(axis=1).tolist(), probs.max(axis=1).tolist())
    for position, label_id, confidence in predictions:
        relation = model.labels[label_id]
        if relation == NA_LABEL or confidence < theta_rel:
            continue
        key = (primaries[pairs.heads[position]], primaries[pairs.tails[position]], relation)
        if confidence > best.get(key, 0.0):
            best[key] = confidence
    return [Edge(h, t, r, c, PROV_EXTRACTED) for (h, t, r), c in sorted(best.items())]


def kb_match_extract(pairs: Sequence[CandidatePair], kb: TripleStore) -> list[Edge]:
    """One edge per (pair, stored relation) at a flat confidence of 0.5."""
    pairs = Pairs.of(pairs)
    primaries = pairs.mentions.primaries
    keys: set[tuple[str, str, str]] = set()
    for h, t in zip(pairs.heads, pairs.tails):
        head, tail = primaries[h], primaries[t]
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
        if type(obj["doc_id"]) is not str or type(obj["edges"]) is not list:
            raise ParseError("an edge record needs a string doc_id and a list of edges")
        return obj["doc_id"], [edge_from_dict(e) for e in obj["edges"]]

    return read_doc_records(path, decode, "an edge")


def extractor_to_columns(model: ExtractorModel) -> dict:
    """The model's one stored form, in a model file and in an index: the features,
    whose positions are their ids, and the weights as one ``float64`` column.

    The vocabulary lists its features in id order, which is sorted order.
    """
    return {
        "labels": list(model.labels),
        "features": list(model.feature_vocab),
        "weights": pack(model.weights.ravel(), "float64"),
        "hyperparams": asdict(model.hyperparams),
    }


def extractor_from_columns(data: dict) -> ExtractorModel:
    """Decode ``extractor_to_columns`` output, checking what extraction relies on.

    The features ascend strictly, so their positions number them in sorted
    order, as ``train_extractor`` does. ``labels`` are at least two distinct
    strings with NA first. The weights hold one row of a weight per feature
    for every label, each finite and within ``MAX_COMPONENT``, so no score
    can overflow. The hyperparameters are checked as ``ExtractorHyperparams``
    checks its settings.
    """
    features = strings(data["features"], "extractor features", ascending=True)
    values = unpack(data["weights"], "extractor weights", "float64")
    labels = data["labels"]
    if type(labels) is not list or not set(map(type, labels)) <= {str} or len(set(labels)) != len(labels):
        raise FormatError("labels must be a list of distinct strings")
    if len(labels) < 2 or labels[0] != NA_LABEL:
        raise FormatError(f"labels must start with {NA_LABEL} and hold at least one relation")
    if len(values) != len(labels) * len(features):
        raise FormatError(f"weights must be {len(labels)} rows (one per label) of {len(features)} values")
    if not (np.abs(values) <= MAX_COMPONENT).all():
        raise FormatError(f"weights hold a value that is not finite or exceeds {MAX_COMPONENT:g}")
    vocab = dict(zip(features, range(len(features))))
    return ExtractorModel(vocab, values.reshape(len(labels), len(features)), list(labels), ExtractorHyperparams(**data["hyperparams"]))


def save_extractor(model: ExtractorModel, path: str | Path) -> None:
    save_container(path, MODEL_FORMAT, MODEL_VERSION, extractor_to_columns(model))


def load_extractor(path: str | Path) -> ExtractorModel:
    return load_container(path, MODEL_FORMAT, MODEL_VERSION, extractor_from_columns)
