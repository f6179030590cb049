"""Shared fixtures, generators, and independent oracles for the test suite.

The oracles deliberately re-derive expected behavior through a different
mechanism than the implementation under test: span enumeration instead of
capped greedy probing, tuple-label feature maps instead of the shared
compressor, analytic expectations instead of sampled rankings, and plain
arithmetic instead of the library's vector helpers.
"""

from __future__ import annotations

import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from casegraph.config import PipelineConfig
from casegraph.engine import document_network, search
from casegraph.errors import TrainingError, UnknownIdentifierError
from casegraph.kb import (
    Document,
    Lexicon,
    Triple,
    TripleStore,
    build_lexicon,
    build_triple_store,
    load_corpus,
    load_lexicon,
    load_triples,
    normalize_surface,
    pack,
    unpack,
)
from casegraph.linking import Mention, SentenceSpan, Token
from casegraph.network import (
    PROV_EXTRACTED,
    PROV_FUSED,
    Edge,
    NetworkColumns,
    NetworkRows,
    SemanticNetwork,
    fuse_confidence,
    networks_jsonl,
)
from casegraph.relations import CandidatePair, ExtractorModel
from casegraph.similarity import LabelCompressor, combined_similarity
from casegraph.transe import EmbeddingModel, _distance_gradient, distances

FIXTURE_LEXICON_ROWS = [
    ("C0027051", "Myocardial Infarction", ["heart attack", "myocardial infarction"], "T047"),
    ("C0004057", "Aspirin", ["acetylsalicylic acid"], "T121"),
    ("C0155626", "Acute myocardial infarction", [], "T047"),
    ("C0020538", "Hypertension", ["high blood pressure", "htn"], "T047"),
]

FIXTURE_LEXICON_TSV = (
    "C0027051\tMyocardial Infarction\theart attack|myocardial infarction\tT047\n"
    "C0004057\tAspirin\tacetylsalicylic acid\tT121\n"
    "C0155626\tAcute myocardial infarction\t\tT047\n"
    "C0020538\tHypertension\thigh blood pressure|htn\tT047\n"
)

FIXTURE_TRIPLES_TSV = "C0004057\tmay_treat\tC0027051\n"


def fixture_lexicon() -> Lexicon:
    return build_lexicon(FIXTURE_LEXICON_ROWS)


# --- synthetic desk-scale corpus -------------------------------------------

_SINGLE = [
    "aspirin",
    "ibuprofen",
    "insulin",
    "fever",
    "cough",
    "sepsis",
    "hypertension",
    "diabetes",
    "pneumonia",
    "asthma",
]
_DOUBLE = [
    "renal failure",
    "heart failure",
    "cardiac arrest",
    "lung cancer",
    "chest pain",
    "blood clot",
    "bone fracture",
    "skin rash",
]
_TRIPLE = ["acute renal failure", "chronic heart failure", "deep vein thrombosis"]
_FILLERS = [
    "patient",
    "presented",
    "with",
    "history",
    "of",
    "treated",
    "using",
    "after",
    "severe",
    "episode",
    "showed",
    "improvement",
    "following",
    "therapy",
    "and",
    "reported",
]


def synth_lexicon_rows() -> list[tuple[str, str, list[str], str]]:
    rows = []
    for i, surface in enumerate(_SINGLE + _DOUBLE + _TRIPLE):
        semtype = "T121" if surface in ("aspirin", "ibuprofen", "insulin") else "T047"
        rows.append((f"C{1000 + i:07d}", surface.title(), [surface], semtype))
    return rows


def synth_lexicon() -> Lexicon:
    return build_lexicon(synth_lexicon_rows())


def write_lexicon_tsv(rows, path) -> None:
    lines = [f"{cui}\t{name}\t{'|'.join(synonyms)}\t{semtype}\n" for cui, name, synonyms, semtype in rows]
    path.write_text("".join(lines), encoding="utf-8")


def write_triples_tsv(store: TripleStore, path) -> None:
    triples = sorted(store.triples, key=lambda t: (t.head, t.relation, t.tail))
    path.write_text("".join(f"{t.head}\t{t.relation}\t{t.tail}\n" for t in triples), encoding="utf-8")


def write_corpus_jsonl(docs: list[Document], path) -> None:
    import json

    lines = [json.dumps({"id": d.id, "title": d.title, "text": d.text}) + "\n" for d in docs]
    path.write_text("".join(lines), encoding="utf-8")


def write_pipeline_fixtures(tmp_path, num_docs: int = 12, seed: int = 3) -> dict:
    """Materialize a full set of pipeline input files; returns their paths."""
    rows = synth_lexicon_rows()
    lexicon = build_lexicon(rows)
    kb = synth_kb(lexicon)
    corpus = synth_corpus(lexicon, num_docs, seed)
    paths = {
        "lexicon": tmp_path / "lexicon.tsv",
        "triples": tmp_path / "triples.tsv",
        "corpus": tmp_path / "corpus.jsonl",
    }
    write_lexicon_tsv(rows, paths["lexicon"])
    write_triples_tsv(kb, paths["triples"])
    write_corpus_jsonl(corpus, paths["corpus"])
    return {name: str(path) for name, path in paths.items()} | {"docs": corpus}


def column(part: dict, key: str, kind: str = "int32") -> list:
    """One stored column of an index payload part (such as ``payload["networks"]``) as a list."""
    return unpack(part[key], key, kind).tolist()


def edit_column(part: dict, key: str, edit, kind: str = "int32") -> None:
    """Decode one stored column, let ``edit`` change the list in place, and store it again.

    A list that ``pack`` cannot store as ``kind`` (one holding a boolean, a
    string or a float among integers) is stored as that JSON list, the form
    an older container used, which the loader must refuse.
    """
    values = column(part, key, kind)
    edit(values)
    packable = {int} if kind == "int32" else {float}
    part[key] = pack(values, kind) if set(map(type, values)) <= packable else values


def empty_bucket(lexicon: dict, surface: str | None = None) -> None:
    """Empty the stored bucket of ``surface`` (the first surface by default), keeping the other buckets."""
    i = lexicon["surfaces"].index(surface) if surface is not None else 0
    ptr = column(lexicon, "surface_ptr")
    start, end = ptr[i], ptr[i + 1]
    edit_column(lexicon, "surface_concepts", lambda ids: ids.__delitem__(slice(start, end)))
    lexicon["surface_ptr"] = pack(ptr[: i + 1] + [p - (end - start) for p in ptr[i + 1 :]])


def repeat_in_bucket(lexicon: dict, surface: str | None = None) -> None:
    """List the first concept of the stored bucket of ``surface`` (the first surface by default) twice."""
    i = lexicon["surfaces"].index(surface) if surface is not None else 0
    ptr = column(lexicon, "surface_ptr")
    edit_column(lexicon, "surface_concepts", lambda ids: ids.insert(ptr[i], ids[ptr[i]]))
    lexicon["surface_ptr"] = pack(ptr[: i + 1] + [p + 1 for p in ptr[i + 1 :]])


def edit_triples(kb: dict, edit) -> None:
    """Let ``edit`` change the stored (head, relation, tail) id rows of a triple store part, as a list of lists."""
    ids = column(kb, "triples")
    rows = [ids[i : i + 3] for i in range(0, len(ids), 3)]
    edit(rows)
    kb["triples"] = pack([i for row in rows for i in row])


def swap_first_two(values: list) -> None:
    values[:2] = values[1::-1]


def self_loop(kb: dict) -> None:
    """Append a triple joining the last entity to itself by the last relation: above every stored row, which holds no self-loop."""
    edit_triples(kb, lambda rows: rows.append([len(kb["entities"]) - 1, len(kb["relations"]) - 1, len(kb["entities"]) - 1]))


def _set(key: str, at: int, value, kind: str = "int32"):
    return lambda part: edit_column(part, key, lambda values: values.__setitem__(at, value), kind)


def drop_last_row(key: str, width):
    """Drop the last row of the float64 column ``key`` of a part, whose rows are ``width(part)`` long."""
    return lambda part: edit_column(part, key, lambda values: values.__delitem__(slice(-width(part), None)), "float64")


def keep_first_label(extractor: dict) -> None:
    """Keep only the first label of an extractor part, and its row of weights."""
    extractor["labels"] = extractor["labels"][:1]
    edit_column(extractor, "weights", lambda values: values.__delitem__(slice(len(extractor["features"]), None)), "float64")


# Damage to one model part of a valid index ("lexicon", "kb", "transe" or
# "extractor") that loading must refuse, with the text its error holds. The
# "transe" and "extractor" cases damage a model file's payload the same way.
INDEX_MODEL_SPOILERS = {
    "lexicon empty bucket": ("lexicon", empty_bucket, "has no concepts"),
    "lexicon concept twice in a bucket": ("lexicon", repeat_in_bucket, "lists concept C[0-9]+ twice"),
    "lexicon empty surface": ("lexicon", lambda lex: lex["surfaces"].__setitem__(0, ""), "must be non-empty words"),
    "lexicon empty cui": ("lexicon", lambda lex: lex["cuis"].__setitem__(0, ""), "empty cui"),
    "lexicon empty name": ("lexicon", lambda lex: lex["names"].__setitem__(0, ""), "has an empty preferred name"),
    "lexicon surface twice": ("lexicon", lambda lex: lex["surfaces"].__setitem__(1, lex["surfaces"][0]), "surfaces must ascend strictly"),
    "lexicon surfaces unsorted": ("lexicon", lambda lex: swap_first_two(lex["surfaces"]), "surfaces must ascend strictly"),
    "lexicon concept id negative": ("lexicon", _set("surface_concepts", 0, -1), "concept id -1 outside"),
    "lexicon synonym pointer short": ("lexicon", lambda lex: edit_column(lex, "synonym_ptr", list.pop), "cover different concepts"),
    "lexicon surface pointer not base64": (
        "lexicon", lambda lex: lex.update(surface_ptr=lex["surface_ptr"][:-1]), "surface_ptr must be base64"
    ),
    "lexicon names short": ("lexicon", lambda lex: lex["names"].pop(), "one item per concept"),
    "triples not base64": ("kb", lambda kb: kb.update(triples="!" + kb["triples"][1:]), "triples must be base64"),
    "triples one id short": ("kb", lambda kb: edit_column(kb, "triples", list.pop), "id rows"),
    "triple head id negative": ("kb", _set("triples", 0, -1), "head id -1 outside"),
    "triples unsorted": ("kb", lambda kb: edit_triples(kb, swap_first_two), "ascend strictly"),
    "triple twice": ("kb", lambda kb: edit_triples(kb, lambda rows: rows.insert(0, rows[0])), "ascend strictly"),
    "self-loop by ids": ("kb", self_loop, "self-loop triple on C[0-9]+"),
    "unused entity": ("kb", lambda kb: kb["entities"].append("~unused"), "entity ~unused is in no stored triple"),
    "entities unsorted": ("kb", lambda kb: swap_first_two(kb["entities"]), "entities must ascend strictly"),
    "transe vectors not base64": (
        "transe", lambda m: m.update(entity_vectors="!" + m["entity_vectors"][1:]), "entity_vectors must be base64"
    ),
    "transe one component short": (
        "transe", lambda m: edit_column(m, "entity_vectors", list.pop, "float64"), "entity vectors must be [0-9]+ x [0-9]+ numbers"
    ),
    "transe NaN": ("transe", _set("entity_vectors", 0, math.nan, "float64"), "not finite"),
    "transe infinite relation": ("transe", _set("relation_vectors", 1, -math.inf, "float64"), "relation .*: vector holds a value"),
    "transe huge component": ("transe", _set("entity_vectors", 2, 1e300, "float64"), "exceeds"),
    "transe entities unsorted": ("transe", lambda m: swap_first_two(m["entities"]), "entities must ascend strictly"),
    "transe entity twice": ("transe", lambda m: m["entities"].__setitem__(1, m["entities"][0]), "entities must ascend strictly"),
    "transe relation not a string": ("transe", lambda m: m["relations"].__setitem__(0, 1), "relations must be a list of strings"),
    "transe no relations": ("transe", lambda m: m.update(relations=[], relation_vectors=""), "no relation vectors"),
    "transe dim too large": ("transe", lambda m: m["config"].update(dim=m["config"]["dim"] + 1), "numbers, got"),
    "transe short vector": (
        "transe", drop_last_row("entity_vectors", lambda m: m["config"]["dim"]), "entity vectors must be [0-9]+ x [0-9]+ numbers"
    ),
    "transe Infinity": ("transe", _set("entity_vectors", 1, math.inf, "float64"), "entity .*: vector holds a value"),
    "transe -Infinity": ("transe", _set("entity_vectors", 1, -math.inf, "float64"), "entity .*: vector holds a value"),
    "transe boolean learning rate": (
        "transe", lambda m: m["config"].update(learning_rate=True), "learning_rate must be float, got True"
    ),
    "transe boolean epochs": ("transe", lambda m: m["config"].update(epochs=True), "epochs must be int, got True"),
    "transe float seed": ("transe", lambda m: m["config"].update(seed=2.5), "seed must be int, got 2.5"),
    "extractor weights not base64": ("extractor", lambda m: m.update(weights=m["weights"][:-1]), "weights must be base64"),
    "extractor weights one short": ("extractor", lambda m: edit_column(m, "weights", list.pop, "float64"), "weights must be"),
    "extractor huge weight": ("extractor", _set("weights", 1, 1e300, "float64"), "exceeds"),
    "extractor NaN weight": ("extractor", _set("weights", 0, math.nan, "float64"), "not finite"),
    "extractor features unsorted": ("extractor", lambda m: swap_first_two(m["features"]), "features must ascend strictly"),
    "extractor feature twice": ("extractor", lambda m: m["features"].__setitem__(1, m["features"][0]), "features must ascend"),
    "extractor feature not a string": ("extractor", lambda m: m["features"].__setitem__(0, 0), "features must be a list of strings"),
    "extractor NA not first": ("extractor", lambda m: m["labels"].reverse(), "labels must start with NA"),
    "extractor a label row short": (
        "extractor", drop_last_row("weights", lambda m: len(m["features"])), "weights must be [0-9]+ rows"
    ),
    "extractor infinite weight": ("extractor", _set("weights", 1, math.inf, "float64"), "not finite"),
    "extractor duplicate labels": (
        "extractor", lambda m: m["labels"].__setitem__(-1, m["labels"][-2]), "labels must be a list of distinct strings"
    ),
    "extractor one label": ("extractor", keep_first_label, "labels must start with NA and hold at least one relation"),
    "extractor numeric label": ("extractor", lambda m: m["labels"].__setitem__(-1, 7), "labels must be a list of distinct strings"),
    "extractor string hyperparameter": (
        "extractor", lambda m: m["hyperparams"].update(learning_rate="0.1"), "learning_rate must be float, got '0.1'"
    ),
    "extractor boolean seed": ("extractor", lambda m: m["hyperparams"].update(seed=True), "seed must be int, got True"),
}


def write_pipeline_networks(fixtures: dict, path) -> str:
    """Write the kbmatch networks of the fixture corpus, as ``build-graphs`` does."""
    lexicon, kb = load_lexicon(fixtures["lexicon"]), load_triples(fixtures["triples"])
    config = PipelineConfig(mode="kbmatch")
    networks = [document_network(doc, lexicon, config, kb) for doc in load_corpus(fixtures["corpus"])]
    path.write_text(networks_jsonl(networks), encoding="utf-8")
    return str(path)


def oracle_network_columns(nets: list[SemanticNetwork]) -> NetworkColumns:
    """The columns of ``nets``, one row per network in the given order."""
    rows = NetworkRows()
    for net in nets:
        rows.add_network(net)
    return rows.columns()


def synth_kb(lexicon: Lexicon) -> TripleStore:
    cuis = sorted(lexicon.concepts)
    triples = []
    drugs = [c for c in cuis if lexicon.concepts[c].semantic_type == "T121"]
    conditions = [c for c in cuis if lexicon.concepts[c].semantic_type == "T047"]
    for i, condition in enumerate(conditions):
        triples.append((drugs[i % len(drugs)], "may_treat", condition))
        triples.append((condition, "associated_with", conditions[(i + 1) % len(conditions)]))
        if i % 3 == 0:
            triples.append((condition, "cause_of", conditions[(i + 5) % len(conditions)]))
    return build_triple_store(triples)


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


def synth_corpus(lexicon: Lexicon, num_docs: int, seed: int) -> list[Document]:
    """Short abstracts built from lexicon surfaces and filler words.

    Every document opens with a guaranteed lexicon surface so each network
    has at least one node.
    """
    rng = random.Random(seed)
    surfaces = sorted(lexicon.surface_index)
    docs = []
    for d in range(num_docs):
        sentences = []
        for s in range(rng.randint(2, 4)):
            words = [surfaces[d % len(surfaces)]] if s == 0 else []
            for _ in range(rng.randint(4, 9)):
                if rng.random() < 0.45:
                    words.append(rng.choice(surfaces))
                else:
                    words.append(rng.choice(_FILLERS))
            sentence = " ".join(words)
            sentences.append(sentence[0].upper() + sentence[1:] + ".")
        docs.append(Document(f"doc{d:03d}", f"Case report {d}", " ".join(sentences)))
    return docs


def random_fixture_text(lexicon: Lexicon, rng: random.Random, num_words: int = 25) -> str:
    """Mixed-case text interleaving lexicon surfaces, fillers, and punctuation."""
    surfaces = sorted(lexicon.surface_index)
    pieces = []
    for _ in range(num_words):
        roll = rng.random()
        if roll < 0.5:
            word = rng.choice(surfaces)
        else:
            word = rng.choice(_FILLERS)
        if rng.random() < 0.3:
            word = word.upper() if rng.random() < 0.5 else word.title()
        pieces.append(word)
        if rng.random() < 0.2:
            pieces.append(rng.choice([",", ".", ";", "!", "?", " -"]))
    return " ".join(pieces)


# --- text front-end oracles ----------------------------------------------------------


def _oracle_byte_offsets(text: str) -> list[int]:
    offsets = [0]
    total = 0
    for ch in text:
        total += len(ch.encode("utf-8"))
        offsets.append(total)
    return offsets


def oracle_tokenize(text: str) -> list[Token]:
    """Alphanumeric runs with byte offsets summed character by character."""
    offsets = _oracle_byte_offsets(text)
    return [Token(m.group(), offsets[m.start()], offsets[m.end()]) for m in re.finditer(r"[^\W_]+", text)]


def oracle_split_sentences(text: str, tokens: list[Token]) -> list[SentenceSpan]:
    """Sentence spans found by testing ``isspace`` on every character."""
    cuts = []
    for m in re.finditer(r"[.?!]", text):
        j = m.end()
        if j >= len(text) or text[j].isspace():
            cuts.append(j)
    if not cuts or cuts[-1] != len(text):
        cuts.append(len(text))
    offsets = _oracle_byte_offsets(text)
    spans = []
    prev = 0
    token_idx = 0
    for cut in cuts:
        first = last = None
        for i in range(prev, cut):
            if not text[i].isspace():
                if first is None:
                    first = i
                last = i
        prev = cut
        if first is None:
            continue
        start_b, end_b = offsets[first], offsets[last + 1]
        tok_start = token_idx
        while token_idx < len(tokens) and tokens[token_idx].start < end_b:
            token_idx += 1
        spans.append(SentenceSpan(start_b, end_b, tok_start, token_idx))
    return spans


def oracle_generate_candidates(doc_id, mentions, sentences, tokens, window) -> list[CandidatePair]:
    """Candidate pairs found by scanning every mention for every sentence."""
    ranges = []
    for m in mentions:
        first = next(k for k, t in enumerate(tokens) if t.start == m.start)
        last = next(k for k in range(first, len(tokens)) if tokens[k].end >= m.end)
        ranges.append((first, last))
    pairs = []
    for sentence in sentences:
        inside = [i for i, (first, last) in enumerate(ranges) if first >= sentence.token_start and last < sentence.token_end]
        for i in inside:
            for j in inside:
                if i == j:
                    continue
                (h_first, h_last), (t_first, t_last) = ranges[i], ranges[j]
                if mentions[i].start < mentions[j].start:
                    between = (h_last + 1, t_first)
                else:
                    between = (t_last + 1, h_first)
                distance = between[1] - between[0]
                if distance <= window:
                    pairs.append(CandidatePair(doc_id, mentions[i], mentions[j], sentence, *between, distance))
    return pairs


# --- relation extractor oracles ------------------------------------------------


def oracle_featurize(pair: CandidatePair, tokens: list[Token], lexicon: Lexicon) -> dict[str, int]:
    """One pair's feature counts, built name by name with the full surface normalizer."""
    features: Counter[str] = Counter()
    for token in tokens[pair.between_start : pair.between_end]:
        features[f"bet:{normalize_surface(token.text)}"] += 1
    features["dir:fwd" if pair.head_mention.start < pair.tail_mention.start else "dir:rev"] += 1
    distance = pair.token_distance
    features["dist:0-2" if distance <= 2 else "dist:3-5" if distance <= 5 else "dist:6+"] += 1
    for prefix, mention in (("ht", pair.head_mention), ("tt", pair.tail_mention)):
        concept = lexicon.concepts.get(mention.primary_cui)
        features[f"{prefix}:{concept.semantic_type if concept else 'unknown'}"] += 1
    return dict(features)


def _oracle_sparse(features: dict, vocab: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    known = [(vocab[name], float(count)) for name, count in sorted(features.items()) if name in vocab]
    return np.array([i for i, _ in known], dtype=int), np.array([c for _, c in known], dtype=float)


def oracle_softmax(scores: np.ndarray) -> np.ndarray:
    exp = np.exp(scores - scores.max())
    return exp / exp.sum()


def oracle_probabilities(weights: np.ndarray, features: dict, vocab: dict[str, int]) -> np.ndarray:
    """One instance's label distribution: its known features in sorted order, one gemv, one softmax."""
    ids, counts = _oracle_sparse(features, vocab)
    if ids.size == 0:
        return oracle_softmax(np.zeros(weights.shape[0]))
    return oracle_softmax(weights[:, ids] @ counts)


def oracle_dataset_loss_and_gradient(
    weights: np.ndarray, instances, feature_vocab: dict[str, int], labels: list[str], l2: float
) -> tuple[float, np.ndarray]:
    """Total cross-entropy plus (l2/2)*||W||^2, with its analytic gradient."""
    encoded = [(*_oracle_sparse(i.features, feature_vocab), labels.index(i.label)) for i in instances]
    loss = 0.0
    grad = np.zeros_like(weights)
    for ids, counts, label_id in encoded:
        probs = oracle_softmax(weights[:, ids] @ counts)
        loss -= float(np.log(probs[label_id]))
        probs[label_id] -= 1.0  # now the label error
        grad[:, ids] += probs[:, None] * counts
    loss += 0.5 * l2 * float((weights * weights).sum())
    grad += l2 * weights
    return loss, grad


def oracle_extract_relations(pairs, model, theta_rel: float, tokens, lexicon) -> list[Edge]:
    """Extraction one pair at a time: featurize, score, keep the best non-NA edge per key."""
    best: dict[tuple[str, str, str], float] = {}
    for pair in pairs:
        head, tail = pair.head_mention.primary_cui, pair.tail_mention.primary_cui
        if head == tail:
            continue
        probs = oracle_probabilities(model.weights, oracle_featurize(pair, tokens, lexicon), model.feature_vocab)
        label_id = int(np.argmax(probs))
        confidence = float(probs[label_id])
        if model.labels[label_id] == "NA" or confidence < theta_rel:
            continue
        key = (head, tail, model.labels[label_id])
        if confidence > best.get(key, 0.0):
            best[key] = confidence
    return [Edge(h, t, r, c, PROV_EXTRACTED) for (h, t, r), c in sorted(best.items())]


def oracle_train_extractor(instances, hyperparams) -> ExtractorModel:
    """The reference SGD loop: a fresh dense gradient ``l2_share * W`` per step,
    the instance's outer product added on its columns, then ``W -= lr * grad``."""
    labels = ["NA"] + sorted({i.label for i in instances} - {"NA"})
    vocab = {feature: i for i, feature in enumerate(sorted({f for i in instances for f in i.features}))}
    encoded = [(*_oracle_sparse(i.features, vocab), labels.index(i.label)) for i in instances]
    weights = np.zeros((len(labels), len(vocab)))
    rng = np.random.default_rng(hyperparams.seed)
    l2_share = hyperparams.l2 / len(encoded)
    for _ in range(hyperparams.epochs):
        for idx in rng.permutation(len(encoded)):
            ids, counts, label_id = encoded[idx]
            delta = oracle_softmax(weights[:, ids] @ counts)
            delta[label_id] -= 1.0
            grad = l2_share * weights
            grad[:, ids] += np.outer(delta, counts)
            weights -= hyperparams.learning_rate * grad
    return ExtractorModel(vocab, weights, labels, hyperparams)


# --- linker oracle -----------------------------------------------------------


def oracle_link(text: str, lexicon: Lexicon) -> list[Mention]:
    """Exhaustively enumerate all indexed token spans, then select the
    leftmost-longest non-overlapping ones."""
    tokens = oracle_tokenize(text)
    norm = [normalize_surface(t.text) for t in tokens]
    n = len(tokens)
    by_start: dict[int, list[tuple[int, list[str]]]] = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            cuis = lexicon.surface_index.get(" ".join(norm[i:j]))
            if cuis:
                by_start.setdefault(i, []).append((j - i, cuis))
    text_bytes = text.encode("utf-8")
    chosen = []
    i = 0
    while i < n:
        if i in by_start:
            width, cuis = max(by_start[i], key=lambda item: item[0])
            start, end = tokens[i].start, tokens[i + width - 1].end
            surface = text_bytes[start:end].decode("utf-8")
            chosen.append(Mention(start, end, surface, tuple(cuis), cuis[0], 1.0))
            i += width
        else:
            i += 1
    return chosen


# --- subtree-pattern feature-map oracle ---------------------------------------


def oracle_wl_counts(net: SemanticNetwork, h: int) -> Counter:
    """Tuple-label feature map: no compressor, order-free by construction."""
    adjacency = {cui: [] for cui in net.nodes}
    for edge in net.edges:
        adjacency[edge.head].append((edge.relation, edge.tail))
        adjacency[edge.tail].append((edge.relation, edge.head))
    labels = {cui: ("n", cui) for cui in net.nodes}
    counts: Counter = Counter(labels.values())
    for _ in range(h):
        refined = {}
        for cui in net.nodes:
            neighborhood = tuple(sorted((rel, labels[other]) for rel, other in adjacency[cui]))
            refined[cui] = (labels[cui], neighborhood)
        labels = refined
        counts.update(labels.values())
    return counts


def oracle_wl_label_history(net: SemanticNetwork, h: int, comp: LabelCompressor) -> list[dict[str, int]]:
    """``wl_label_history`` with every signature written by ``json.dumps``."""
    cuis = sorted(net.nodes)
    neighbors = {cui: [] for cui in cuis}
    for edge in net.edges:
        neighbors[edge.head].append((edge.relation, edge.tail))
        neighbors[edge.tail].append((edge.relation, edge.head))
    labels = {cui: comp.compress(json.dumps(["n", cui])) for cui in cuis}
    history = [labels]
    for _ in range(h):
        labels = {
            cui: comp.compress(json.dumps([labels[cui], sorted((rel, labels[other]) for rel, other in neighbors[cui])]))
            for cui in cuis
        }
        history.append(labels)
    return history


def oracle_corpus_labels(nets: list[SemanticNetwork], h: int) -> tuple[list[int], LabelCompressor]:
    """Each node's labels at iterations 0..h, node after node, of one oracle compressor going through ``nets`` in order; and that compressor."""
    oracle, labels = LabelCompressor(), []
    for net in nets:
        history = oracle_wl_label_history(net, h, oracle)
        labels += [label for node in zip(*map(dict.values, history)) for label in node]
    return labels, oracle


def relabelling(got, want) -> dict[int, int]:
    """The bijection that maps each label of ``got`` to the label of ``want`` at the same position.

    AssertionError unless the two sequences have one length and partition
    their positions alike: equal labels in one where the other's are equal.
    """
    got, want = list(got), list(want)
    assert len(got) == len(want)
    mapping = dict(zip(got, want))
    assert [mapping[label] for label in got] == want, "one label of got stands for two of want"
    assert len(set(mapping.values())) == len(mapping), "two labels of got stand for one of want"
    return mapping


def oracle_wl_dot(counts_a: Counter, counts_b: Counter) -> int:
    return sum(count * counts_b.get(label, 0) for label, count in counts_a.items())


def oracle_kernel(net_a: SemanticNetwork, net_b: SemanticNetwork, h: int) -> float:
    ca, cb = oracle_wl_counts(net_a, h), oracle_wl_counts(net_b, h)
    if not ca or not cb:
        return 0.0
    return oracle_wl_dot(ca, cb) / math.sqrt(oracle_wl_dot(ca, ca) * oracle_wl_dot(cb, cb))


# --- latent similarity oracle --------------------------------------------------


def oracle_embedding(net: SemanticNetwork, entity_vectors: dict) -> list[float]:
    total = None
    mass = 0
    for cui in sorted(net.nodes):
        if cui not in entity_vectors:
            continue
        weight = net.nodes[cui].weight
        vec = entity_vectors[cui]
        scaled = [weight * float(x) for x in vec]
        total = scaled if total is None else [a + b for a, b in zip(total, scaled)]
        mass += weight
    if total is None:
        return []
    return [x / mass for x in total]


def oracle_cosine(a: list[float], b: list[float]) -> float:
    if not a or not b:
        return 0.0
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


def oracle_combined(net_a: SemanticNetwork, net_b: SemanticNetwork, lam: float, h: int, model) -> float:
    explicit = oracle_kernel(net_a, net_b, h)
    if model is None:
        latent = 0.0
    else:
        ea = oracle_embedding(net_a, model.entity_vectors)
        eb = oracle_embedding(net_b, model.entity_vectors)
        latent = max(0.0, oracle_cosine(ea, eb))
    return lam * explicit + (1.0 - lam) * latent


def assert_search_ranks_fused_query(index, texts: list[str]) -> None:
    """``search`` of each text ranks every document as ``combined_similarity`` of the
    query's *fused* network does; at least one query network has a fused edge.

    ``search`` stops the query's network before fusion: no score reads an
    edge's confidence, so fusing cannot change a score.
    """
    fused_edges = 0
    for text in texts:
        query = Document("q", "", text)
        net = document_network(query, index.lexicon, index.config, index.kb, index.extractor, index.transe)
        fused_edges += sum(edge.provenance == PROV_FUSED for edge in net.edges)
        overlay, lam = index.compressor.overlay(), index.config.lambda_weight
        scores = {doc_id: combined_similarity(net, doc, lam, overlay, index.h, index.transe) for doc_id, doc in index.networks.items()}
        results = search(index, text, len(index.networks))
        assert [r.doc_id for r in results] == sorted(scores, key=lambda doc_id: (-scores[doc_id], doc_id)), text
        for result in results:
            assert result.score == pytest.approx(scores[result.doc_id], rel=1e-12, abs=1e-12), (text, result.doc_id)
    assert fused_edges > 0


# --- collection graph oracle ---------------------------------------------------


def oracle_score_row(rows, labels: np.ndarray, counts: np.ndarray, embedding: np.ndarray, lam: float):
    """One query (its kernel labels, counts and embedding) against every row of a ``DocRows``: scores and kernel dots.

    The one-query scorer that search and the collection graph used before
    rows were scored in blocks; the blocked scorer must keep its bits.
    """
    n = len(rows.doc_ids)
    known = labels < len(rows.label_ptr) - 1
    starts, ends = rows.label_ptr[labels[known]], rows.label_ptr[labels[known] + 1]
    lengths = ends - starts
    postings = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    weights = rows.label_counts[postings] * np.repeat(counts[known], lengths)
    dots = np.bincount(rows.label_rows[postings], weights=weights, minlength=n)
    kernel_norms = np.sqrt(int((counts * counts).sum()) * rows.self_dots)
    kernel = np.divide(dots, kernel_norms, out=np.zeros(n), where=kernel_norms > 0)
    cos_norms = np.linalg.norm(embedding) * rows.embedding_norms
    cos = np.divide(np.einsum("ij,j->i", rows.embeddings, embedding), cos_norms, out=np.zeros(n), where=cos_norms != 0)
    return lam * kernel + (1.0 - lam) * np.maximum(0.0, cos), dots


def oracle_collection_graph(index, lam: float, tau_doc: float) -> list[tuple[str, str, float]]:
    """Every row scored alone by ``oracle_score_row``, keeping the rows after it at or above ``tau_doc``."""
    rows = index.rows
    ptr = rows.ptr.tolist()
    edges = []
    for i, doc_a in enumerate(rows.doc_ids):
        own = slice(ptr[i], ptr[i + 1])
        scores, _ = oracle_score_row(rows, rows.labels[own], rows.counts[own], rows.embeddings[i], lam)
        kept = np.flatnonzero(scores[i + 1 :] >= tau_doc) + i + 1
        edges += [(doc_a, rows.doc_ids[j], float(scores[j])) for j in kept.tolist()]
    return edges


# --- enrichment and fusion oracles ---------------------------------------------


def oracle_enrichment(net: SemanticNetwork, model, tau_lp: float, m_cap: int):
    """Brute-force (pair, relation) enumeration with hand-rolled distances."""
    existing = {(e.head, e.tail, e.relation) for e in net.edges}
    candidates = []
    for head in sorted(net.nodes):
        for tail in sorted(net.nodes):
            if head == tail:
                continue
            if head not in model.entity_vectors or tail not in model.entity_vectors:
                continue
            for relation in sorted(model.relation_vectors):
                key = (head, tail, relation)
                if key in existing:
                    continue
                diff = [
                    float(h) + float(r) - float(t)
                    for h, r, t in zip(
                        model.entity_vectors[head],
                        model.relation_vectors[relation],
                        model.entity_vectors[tail],
                    )
                ]
                if model.config.distance == "l1":
                    dist = sum(abs(x) for x in diff)
                else:
                    dist = math.sqrt(sum(x * x for x in diff))
                score = math.exp(-dist)
                if score >= tau_lp:
                    candidates.append((score, key))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    return candidates[:m_cap]


def oracle_fuse_network(net: SemanticNetwork, model) -> SemanticNetwork:
    """Fusion edge by edge: one ``oracle_plausibility`` call per scorable extracted edge."""
    fused = SemanticNetwork(net.doc_id, dict(net.nodes), [])
    for edge in net.edges:
        if edge.provenance == PROV_EXTRACTED and oracle_knows(model, edge.head, edge.relation, edge.tail):
            c_lp = oracle_plausibility(model, edge.head, edge.relation, edge.tail)
            edge = Edge(edge.head, edge.tail, edge.relation, fuse_confidence(edge.confidence, c_lp), PROV_FUSED)
        fused.edges.append(edge)
    return fused


# --- TransE oracles ---------------------------------------------------------------


def oracle_knows(model: EmbeddingModel, head: str, relation: str, tail: str) -> bool:
    return head in model.entity_vectors and tail in model.entity_vectors and relation in model.relation_vectors


def _oracle_vectors(model: EmbeddingModel, head: str, relation: str, tail: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triple's vectors; UnknownIdentifierError names the first of head, tail and relation that the model lacks."""
    for name, table, kind in ((head, model.entity_vectors, "entity"), (tail, model.entity_vectors, "entity"), (relation, model.relation_vectors, "relation")):
        if name not in table:
            raise UnknownIdentifierError(f"unknown {kind} {name}")
    return model.entity_vectors[head], model.relation_vectors[relation], model.entity_vectors[tail]


def oracle_dissimilarity(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """Distance between vec(head) + vec(relation) and vec(tail), by the library's ``distances``."""
    h, r, t = _oracle_vectors(model, head, relation, tail)
    return float(distances(h + r - t, model.config.distance))


def oracle_plausibility(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """exp(-dissimilarity): 1.0 iff the translation is exact, decaying toward 0."""
    return math.exp(-oracle_dissimilarity(model, head, relation, tail))


def oracle_margin_loss(model: EmbeddingModel, positive: Triple, corrupted: Triple) -> float:
    """max(0, margin + d(positive) - d(corrupted))."""
    pos = oracle_dissimilarity(model, *positive)
    neg = oracle_dissimilarity(model, *corrupted)
    return max(0.0, model.config.margin + pos - neg)


def oracle_margin_loss_gradients(
    model: EmbeddingModel, positive: Triple, corrupted: Triple
) -> dict[tuple[str, str], np.ndarray]:
    """Analytic gradients of ``oracle_margin_loss`` wrt every involved vector.

    Keys are ("entity", cui) or ("relation", label); an inactive margin
    yields an empty dict. Gradients on shared vectors accumulate.
    """
    if oracle_margin_loss(model, positive, corrupted) <= 0.0:
        return {}
    distance = model.config.distance
    h, r, t = _oracle_vectors(model, *positive)
    hc, rc, tc = _oracle_vectors(model, *corrupted)
    diff = np.array([h + r - t, hc + rc - tc])
    g_pos, g_neg = _distance_gradient(diff, distances(diff, distance), distance)
    grads: dict[tuple[str, str], np.ndarray] = {}

    def accumulate(key: tuple[str, str], value: np.ndarray) -> None:
        if key in grads:
            grads[key] = grads[key] + value
        else:
            grads[key] = value.copy()

    accumulate(("entity", positive.head), g_pos)
    accumulate(("relation", positive.relation), g_pos)
    accumulate(("entity", positive.tail), -g_pos)
    accumulate(("entity", corrupted.head), -g_neg)
    accumulate(("relation", corrupted.relation), -g_neg)
    accumulate(("entity", corrupted.tail), g_neg)
    return grads


def oracle_train(model: EmbeddingModel, kb: TripleStore, config) -> EmbeddingModel:
    """The reference training loop: a full ``allowed`` list per SGD step and the
    per-triple loss and gradients (``oracle_margin_loss_gradients``) applied to the vector dicts."""
    trained = EmbeddingModel(
        {k: v.copy() for k, v in model.entity_vectors.items()},
        {k: v.copy() for k, v in model.relation_vectors.items()},
        config,
    )
    triples = sorted(kb.triples, key=lambda t: (t.head, t.relation, t.tail))
    entity_list = sorted(trained.entity_vectors)
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for idx in order:
            positive = triples[idx]
            corrupt_head = bool(rng.integers(2))
            if corrupt_head:
                allowed = [e for e in entity_list if not kb.has_triple(e, positive.relation, positive.tail)]
            else:
                allowed = [e for e in entity_list if not kb.has_triple(positive.head, positive.relation, e)]
            if not allowed:
                continue
            replacement = allowed[int(rng.integers(len(allowed)))]
            if corrupt_head:
                corrupted = Triple(replacement, positive.relation, positive.tail)
            else:
                corrupted = Triple(positive.head, positive.relation, replacement)
            total += oracle_margin_loss(trained, positive, corrupted)
            for (kind, name), grad in oracle_margin_loss_gradients(trained, positive, corrupted).items():
                table = trained.entity_vectors if kind == "entity" else trained.relation_vectors
                table[name] = table[name] - lr * grad
        mean_loss = total / len(triples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"training diverged: epoch {epoch + 1} mean loss is {mean_loss}")
        with np.errstate(over="ignore"):
            for name, vec in trained.entity_vectors.items():
                norm = np.linalg.norm(vec)
                if not math.isfinite(norm):
                    raise TrainingError(f"training diverged: epoch {epoch + 1} vector of entity {name} has norm {norm}")
                if norm > 0.0:
                    trained.entity_vectors[name] = vec / norm
        trained.epoch_losses.append(mean_loss)
    return trained


def oracle_distance(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    diff = [
        float(h) + float(r) - float(t)
        for h, r, t in zip(model.entity_vectors[head], model.relation_vectors[relation], model.entity_vectors[tail])
    ]
    if model.config.distance == "l1":
        return sum(abs(x) for x in diff)
    return math.sqrt(sum(x * x for x in diff))


def oracle_ranking(model: EmbeddingModel, triple: Triple, side: str, kb: TripleStore | None) -> list[tuple[float, str]]:
    """Every entity as the ``side`` ("head" or "tail") of ``triple``, sorted by
    (pure-Python distance, name); with ``kb``, other stored entities are dropped."""
    scored = []
    for entity in model.entity_vectors:
        head, tail = (entity, triple.tail) if side == "head" else (triple.head, entity)
        true = triple.head if side == "head" else triple.tail
        if kb is not None and entity != true and Triple(head, triple.relation, tail) in kb.triples:
            continue
        scored.append((oracle_distance(model, head, triple.relation, tail), entity))
    return sorted(scored)


def oracle_link_prediction(model: EmbeddingModel, test, kb: TripleStore) -> dict[str, dict[str, float]]:
    """Raw and filtered mean rank and hits@{1,3,10} from full sorts of every ranking."""
    ranks: dict[str, list[int]] = {"raw": [], "filtered": []}
    for triple in test:
        for setting, store in (("raw", None), ("filtered", kb)):
            for side in ("tail", "head"):
                names = [name for _, name in oracle_ranking(model, triple, side, store)]
                ranks[setting].append(names.index(triple.tail if side == "tail" else triple.head) + 1)
    return {
        setting: {
            "mean_rank": sum(values) / len(values),
            "hits_at_1": sum(r <= 1 for r in values) / len(values),
            "hits_at_3": sum(r <= 3 for r in values) / len(values),
            "hits_at_10": sum(r <= 10 for r in values) / len(values),
        }
        for setting, values in ranks.items()
    }


# --- numeric helpers --------------------------------------------------------------


def central_difference(fn, point: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of fn at point (flattened)."""
    grad = np.zeros_like(point, dtype=float)
    flat = point.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + step
        upper = fn(point)
        flat[i] = original - step
        lower = fn(point)
        flat[i] = original
        grad_flat[i] = (upper - lower) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denominator = max(float(np.linalg.norm(a)), float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denominator


# --- toy knowledge bases ------------------------------------------------------------


def planted_toy_kb(
    num_entities: int = 10,
    num_relations: int = 3,
    num_triples: int = 30,
    dim: int = 8,
    seed: int = 5,
) -> TripleStore:
    """A KB realizable by a translational model: sample ground-truth vectors,
    keep the best-translating (head, relation, tail) combinations."""
    rng = np.random.default_rng(seed)
    entities = [f"C9{i:06d}" for i in range(num_entities)]
    relations = [f"rel_{chr(ord('a') + i)}" for i in range(num_relations)]
    entity_vectors = {}
    for entity in entities:
        vec = rng.normal(size=dim)
        entity_vectors[entity] = vec / np.linalg.norm(vec)
    relation_vectors = {relation: 0.5 * rng.normal(size=dim) for relation in relations}
    scored = []
    for head in entities:
        for tail in entities:
            if head == tail:
                continue
            for relation in relations:
                dist = np.abs(entity_vectors[head] + relation_vectors[relation] - entity_vectors[tail]).sum()
                scored.append((float(dist), head, relation, tail))
    scored.sort()
    return build_triple_store([(h, r, t) for _, h, r, t in scored[:num_triples]])


def analytic_random_mean_rank(test, kb: TripleStore, entities: list[str]) -> float:
    """Expected filtered rank of the true entity under random distinct scores."""
    expectations = []
    for triple in test:
        other_tails = sum(
            1
            for e in entities
            if e != triple.tail and kb.has_triple(triple.head, triple.relation, e)
        )
        expectations.append((len(entities) - other_tails + 1) / 2)
        other_heads = sum(
            1
            for e in entities
            if e != triple.head and kb.has_triple(e, triple.relation, triple.tail)
        )
        expectations.append((len(entities) - other_heads + 1) / 2)
    return sum(expectations) / len(expectations)
