"""Translational knowledge-graph embeddings for link prediction.

Entities and relations live in the same d-dimensional space; a fact
(h, r, t) is scored by the distance between vec(h) + vec(r) and vec(t)
(L1 or L2). Training minimizes a margin ranking loss between each stored
triple and a corrupted variant with head or tail replaced by a random
entity that does not itself form a stored triple. Entity vectors are
re-normalized to unit length at the end of every epoch.

Everything is driven by a single seed: initialization, per-epoch shuffles,
corruption coin flips, and entity sampling are all byte-reproducible.

A model has one stored form (``model_to_columns``/``model_from_columns``):
its config, its entity and relation names ascending, and their vectors as
one ``float64`` column each. A model file (``save_model``, a version-2
``casegraph-transe`` container) and an index's ``transe`` part hold the same
payload.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import Settings, setting
from .errors import ConfigError, FormatError, TrainingError, UnknownIdentifierError, UsageError
from .kb import Triple, TripleStore, first_true, load_container, pack, save_container, strings, unpack

log = logging.getLogger(__name__)

MODEL_FORMAT = "casegraph-transe"
MODEL_VERSION = 2
# Trained entity vectors have unit length. A relation component beyond this
# bound (or NaN or infinite) means training diverged, and a loaded one would
# overflow the distances and embeddings.
MAX_COMPONENT = 1e100
@dataclass(frozen=True)
class TrainConfig(Settings):
    dim: int = setting("dim")
    margin: float = setting("margin")
    learning_rate: float = setting("transe_lr")
    epochs: int = setting("transe_epochs")
    distance: str = setting("distance")
    seed: int = setting("seed")


@dataclass
class EmbeddingModel:
    entity_vectors: dict[str, np.ndarray]
    relation_vectors: dict[str, np.ndarray]
    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)

    def knows(self, head: str, relation: str, tail: str) -> bool:
        return (
            head in self.entity_vectors
            and tail in self.entity_vectors
            and relation in self.relation_vectors
        )


def init_model(entities: Iterable[str], relations: Iterable[str], config: TrainConfig) -> EmbeddingModel:
    """Seeded uniform init in [-6/sqrt(dim), +6/sqrt(dim)]; entities unit-normalized."""
    entity_list = sorted(set(entities))
    relation_list = sorted(set(relations))
    if not entity_list:
        raise ConfigError("cannot initialize an embedding model with no entities")
    if not relation_list:
        raise ConfigError("cannot initialize an embedding model with no relations")
    rng = np.random.default_rng(config.seed)
    bound = 6.0 / math.sqrt(config.dim)
    entity_vectors = {}
    for name in entity_list:
        vec = rng.uniform(-bound, bound, config.dim)
        entity_vectors[name] = vec / np.linalg.norm(vec)
    relation_vectors = {name: rng.uniform(-bound, bound, config.dim) for name in relation_list}
    return EmbeddingModel(entity_vectors, relation_vectors, config)


def _entity(model: EmbeddingModel, name: str) -> np.ndarray:
    try:
        return model.entity_vectors[name]
    except KeyError:
        raise UnknownIdentifierError(f"unknown entity {name}") from None


def _relation(model: EmbeddingModel, name: str) -> np.ndarray:
    try:
        return model.relation_vectors[name]
    except KeyError:
        raise UnknownIdentifierError(f"unknown relation {name}") from None


def _vectors(model: EmbeddingModel, head: str, relation: str, tail: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    h = _entity(model, head)
    t = _entity(model, tail)
    return h, _relation(model, relation), t


def distances(diff: np.ndarray, distance: str) -> np.ndarray:
    """L1 or L2 norm along the last axis of ``h + r - t`` differences.

    Every distance of the package comes from here, so a batch of rows gives
    the same bits as one row at a time.
    """
    if distance == "l1":
        return np.abs(diff).sum(axis=-1)
    return np.sqrt((diff * diff).sum(axis=-1))


def dissimilarity(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """Distance between vec(head) + vec(relation) and vec(tail)."""
    h, r, t = _vectors(model, head, relation, tail)
    return float(distances(h + r - t, model.config.distance))


def plausibility(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """exp(-dissimilarity): 1.0 iff the translation is exact, decaying toward 0."""
    return math.exp(-dissimilarity(model, head, relation, tail))


def margin_loss(model: EmbeddingModel, positive: Triple, corrupted: Triple) -> float:
    """max(0, margin + d(positive) - d(corrupted))."""
    pos = dissimilarity(model, *positive)
    neg = dissimilarity(model, *corrupted)
    return max(0.0, model.config.margin + pos - neg)


def _distance_gradient(diff: np.ndarray, dist: np.ndarray, distance: str) -> np.ndarray:
    # Gradient wrt diff of its distances dist along the last axis; subgradient 0 at L1/L2 kinks.
    if distance == "l1":
        return np.sign(diff)
    norm = np.expand_dims(dist, -1)
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm != 0.0)


def margin_loss_gradients(
    model: EmbeddingModel, positive: Triple, corrupted: Triple
) -> dict[tuple[str, str], np.ndarray]:
    """Analytic gradients of ``margin_loss`` wrt every involved vector.

    Keys are ("entity", cui) or ("relation", label); an inactive margin
    yields an empty dict. Gradients on shared vectors accumulate.
    """
    if margin_loss(model, positive, corrupted) <= 0.0:
        return {}
    distance = model.config.distance
    h, r, t = _vectors(model, *positive)
    hc, rc, tc = _vectors(model, *corrupted)
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


def _stored(triples: Iterable[Triple], index: dict[str, int]) -> tuple[dict, dict]:
    """Sorted ``index`` positions of the stored heads of every (relation, tail)
    and of the stored tails of every (head, relation); unindexed names are left out."""
    heads: dict[tuple[str, str], list[int]] = {}
    tails: dict[tuple[str, str], list[int]] = {}
    for head, relation, tail in triples:
        if head in index:
            heads.setdefault((relation, tail), []).append(index[head])
        if tail in index:
            tails.setdefault((head, relation), []).append(index[tail])
    for positions in (*heads.values(), *tails.values()):
        positions.sort()
    return heads, tails


def _allowed(positions: list[int], num_entities: int) -> tuple[int, list[int]]:
    """The number of entities left when ``positions`` are excluded, and skips.

    The k-th excluded position has ``positions[k] - k`` allowed entities
    before it, so the j-th allowed entity is ``j + bisect_right(skips, j)``.
    """
    return num_entities - len(positions), [p - k for k, p in enumerate(positions)]


def train(
    model: EmbeddingModel,
    kb: TripleStore,
    config: TrainConfig | None = None,
    on_epoch: Callable[[int, "EmbeddingModel"], None] | None = None,
) -> EmbeddingModel:
    """Train a copy of ``model`` on the triple store; the input is untouched.

    Per epoch: seeded shuffle; one corrupted triple per positive (head or
    tail replaced, coin-flipped, drawn uniformly from the entities that do
    not form a stored triple); one SGD step on the margin loss; entity
    re-normalization at epoch end. The mean epoch loss trace is kept on the
    returned model.

    The vectors are trained as the rows of one matrix, entities in name
    order and then relations, and handed back as the model's dicts at every
    epoch end. Each step gives the same bits as ``margin_loss`` and
    ``margin_loss_gradients`` on the dicts, accumulated in their key order.
    """
    if config is None:
        config = model.config
    if not kb.triples:
        raise ConfigError("cannot train on an empty triple store")
    for vec in (*model.entity_vectors.values(), *model.relation_vectors.values()):
        if vec.shape != (config.dim,):
            raise ConfigError(f"config dim is {config.dim} but the model's vectors have shape {vec.shape}")
    trained = EmbeddingModel(dict(model.entity_vectors), dict(model.relation_vectors), config)
    triples = sorted(kb.triples)
    entity_list = sorted(trained.entity_vectors)
    relation_list = sorted(trained.relation_vectors)
    index = {name: row for row, name in enumerate(entity_list)}
    relation_row = {name: len(entity_list) + k for k, name in enumerate(relation_list)}
    stored_heads, stored_tails = _stored(kb.triples, index)
    head_choices = {key: _allowed(p, len(entity_list)) for key, p in stored_heads.items()}
    tail_choices = {key: _allowed(p, len(entity_list)) for key, p in stored_tails.items()}
    everyone = (len(entity_list), [])
    steps = []
    for head, relation, tail in triples:
        rows = (index.get(head), relation_row.get(relation), index.get(tail))
        steps.append((
            None if None in rows else rows,
            head_choices.get((relation, tail), everyone),
            tail_choices.get((head, relation), everyone),
        ))
    matrix = np.array(
        [trained.entity_vectors[n] for n in entity_list] + [trained.relation_vectors[n] for n in relation_list],
        dtype=float,
    )
    # Rows 0-2 of a step are (h, r, t) of the positive, rows 3-5 the corrupted
    # triple; these pick and sign each row's share of the two distance gradients.
    share = [0, 0, 0, 1, 1, 1]
    signs = np.array([[1.0], [1.0], [-1.0], [-1.0], [-1.0], [1.0]])
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        for idx in order:
            rows, head_side, tail_side = steps[idx]
            corrupt_head = bool(rng.integers(2))
            allowed, skips = head_side if corrupt_head else tail_side
            if not allowed:
                continue
            j = int(rng.integers(allowed))
            replacement = j + bisect_right(skips, j)
            if rows is None:
                _vectors(trained, *triples[idx])
            h, r, t = rows
            slots = [h, r, t, replacement, r, t] if corrupt_head else [h, r, t, h, r, replacement]
            stacked = matrix[slots]
            diff = stacked[0::3] + stacked[1::3] - stacked[2::3]
            dist = distances(diff, config.distance)
            pos, neg = dist.tolist()
            loss = max(0.0, config.margin + pos - neg)
            total += loss
            if loss <= 0.0:
                continue
            grads: dict[int, np.ndarray] = {}
            for slot, grad in zip(slots, _distance_gradient(diff, dist, config.distance)[share] * signs):
                grads[slot] = grads[slot] + grad if slot in grads else grad
            matrix[list(grads)] -= lr * np.array(list(grads.values()))
        mean_loss = total / len(triples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"training diverged: epoch {epoch + 1} mean loss is {mean_loss}")
        # A norm overflows to inf while the vector is still finite; that is
        # reported as divergence below, not as a numpy warning. One norm per
        # row: the norms of a whole matrix are not the same bits.
        with np.errstate(over="ignore"):
            for name in trained.entity_vectors:
                vec = matrix[index[name]]
                norm = np.linalg.norm(vec)
                if not math.isfinite(norm):
                    raise TrainingError(f"training diverged: epoch {epoch + 1} vector of entity {name} has norm {norm}")
                if norm > 0.0:
                    vec /= norm
        for name in trained.relation_vectors:
            if not (np.abs(matrix[relation_row[name]]) <= MAX_COMPONENT).all():
                raise TrainingError(f"training diverged: epoch {epoch + 1} vector of relation {name} exceeds {MAX_COMPONENT:g}")
        trained.epoch_losses.append(mean_loss)
        log.debug("epoch %d: mean margin loss %.6f", epoch + 1, mean_loss)
        if on_epoch is not None:
            _unstack(trained, matrix.copy(), entity_list, relation_list)
            on_epoch(epoch + 1, trained)
    _unstack(trained, matrix, entity_list, relation_list)
    return trained


def _unstack(model: EmbeddingModel, matrix: np.ndarray, entity_list: list[str], relation_list: list[str]) -> None:
    model.entity_vectors.update(zip(entity_list, matrix[: len(entity_list)]))
    model.relation_vectors.update(zip(relation_list, matrix[len(entity_list) :]))


def _ranked(
    model: EmbeddingModel,
    candidates: list[str],
    keep: Callable[[str], bool],
    diff: Callable[[np.ndarray], np.ndarray],
) -> list[tuple[str, float]]:
    kept = [c for c in candidates if keep(c)]
    if not kept:
        return []
    scores = distances(diff(np.array([_entity(model, c) for c in kept])), model.config.distance).tolist()
    return sorted(zip(kept, scores), key=lambda item: (item[1], item[0]))


def rank_tails(
    model: EmbeddingModel,
    head: str,
    relation: str,
    candidates: Iterable[str],
    filter_store: TripleStore | None = None,
    true_tail: str | None = None,
) -> list[tuple[str, float]]:
    """Candidates ascending by dissimilarity, ties broken lexicographically.

    With a filter store, candidates that already form a stored triple with
    (head, relation) are dropped, except ``true_tail``.
    """
    candidate_list = list(candidates)
    if not candidate_list:
        raise UsageError("candidate set must be non-empty")
    h, r, _ = _vectors(model, head, relation, candidate_list[0])

    def keep(c: str) -> bool:
        if filter_store is None or c == true_tail:
            return True
        return not filter_store.has_triple(head, relation, c)

    return _ranked(model, candidate_list, keep, lambda tails: h + r - tails)


def rank_heads(
    model: EmbeddingModel,
    tail: str,
    relation: str,
    candidates: Iterable[str],
    filter_store: TripleStore | None = None,
    true_head: str | None = None,
) -> list[tuple[str, float]]:
    """Head-side counterpart of ``rank_tails``."""
    candidate_list = list(candidates)
    if not candidate_list:
        raise UsageError("candidate set must be non-empty")
    _, r, t = _vectors(model, candidate_list[0], relation, tail)

    def keep(c: str) -> bool:
        if filter_store is None or c == true_head:
            return True
        return not filter_store.has_triple(c, relation, tail)

    return _ranked(model, candidate_list, keep, lambda heads: heads + r - t)


def _rank(dist: np.ndarray, target: int, excluded: np.ndarray | None) -> int:
    """1-based position of ``target`` in (distance, name) order, candidates in name order.

    ``excluded`` positions other than the target are not counted.
    """
    d = dist[target]
    rank = 1 + int(np.count_nonzero(dist < d)) + int(np.count_nonzero(dist[:target] == d))
    if excluded is not None:
        de = dist[excluded]
        rank -= int(np.count_nonzero((de < d) | ((de == d) & (excluded < target))))
    return rank


def evaluate_link_prediction(
    model: EmbeddingModel, test: Iterable[Triple], kb: TripleStore
) -> dict[str, dict[str, float]]:
    """Mean rank and hits@{1,3,10} over head- and tail-corruption rankings.

    Reported for the raw setting and the filtered setting (other stored
    true entities removed from the candidate list before ranking). Every
    entity of the model is a candidate; the ranks are those of
    ``rank_tails`` and ``rank_heads`` over them, counted from one distance
    vector per ranking.
    """
    test_list = list(test)
    if not test_list:
        raise UsageError("test triple set must be non-empty")
    candidates = sorted(model.entity_vectors)
    if not candidates:
        raise UsageError("candidate set must be non-empty")
    index = {name: i for i, name in enumerate(candidates)}
    entities = np.array([model.entity_vectors[c] for c in candidates])
    stored_heads, stored_tails = _stored(kb.triples, index)
    stored_heads = {key: np.array(p) for key, p in stored_heads.items()}
    stored_tails = {key: np.array(p) for key, p in stored_tails.items()}
    distance = model.config.distance
    ranks: dict[str, list[int]] = {"raw": [], "filtered": []}
    for triple in test_list:
        h = _entity(model, triple.head)
        r = _relation(model, triple.relation)
        t = _entity(model, triple.tail)
        tail_dist = distances(h + r - entities, distance)
        head_dist = distances(entities + r - t, distance)
        tail, head = index[triple.tail], index[triple.head]
        tails = stored_tails.get((triple.head, triple.relation))
        heads = stored_heads.get((triple.relation, triple.tail))
        ranks["raw"] += [_rank(tail_dist, tail, None), _rank(head_dist, head, None)]
        ranks["filtered"] += [_rank(tail_dist, tail, tails), _rank(head_dist, head, heads)]
    report = {}
    for setting, values in ranks.items():
        report[setting] = {
            "mean_rank": sum(values) / len(values),
            "hits_at_1": sum(r <= 1 for r in values) / len(values),
            "hits_at_3": sum(r <= 3 for r in values) / len(values),
            "hits_at_10": sum(r <= 10 for r in values) / len(values),
        }
    return report


# Each stored vector table: its key of names, its key of vectors, and what a vector is of.
_COLUMNS = (("entities", "entity_vectors", "entity"), ("relations", "relation_vectors", "relation"))


def model_to_columns(model: EmbeddingModel) -> dict:
    """The model's one stored form, in a model file and in an index: each table's
    names ascending, and its vectors one ``float64`` column in name order."""
    stored = {"config": asdict(model.config)}
    for (names_key, column, _), table in zip(_COLUMNS, (model.entity_vectors, model.relation_vectors)):
        names = stored[names_key] = sorted(table)
        stored[column] = pack(np.array([table[name] for name in names]).ravel(), "float64")
    return stored


def model_from_columns(data: dict) -> EmbeddingModel:
    """Decode ``model_to_columns`` output: FormatError unless each table's names are a non-empty list of
    strings ascending strictly and its column holds names x dim components, each finite and within ``MAX_COMPONENT``."""
    config = TrainConfig(**data["config"])
    tables = []
    for names_key, column, kind in _COLUMNS:
        names = strings(data[names_key], f"transe {names_key}", ascending=True)
        values = unpack(data[column], f"transe {column}", "float64")
        if not names:
            raise FormatError(f"model has no {kind} vectors")
        if len(values) != len(names) * config.dim:
            raise FormatError(f"{kind} vectors must be {len(names)} x {config.dim} numbers, got {len(values)}")
        matrix = values.reshape(len(names), config.dim)
        i = first_true(~(np.abs(matrix) <= MAX_COMPONENT).all(axis=1))
        if i >= 0:
            raise FormatError(f"{kind} {names[i]}: vector holds a value that is not finite or exceeds {MAX_COMPONENT:g}")
        tables.append(dict(zip(names, matrix)))
    return EmbeddingModel(*tables, config)


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    save_container(path, MODEL_FORMAT, MODEL_VERSION, model_to_columns(model))


def load_model(path: str | Path) -> EmbeddingModel:
    return load_container(path, MODEL_FORMAT, MODEL_VERSION, model_from_columns)
