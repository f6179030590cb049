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
from .errors import ConfigError, FormatError, TrainingError, UnknownIdentifierError, UsageError, ValidationError
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
    _encoded = None  # the JSON text of ``model_to_columns``, as for ``kb.Lexicon``; dropped by ``_unstack``


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


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The norm of every row of ``matrix``, each with the bits of ``np.linalg.norm`` on the row alone.

    A stack of (1 x d) @ (d x 1) products reduces each row as ``row.dot(row)``
    does; ``einsum("ij,ij->i")`` does not.
    """
    return np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel())


def _distance_gradient(diff: np.ndarray, dist: np.ndarray, distance: str) -> np.ndarray:
    # Gradient wrt diff of its distances dist along the last axis; subgradient 0 at L1/L2 kinks.
    if distance == "l1":
        return np.sign(diff)
    norm = np.expand_dims(dist, -1)
    return np.divide(diff, norm, out=np.zeros_like(diff), where=norm != 0.0)


def _stored(
    triples: Iterable[Triple], index: dict[str, int], head_keys: Iterable[tuple], tail_keys: Iterable[tuple]
) -> tuple[dict, dict]:
    """Sorted ``index`` positions of the stored heads of each (relation, tail)
    in ``head_keys`` and of the stored tails of each (head, relation) in
    ``tail_keys``, from one pass over ``triples``; unindexed names are left out."""
    heads: dict[tuple[str, str], list[int]] = {key: [] for key in head_keys}
    tails: dict[tuple[str, str], list[int]] = {key: [] for key in tail_keys}
    for head, relation, tail in triples:
        positions = heads.get((relation, tail))
        if positions is not None and head in index:
            positions.append(index[head])
        positions = tails.get((head, relation))
        if positions is not None and tail in index:
            positions.append(index[tail])
    for positions in (*heads.values(), *tails.values()):
        positions.sort()
    return heads, tails


def _filters(key: np.ndarray, free: np.ndarray, num_entities: int) -> tuple[np.ndarray, np.ndarray]:
    """The skips of every triple's corruption filter, and each triple's (lo, hi) span of them.

    A triple's filter excludes the rows of the entities that form a stored
    triple with its ``key`` (its coded (relation, tail) or (head, relation));
    ``free`` is each triple's entity row on the corrupted side, a name the
    model lacks being coded from ``num_entities`` on. A span holds the k-th
    excluded row p, ascending, as ``p - k``: p has ``p - k`` allowed entities
    before it, so the j-th allowed one is ``j + bisect_right(skips, j, lo, hi) - lo``.
    """
    order = np.lexsort((free, key))
    key, free = key[order], free[order]
    first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sizes = np.diff(np.r_[first, len(key)])
    lo = np.repeat(first, sizes)
    spans = np.empty((len(key), 2), dtype=np.intp)
    spans[order, 0] = lo
    spans[order, 1] = lo + np.repeat(np.add.reduceat((free < num_entities).astype(np.intp), first), sizes)
    return free - (np.arange(len(key)) - lo), spans


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
    epoch end. Each step gives the same bits as the per-triple loss and
    gradients of the reference loop on the dicts (``oracle_train`` in
    ``tests/helpers.py``), accumulated in their key order. When h, t and the
    replacement are three rows, that sum has a closed form, and the step
    writes its four rows at once: corrupting the head, h gets g0, r gets
    g0 - g1, t gets g1 - g0 and h' gets -g1; corrupting the tail, h and r get
    g0 - g1, t gets -g0 and t' gets g1, for the distance gradients g0 of the
    positive and g1 of the corrupted triple. A step whose rows repeat, a
    self-loop corruption such as (t, r, t), sums its six gradient rows in key
    order instead.
    """
    if config is None:
        config = model.config
    if not kb.triples:
        raise ConfigError("cannot train on an empty triple store")
    for vec in (*model.entity_vectors.values(), *model.relation_vectors.values()):
        if vec.shape != (config.dim,):
            raise ConfigError(f"config dim is {config.dim} but the model's vectors have shape {vec.shape}")
    trained = EmbeddingModel(dict(model.entity_vectors), dict(model.relation_vectors), config)
    entity_list = sorted(trained.entity_vectors)
    relation_list = sorted(trained.relation_vectors)
    num_entities = len(entity_list)
    index = {name: row for row, name in enumerate(entity_list)}
    relation_row = {name: num_entities + k for k, name in enumerate(relation_list)}
    # Every name of the store or the model is coded by its place among them
    # all, so sorting the coded triples sorts the triples. A name the model
    # lacks has no row (an entity gets one from num_entities on, a relation
    # -1): the step of its triple fails, if it is reached.
    store = list(kb.triples)
    heads, relations, tails = zip(*store)
    entity_names = sorted(index.keys() | {*heads, *tails})
    relation_names = sorted(relation_row.keys() | {*relations})
    entity_code = {name: k for k, name in enumerate(entity_names)}
    relation_code = {name: k for k, name in enumerate(relation_names)}
    codes = np.array([[entity_code[n] for n in heads], [relation_code[n] for n in relations], [entity_code[n] for n in tails]])
    order = np.lexsort(codes[::-1])
    triples = [store[i] for i in order.tolist()]
    hc, rc, tc = codes[:, order]
    entity_rows = np.array([index.get(name, num_entities + k) for k, name in enumerate(entity_names)])
    h, r, t = entity_rows[hc], np.array([relation_row.get(name, -1) for name in relation_names])[rc], entity_rows[tc]
    head_skips, head_spans = _filters(rc * len(entity_names) + tc, h, num_entities)
    tail_skips, tail_spans = _filters(hc * len(relation_names) + rc, t, num_entities)
    skips = [*head_skips.tolist(), *tail_skips.tolist()]
    known = (h < num_entities) & (r >= 0) & (t < num_entities)
    steps = np.column_stack((h, r, t, known, head_spans, tail_spans + len(triples))).tolist()
    matrix = np.array(
        [trained.entity_vectors[n] for n in entity_list] + [trained.relation_vectors[n] for n in relation_list],
        dtype=float,
    )
    # The closed form: rows 0-1 of ``terms`` take a step's distance gradients
    # g0 and g1, rows 2-3 hold +0 and -0, and the rows [h, r, t, replacement]
    # get the differences of the two rows of ``terms`` that ``pick[corrupt_head]``
    # names (g0 - +0 is g0 and -0 - g1 is -g1, signed zeros included).
    terms = np.zeros((4, config.dim))
    terms[3] = -0.0
    pick = (np.array([[0, 0, 3, 1], [1, 1, 0, 2]]), np.array([[0, 0, 1, 3], [2, 1, 0, 1]]))
    # Rows 0-2 of a repeating step are (h, r, t) of the positive, rows 3-5 the
    # corrupted triple; these pick and sign each row's share of the two distance gradients.
    share = [0, 0, 0, 1, 1, 1]
    signs = np.array([[1.0], [1.0], [-1.0], [-1.0], [-1.0], [1.0]])
    rng = np.random.default_rng(config.seed)
    lr = config.learning_rate
    l1 = config.distance == "l1"
    for epoch in range(config.epochs):
        order = rng.permutation(len(triples))
        total = 0.0
        # A diverging step overflows or makes inf - inf; the loss check below
        # reports it as a TrainingError, not as numpy warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in order:
                h, r, t, known, head_lo, head_hi, tail_lo, tail_hi = steps[idx]
                corrupt_head = bool(rng.integers(2))
                lo, hi = (head_lo, head_hi) if corrupt_head else (tail_lo, tail_hi)
                allowed = num_entities - (hi - lo)
                if not allowed:
                    continue
                j = int(rng.integers(allowed))
                replacement = j + bisect_right(skips, j, lo, hi) - lo
                if not known:
                    _vectors(trained, *triples[idx])
                slots = [h, r, t, replacement]
                stacked = matrix.take(slots, axis=0)
                diff = stacked[0::3] + stacked[1] - stacked[2] if corrupt_head else stacked[0] + stacked[1] - stacked[2:]
                dist = distances(diff, config.distance)
                pos, neg = dist.tolist()
                loss = max(0.0, config.margin + pos - neg)
                total += loss
                if loss <= 0.0:
                    continue
                # With no distance 0, diff / dist is _distance_gradient's L2 branch.
                grad = _distance_gradient(diff, dist, config.distance) if l1 or not (pos and neg) else diff / dist[:, None]
                if replacement != h and replacement != t and h != t:
                    terms[:2] = grad
                    terms_of = terms.take(pick[corrupt_head], axis=0)
                    matrix[slots] = stacked - lr * (terms_of[0] - terms_of[1])
                    continue
                grads: dict[int, np.ndarray] = {}
                slots = [h, r, t, replacement, r, t] if corrupt_head else [h, r, t, h, r, replacement]
                for slot, row in zip(slots, grad[share] * signs):
                    grads[slot] = grads[slot] + row if slot in grads else row
                matrix[list(grads)] -= lr * np.array(list(grads.values()))
        mean_loss = total / len(triples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"training diverged: epoch {epoch + 1} mean loss is {mean_loss}")
        # A norm overflows to inf while the vector is still finite; that is
        # reported as divergence of the first such entity in the model's
        # order, not as a numpy warning.
        entities = matrix[:num_entities]
        with np.errstate(over="ignore"):
            norms = row_norms(entities)
        if not np.isfinite(norms).all():
            name, norm = next((n, norms[index[n]]) for n in trained.entity_vectors if not math.isfinite(norms[index[n]]))
            raise TrainingError(f"training diverged: epoch {epoch + 1} vector of entity {name} has norm {norm}")
        np.divide(entities, norms[:, None], out=entities, where=norms[:, None] > 0.0)
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
    model._encoded = None
    model.entity_vectors.update(zip(entity_list, matrix[: len(entity_list)]))
    model.relation_vectors.update(zip(relation_list, matrix[len(entity_list) :]))


def _ranks(dist: np.ndarray, target: int, excluded: np.ndarray) -> tuple[int, int]:
    """Raw and filtered 1-based position of ``target`` in (distance, name) order, candidates in name order.

    One mask holds the candidates ranked before the target; the filtered
    rank does not count the ``excluded`` positions among them.
    """
    d = dist[target]
    better = dist < d
    better[:target] |= dist[:target] == d
    raw = 1 + int(np.count_nonzero(better))
    return raw, raw - int(np.count_nonzero(better[excluded]))


def evaluate_link_prediction(
    model: EmbeddingModel, test: Iterable[Triple], kb: TripleStore
) -> dict[str, dict[str, float]]:
    """Mean rank and hits@{1,3,10} over head- and tail-corruption rankings.

    Reported for the raw setting and the filtered setting (other stored
    true entities removed from the candidate list before ranking). Every
    entity of the model is a candidate, ranked by (distance, name); the
    ranks are those of the full sorts of ``oracle_ranking`` in
    ``tests/helpers.py``. The filter holds only the test set's (head,
    relation) and (relation, tail) keys, filled in one pass over the store,
    and each ranking counts both of its ranks from one mask over one
    distance vector.
    """
    test_list = list(test)
    if not test_list:
        raise ValidationError("test triple set must be non-empty")
    candidates = sorted(model.entity_vectors)
    if not candidates:
        raise UsageError("candidate set must be non-empty")
    index = {name: i for i, name in enumerate(candidates)}
    entities = np.array([model.entity_vectors[c] for c in candidates])
    stored_heads, stored_tails = _stored(
        kb.triples, index, [(r, t) for _, r, t in test_list], [(h, r) for h, r, _ in test_list]
    )
    stored_heads = {key: np.array(p, dtype=np.intp) for key, p in stored_heads.items()}
    stored_tails = {key: np.array(p, dtype=np.intp) for key, p in stored_tails.items()}
    distance = model.config.distance
    ranks: dict[str, list[int]] = {"raw": [], "filtered": []}
    for triple in test_list:
        h = _entity(model, triple.head)
        r = _relation(model, triple.relation)
        t = _entity(model, triple.tail)
        tail_dist = distances(h + r - entities, distance)
        head_dist = distances(entities + r - t, distance)
        tail_raw, tail_filtered = _ranks(tail_dist, index[triple.tail], stored_tails[triple.head, triple.relation])
        head_raw, head_filtered = _ranks(head_dist, index[triple.head], stored_heads[triple.relation, triple.tail])
        ranks["raw"] += [tail_raw, head_raw]
        ranks["filtered"] += [tail_filtered, head_filtered]
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
