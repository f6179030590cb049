"""Translational knowledge-graph embeddings for link prediction.

Entities and relations live in the same d-dimensional space; a fact
(h, r, t) is scored by the distance between vec(h) + vec(r) and vec(t)
(L1 or L2). Training minimizes a margin ranking loss between each stored
triple and a corrupted variant with head or tail replaced by a random
entity that does not itself form a stored triple. Entity vectors are
re-normalized to unit length at the end of every epoch.

Everything is driven by a single seed: initialization, per-epoch shuffles,
corruption coin flips, and entity sampling are all byte-reproducible.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, TrainingError, UnknownIdentifierError, UsageError
from .kb import Triple, TripleStore, load_container, save_container

log = logging.getLogger(__name__)

MODEL_FORMAT = "casegraph-transe"
MODEL_VERSION = 1


@dataclass(frozen=True)
class TrainConfig:
    dim: int = 50
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    distance: str = "l1"
    seed: int = 13

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.margin <= 0:
            raise ConfigError(f"margin must be > 0, got {self.margin}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning rate must be > 0, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.distance not in ("l1", "l2"):
            raise ConfigError(f"distance must be 'l1' or 'l2', got {self.distance!r}")


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


def _vectors(model: EmbeddingModel, head: str, relation: str, tail: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        h = model.entity_vectors[head]
    except KeyError:
        raise UnknownIdentifierError(f"unknown entity {head}") from None
    try:
        t = model.entity_vectors[tail]
    except KeyError:
        raise UnknownIdentifierError(f"unknown entity {tail}") from None
    try:
        r = model.relation_vectors[relation]
    except KeyError:
        raise UnknownIdentifierError(f"unknown relation {relation}") from None
    return h, r, t


def dissimilarity(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """Distance between vec(head) + vec(relation) and vec(tail)."""
    h, r, t = _vectors(model, head, relation, tail)
    diff = h + r - t
    if model.config.distance == "l1":
        return float(np.abs(diff).sum())
    return float(np.sqrt((diff * diff).sum()))


def plausibility(model: EmbeddingModel, head: str, relation: str, tail: str) -> float:
    """exp(-dissimilarity): 1.0 iff the translation is exact, decaying toward 0."""
    return math.exp(-dissimilarity(model, head, relation, tail))


def margin_loss(model: EmbeddingModel, positive: Triple, corrupted: Triple) -> float:
    """max(0, margin + d(positive) - d(corrupted))."""
    pos = dissimilarity(model, positive.head, positive.relation, positive.tail)
    neg = dissimilarity(model, corrupted.head, corrupted.relation, corrupted.tail)
    return max(0.0, model.config.margin + pos - neg)


def _distance_gradient(diff: np.ndarray, distance: str) -> np.ndarray:
    # Gradient of d(x) wrt x; subgradient 0 at L1/L2 kinks.
    if distance == "l1":
        return np.sign(diff)
    norm = np.sqrt((diff * diff).sum())
    if norm == 0.0:
        return np.zeros_like(diff)
    return diff / norm


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
    h, r, t = _vectors(model, positive.head, positive.relation, positive.tail)
    hc, rc, tc = _vectors(model, corrupted.head, corrupted.relation, corrupted.tail)
    g_pos = _distance_gradient(h + r - t, distance)
    g_neg = _distance_gradient(hc + rc - tc, distance)
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


def train(
    model: EmbeddingModel,
    kb: TripleStore,
    config: TrainConfig | None = None,
    on_epoch: Callable[[int, "EmbeddingModel"], None] | None = None,
) -> EmbeddingModel:
    """Train a copy of ``model`` on the triple store; the input is untouched.

    Per epoch: seeded shuffle; one corrupted triple per positive (head or
    tail replaced, coin-flipped, avoiding stored triples); one SGD step on
    the margin loss; entity re-normalization at epoch end. The mean epoch
    loss trace is kept on the returned model.
    """
    if config is None:
        config = model.config
    if not kb.triples:
        raise ConfigError("cannot train on an empty triple store")
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
            total += margin_loss(trained, positive, corrupted)
            for (kind, name), grad in margin_loss_gradients(trained, positive, corrupted).items():
                table = trained.entity_vectors if kind == "entity" else trained.relation_vectors
                table[name] = table[name] - lr * grad
        mean_loss = total / len(triples)
        if not math.isfinite(mean_loss):
            raise TrainingError(f"training diverged: epoch {epoch + 1} mean loss is {mean_loss}")
        # A norm overflows to inf while the vector is still finite; that is
        # reported as divergence below, not as a numpy warning.
        with np.errstate(over="ignore"):
            for name, vec in trained.entity_vectors.items():
                norm = np.linalg.norm(vec)
                if not math.isfinite(norm):
                    raise TrainingError(f"training diverged: epoch {epoch + 1} vector of entity {name} has norm {norm}")
                if norm > 0.0:
                    trained.entity_vectors[name] = vec / norm
        trained.epoch_losses.append(mean_loss)
        log.debug("epoch %d: mean margin loss %.6f", epoch + 1, mean_loss)
        if on_epoch is not None:
            on_epoch(epoch + 1, trained)
    return trained


def _ranked(
    model: EmbeddingModel,
    candidates: Sequence[str],
    score: Callable[[str], float],
    keep: Callable[[str], bool],
) -> list[tuple[str, float]]:
    scored = [(c, score(c)) for c in candidates if keep(c)]
    scored.sort(key=lambda item: (item[1], item[0]))
    return scored


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
    h, r, _ = _vectors(model, head, relation, next(iter(candidate_list)))

    def keep(c: str) -> bool:
        if filter_store is None or c == true_tail:
            return True
        return not filter_store.has_triple(head, relation, c)

    return _ranked(model, candidate_list, lambda c: dissimilarity(model, head, relation, c), keep)


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
    _vectors(model, next(iter(candidate_list)), relation, tail)

    def keep(c: str) -> bool:
        if filter_store is None or c == true_head:
            return True
        return not filter_store.has_triple(c, relation, tail)

    return _ranked(model, candidate_list, lambda c: dissimilarity(model, c, relation, tail), keep)


def _rank_of(ranked: list[tuple[str, float]], target: str) -> int:
    for position, (candidate, _) in enumerate(ranked, start=1):
        if candidate == target:
            return position
    raise UnknownIdentifierError(f"true entity {target} missing from the candidate ranking")


def evaluate_link_prediction(
    model: EmbeddingModel, test: Iterable[Triple], kb: TripleStore
) -> dict[str, dict[str, float]]:
    """Mean rank and hits@{1,3,10} over head- and tail-corruption rankings.

    Reported for the raw setting and the filtered setting (other stored
    true entities removed from the candidate list before ranking).
    """
    test_list = list(test)
    if not test_list:
        raise UsageError("test triple set must be non-empty")
    candidates = sorted(model.entity_vectors)
    ranks: dict[str, list[int]] = {"raw": [], "filtered": []}
    for triple in test_list:
        for setting, store in (("raw", None), ("filtered", kb)):
            tail_ranked = rank_tails(model, triple.head, triple.relation, candidates, store, triple.tail)
            head_ranked = rank_heads(model, triple.tail, triple.relation, candidates, store, triple.head)
            ranks[setting].append(_rank_of(tail_ranked, triple.tail))
            ranks[setting].append(_rank_of(head_ranked, triple.head))
    report = {}
    for setting, values in ranks.items():
        report[setting] = {
            "mean_rank": sum(values) / len(values),
            "hits_at_1": sum(r <= 1 for r in values) / len(values),
            "hits_at_3": sum(r <= 3 for r in values) / len(values),
            "hits_at_10": sum(r <= 10 for r in values) / len(values),
        }
    return report


def model_to_dict(model: EmbeddingModel) -> dict:
    return {
        "config": asdict(model.config),
        "entities": {k: v.tolist() for k, v in model.entity_vectors.items()},
        "relations": {k: v.tolist() for k, v in model.relation_vectors.items()},
    }


def model_from_dict(data: dict) -> EmbeddingModel:
    config = TrainConfig(**data["config"])
    return EmbeddingModel(
        {k: np.array(v, dtype=float) for k, v in data["entities"].items()},
        {k: np.array(v, dtype=float) for k, v in data["relations"].items()},
        config,
    )


def save_model(model: EmbeddingModel, path: str | Path) -> None:
    save_container(path, MODEL_FORMAT, MODEL_VERSION, model_to_dict(model))


def load_model(path: str | Path) -> EmbeddingModel:
    return load_container(path, MODEL_FORMAT, MODEL_VERSION, model_from_dict)
