"""Per-document semantic networks: construction, enrichment, confidence fusion.

A network is a directed graph of concept nodes (weighted by mention count)
and typed edges with a confidence in (0, 1] and a provenance tag:
``extracted`` (from text), ``predicted`` (link prediction), or ``fused``
(extracted confidence strengthened by link prediction).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, UsageError, ValidationError
from .kb import Lexicon, jsonl, read_jsonl
from .linking import Mention
from .transe import EmbeddingModel, distances, plausibility

log = logging.getLogger(__name__)

PROV_EXTRACTED = "extracted"
PROV_PREDICTED = "predicted"
PROV_FUSED = "fused"
_PROVENANCES = (PROV_EXTRACTED, PROV_PREDICTED, PROV_FUSED)


@dataclass(frozen=True)
class Edge:
    head: str
    tail: str
    relation: str
    confidence: float
    provenance: str

    def __post_init__(self) -> None:
        if self.head == self.tail:
            raise ValidationError(f"self-loop edge on {self.head}")
        if not 0.0 < self.confidence <= 1.0:
            raise ValidationError(
                f"edge ({self.head},{self.relation},{self.tail}) confidence {self.confidence} outside (0, 1]"
            )
        if self.provenance not in _PROVENANCES:
            raise ValidationError(f"unknown provenance {self.provenance!r}")

    def key(self) -> tuple[str, str, str]:
        return (self.head, self.tail, self.relation)


@dataclass
class Node:
    cui: str
    name: str
    mention_spans: list[tuple[int, int]]

    @property
    def weight(self) -> int:
        return len(self.mention_spans)


@dataclass
class SemanticNetwork:
    doc_id: str
    nodes: dict[str, Node] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)

    def edge_keys(self) -> set[tuple[str, str, str]]:
        return {e.key() for e in self.edges}


def build_network(doc_id: str, mentions: list[Mention], edges: list[Edge], lexicon: Lexicon) -> SemanticNetwork:
    """Aggregate mentions into weighted nodes and attach deduplicated edges.

    One node per distinct primary cui; duplicate (head, tail, relation) edges
    keep the maximum confidence. An edge endpoint without a node is an error.
    """
    net = SemanticNetwork(doc_id)
    for mention in mentions:
        node = net.nodes.get(mention.primary_cui)
        if node is None:
            concept = lexicon.concepts.get(mention.primary_cui)
            name = concept.preferred_name if concept else mention.primary_cui
            node = Node(mention.primary_cui, name, [])
            net.nodes[mention.primary_cui] = node
        node.mention_spans.append((mention.start, mention.end))
    best: dict[tuple[str, str, str], Edge] = {}
    for edge in edges:
        for endpoint in (edge.head, edge.tail):
            if endpoint not in net.nodes:
                raise ConsistencyError(f"edge endpoint {endpoint} has no node in document {doc_id}")
        kept = best.get(edge.key())
        if kept is None or edge.confidence > kept.confidence:
            best[edge.key()] = edge
    net.edges = [best[k] for k in sorted(best)]
    if not net.nodes:
        log.debug("document %s produced an empty network", doc_id)
    return net


def enrich_network(
    net: SemanticNetwork, model: EmbeddingModel, tau_lp: float, m_cap: int | None = None
) -> SemanticNetwork:
    """Add the most plausible absent edges between existing nodes.

    Every ordered node pair and model relation without an existing
    (head, tail, relation) edge is scored by translation plausibility;
    candidates at or above ``tau_lp`` are ranked (plausibility descending,
    then lexicographic key) and the top ``m_cap`` are appended with
    provenance ``predicted``; ``m_cap`` None caps at the number of existing
    edges. Nodes, existing edges, and their order are untouched; pairs the
    model cannot score are skipped.
    """
    if not 0.0 < tau_lp <= 1.0:
        raise UsageError(f"tau_lp must be within (0, 1], got {tau_lp}")
    if m_cap is None:
        m_cap = len(net.edges)
    if m_cap < 0:
        raise UsageError(f"m_cap must be >= 0, got {m_cap}")
    enriched = SemanticNetwork(net.doc_id, dict(net.nodes), list(net.edges))
    if m_cap == 0 or not net.nodes:
        return enriched
    cuis = [c for c in sorted(net.nodes) if c in model.entity_vectors]
    relations = sorted(model.relation_vectors)
    if not cuis or not relations:
        return enriched
    existing = net.edge_keys()
    # One (head, tail, relation) block of distances, computed in slices of
    # heads that hold about a million numbers at most. A distance-side bound
    # with room for the rounding of exp and log keeps every candidate that
    # can pass; the exact plausibility test is then applied to those alone.
    vectors = np.array([model.entity_vectors[c] for c in cuis])
    relation_vectors = np.array([model.relation_vectors[r] for r in relations])
    step = max(1, (1 << 20) // max(1, len(cuis) * relation_vectors.size))
    dist = np.concatenate([
        distances(vectors[i : i + step, None, None] + relation_vectors[None, None] - vectors[None, :, None], model.config.distance)
        for i in range(0, len(cuis), step)
    ])
    near = np.nonzero(dist <= -math.log(tau_lp) + 1e-9)
    candidates: list[tuple[float, tuple[str, str, str]]] = []
    for h, t, r, d in zip(*(axis.tolist() for axis in near), dist[near].tolist()):
        key = (cuis[h], cuis[t], relations[r])
        if h == t or key in existing:
            continue
        score = math.exp(-d)
        if score >= tau_lp:
            candidates.append((score, key))
    candidates.sort(key=lambda c: (-c[0], c[1]))
    for score, (head, tail, relation) in candidates[:m_cap]:
        enriched.edges.append(Edge(head, tail, relation, score, PROV_PREDICTED))
    return enriched


def fuse_confidence(c_ext: float, c_lp: float) -> float:
    """Noisy-OR combination: never below either input confidence."""
    if not 0.0 < c_ext <= 1.0:
        raise UsageError(f"extraction confidence {c_ext} outside (0, 1]")
    if not 0.0 <= c_lp <= 1.0:
        raise UsageError(f"link-prediction confidence {c_lp} outside [0, 1]")
    return 1.0 - (1.0 - c_ext) * (1.0 - c_lp)


def fuse_network(net: SemanticNetwork, model: EmbeddingModel) -> SemanticNetwork:
    """Strengthen every extracted edge the model can score; provenance becomes fused."""
    fused = SemanticNetwork(net.doc_id, dict(net.nodes), [])
    for edge in net.edges:
        if edge.provenance == PROV_EXTRACTED and model.knows(edge.head, edge.relation, edge.tail):
            c_lp = plausibility(model, edge.head, edge.relation, edge.tail)
            edge = Edge(edge.head, edge.tail, edge.relation, fuse_confidence(edge.confidence, c_lp), PROV_FUSED)
        fused.edges.append(edge)
    return fused


def edge_to_dict(edge: Edge) -> dict:
    return {
        "head": edge.head,
        "tail": edge.tail,
        "rel": edge.relation,
        "conf": edge.confidence,
        "prov": edge.provenance,
    }


def edge_from_dict(data: dict) -> Edge:
    return Edge(data["head"], data["tail"], data["rel"], data["conf"], data["prov"])


def network_to_dict(net: SemanticNetwork) -> dict:
    return {
        "doc_id": net.doc_id,
        "nodes": [
            {
                "cui": node.cui,
                "name": node.name,
                "spans": [[s, e] for s, e in node.mention_spans],
                "weight": node.weight,
            }
            for node in (net.nodes[c] for c in sorted(net.nodes))
        ],
        "edges": [edge_to_dict(e) for e in net.edges],
    }


def network_from_dict(data: dict) -> SemanticNetwork:
    net = SemanticNetwork(data["doc_id"])
    for row in data["nodes"]:
        spans = [(s, e) for s, e in row["spans"]]
        if row["weight"] != len(spans):
            raise ValidationError(
                f"node {row['cui']} in document {data['doc_id']}: weight {row['weight']} != {len(spans)} spans"
            )
        net.nodes[row["cui"]] = Node(row["cui"], row["name"], spans)
    for row in data["edges"]:
        edge = edge_from_dict(row)
        for endpoint in (edge.head, edge.tail):
            if endpoint not in net.nodes:
                raise ConsistencyError(f"edge endpoint {endpoint} has no node in document {data['doc_id']}")
        net.edges.append(edge)
    return net


def networks_jsonl(networks: list[SemanticNetwork]) -> str:
    return jsonl(map(network_to_dict, networks))


def write_networks(networks: list[SemanticNetwork], path: str | Path) -> None:
    Path(path).write_text(networks_jsonl(networks), encoding="utf-8")


def read_networks(path: str | Path) -> list[SemanticNetwork]:
    return read_jsonl(path, network_from_dict, "a network")
