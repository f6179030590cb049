"""Per-document semantic networks: construction, enrichment, confidence fusion.

A network is a directed graph of concept nodes (weighted by mention count)
and typed edges with a confidence in (0, 1] and a provenance tag:
``extracted`` (from text), ``predicted`` (link prediction), or ``fused``
(extracted confidence strengthened by link prediction).
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import ConsistencyError, FormatError, ParseError, UsageError, ValidationError
from .kb import Lexicon, jsonl, read_jsonl
from .linking import Mention
from .transe import EmbeddingModel, distances

log = logging.getLogger(__name__)

PROV_EXTRACTED = "extracted"
PROV_PREDICTED = "predicted"
PROV_FUSED = "fused"
_PROVENANCES = (PROV_EXTRACTED, PROV_PREDICTED, PROV_FUSED)


def _valid_confidence(confidence):
    """Whether an edge confidence, a float or an array of them, lies in (0, 1]; NaN does not."""
    return (confidence > 0.0) & (confidence <= 1.0)


@dataclass(frozen=True)
class Edge:
    head: str
    tail: str
    relation: str
    confidence: float
    provenance: str

    def __post_init__(self) -> None:
        # record_nodes applies these rules to every stored edge of an index at
        # once; a rule changed here must change there too.
        if self.head == self.tail:
            raise ValidationError(f"self-loop edge on {self.head}")
        if not _valid_confidence(self.confidence):
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


def node_name(cui: str, lexicon: Lexicon) -> str:
    """The name of a concept's node: its preferred name, or the cui if the lexicon lacks it."""
    concept = lexicon.concepts.get(cui)
    return concept.preferred_name if concept else cui


def build_network(doc_id: str, mentions: list[Mention], edges: list[Edge], lexicon: Lexicon) -> SemanticNetwork:
    """Aggregate mentions into weighted nodes and attach deduplicated edges.

    One node per distinct primary cui; duplicate (head, tail, relation) edges
    keep the maximum confidence. An edge endpoint without a node is an error.
    """
    net = SemanticNetwork(doc_id)
    for mention in mentions:
        node = net.nodes.get(mention.primary_cui)
        if node is None:
            node = Node(mention.primary_cui, node_name(mention.primary_cui, lexicon), [])
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
    # One (head, tail, relation) block of distances, computed in slices of
    # heads that hold about a million numbers at most; self-pairs and existing
    # edges are no candidates.
    vectors = np.array([model.entity_vectors[c] for c in cuis])
    relation_vectors = np.array([model.relation_vectors[r] for r in relations])
    step = max(1, (1 << 20) // max(1, len(cuis) * relation_vectors.size))
    dist = np.concatenate([
        distances(vectors[i : i + step, None, None] + relation_vectors[None, None] - vectors[None, :, None], model.config.distance)
        for i in range(0, len(cuis), step)
    ])
    diagonal = np.arange(len(cuis))
    dist[diagonal, diagonal] = np.inf
    position = {cui: i for i, cui in enumerate(cuis)}
    relation_position = {r: i for i, r in enumerate(relations)}
    for edge in net.edges:
        if edge.head in position and edge.tail in position and edge.relation in relation_position:
            dist[position[edge.head], position[edge.tail], relation_position[edge.relation]] = np.inf
    # exp is monotone, so no candidate beyond the m_cap-th smallest distance
    # can outrank those up to it, and none beyond the tau_lp bound can pass.
    # Both cuts leave 1e-9 of room for the rounding of exp and log; the
    # exact plausibility test and ranking then run on the survivors alone.
    flat = dist.ravel()
    near = np.flatnonzero(flat <= -math.log(tau_lp) + 1e-9)
    near_dist = flat[near]
    if m_cap < len(near):
        kept = near_dist <= np.partition(near_dist, m_cap - 1)[m_cap - 1] + 1e-9
        near, near_dist = near[kept], near_dist[kept]
    candidates = []
    for i, d in zip(near.tolist(), near_dist.tolist()):
        score = math.exp(-d)
        if score >= tau_lp:
            candidates.append((-score, i))  # C order of (head, tail, relation) is the key order
    candidates.sort()
    width = len(cuis) * len(relations)
    for negated, i in candidates[:m_cap]:
        head, rest = divmod(i, width)
        tail, relation = divmod(rest, len(relations))
        enriched.edges.append(Edge(cuis[head], cuis[tail], relations[relation], -negated, PROV_PREDICTED))
    return enriched


def fuse_confidence(c_ext: float, c_lp: float) -> float:
    """Noisy-OR combination: never below either input confidence."""
    if not 0.0 < c_ext <= 1.0:
        raise UsageError(f"extraction confidence {c_ext} outside (0, 1]")
    if not 0.0 <= c_lp <= 1.0:
        raise UsageError(f"link-prediction confidence {c_lp} outside [0, 1]")
    return 1.0 - (1.0 - c_ext) * (1.0 - c_lp)


def fuse_network(net: SemanticNetwork, model: EmbeddingModel) -> SemanticNetwork:
    """Strengthen every extracted edge the model can score; provenance becomes fused.

    The edges' distances come from one ``distances`` call, row for row the
    bits of ``plausibility`` on each edge.
    """
    fused = SemanticNetwork(net.doc_id, dict(net.nodes), list(net.edges))
    scorable = [
        i for i, e in enumerate(net.edges) if e.provenance == PROV_EXTRACTED and model.knows(e.head, e.relation, e.tail)
    ]
    if not scorable:
        return fused
    edges = [net.edges[i] for i in scorable]
    entity, relation = model.entity_vectors, model.relation_vectors
    vectors = np.array(
        [entity[e.head] for e in edges] + [relation[e.relation] for e in edges] + [entity[e.tail] for e in edges]
    ).reshape(3, len(edges), -1)  # heads, relations and tails, each C-contiguous
    dist = distances(vectors[0] + vectors[1] - vectors[2], model.config.distance)
    for i, edge, d in zip(scorable, edges, dist.tolist()):
        fused.edges[i] = Edge(edge.head, edge.tail, edge.relation, fuse_confidence(edge.confidence, math.exp(-d)), PROV_FUSED)
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
    """The edge of an edge record; ParseError unless its fields have their JSON types."""
    head, tail, relation, confidence, provenance = data["head"], data["tail"], data["rel"], data["conf"], data["prov"]
    if not {type(head), type(tail), type(relation), type(provenance)} <= {str}:
        raise ParseError("edge head, tail, rel and prov must be strings")
    if type(confidence) not in (int, float):
        raise ParseError(f"edge conf must be a JSON number, got {confidence!r}")
    return Edge(head, tail, relation, confidence, provenance)


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


def _span_pairs(spans) -> bool:
    """Whether ``spans`` is a list of ``[start, end]`` integer pairs."""
    return type(spans) is list and all(type(span) is list and len(span) == 2 and set(map(type, span)) <= {int} for span in spans)


def network_from_dict(data: dict) -> SemanticNetwork:
    """The network of a network record; ParseError unless its fields have their JSON types."""
    if type(data["doc_id"]) is not str or type(data["nodes"]) is not list or type(data["edges"]) is not list:
        raise ParseError("a network needs a string doc_id and lists of nodes and edges")
    net = SemanticNetwork(data["doc_id"])
    for row in data["nodes"]:
        if type(row["cui"]) is not str or type(row["name"]) is not str:
            raise ParseError("network node cui and name must be strings")
        if not _span_pairs(row["spans"]) or type(row["weight"]) is not int:
            raise ParseError(f"node {row['cui']}: spans must be [start, end] integer pairs and weight an integer")
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


def network_to_record(net: SemanticNetwork) -> list:
    """The compact record of a network that an index stores: ``[nodes, edges]``.

    Nodes are ``[cui, [s0, e0, s1, e1, ...]]`` in cui order and edges
    ``[head, tail, rel, conf, prov]`` in network order. The doc id, node
    names and weights are left out: the index keeps records aligned with its
    doc ids, a name comes from the lexicon (``node_name``) and a weight is
    the number of spans.
    """
    return [
        [[cui, [bound for span in net.nodes[cui].mention_spans for bound in span]] for cui in sorted(net.nodes)],
        [[e.head, e.tail, e.relation, e.confidence, e.provenance] for e in net.edges],
    ]


def first_unordered_row(ascending: np.ndarray, ptr: np.ndarray) -> int:
    """The first row of a CSR layout whose items do not ascend strictly, or -1.

    Row ``r`` holds items ``ptr[r]:ptr[r + 1]``; ``ascending[i]`` says whether
    item ``i + 1`` is above item ``i``. Pairs across rows are ignored (and set
    in ``ascending``).
    """
    starts = ptr[1:-1]
    ascending[starts[(starts > 0) & (starts <= len(ascending))] - 1] = True
    unordered = np.flatnonzero(~ascending)
    return int(np.searchsorted(ptr, unordered[0], "right")) - 1 if len(unordered) else -1


def _columns(rows: list, width: int, what: str) -> list[tuple]:
    """The columns of ``rows``, each of which must be a list of ``width`` items."""
    if not set(map(type, rows)) <= {list} or not set(map(len, rows)) <= {width}:
        raise FormatError(f"every {what} must be a list of {width} items")
    return list(zip(*rows)) if rows else [()] * width


def record_nodes(doc_ids: list[str], records: list) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Check the network records of an index in full; their nodes as ``(ptr, cuis, weights)``.

    Document ``i`` has the nodes ``cuis[ptr[i]:ptr[i + 1]]``, in cui order,
    with their weights. Raises FormatError unless ``network_from_record`` can
    decode every record into a valid network: node cuis are strings that
    ascend strictly within a document, each with a non-empty, even-length
    list of integer span bounds, and every edge joins two distinct nodes of
    its document with a string relation, a float confidence in (0, 1] and a
    known provenance. The checks run over all records at once.
    """
    nodes, edges = _columns(records, 2, "network record")
    if not set(map(type, nodes)) | set(map(type, edges)) <= {list}:
        raise FormatError("the nodes and edges of a network record must be lists")
    node_ptr = np.cumsum([0, *map(len, nodes)])
    cuis, spans = _columns(list(chain.from_iterable(nodes)), 2, "network node")
    heads, tails, relations, confidences, provenances = _columns(list(chain.from_iterable(edges)), 5, "network edge")
    if not set(map(type, cuis)) <= {str}:
        raise FormatError("network node cuis must be strings")
    row = first_unordered_row(np.fromiter(map(operator.lt, cuis, cuis[1:]), bool, max(len(cuis) - 1, 0)), node_ptr)
    if row >= 0:
        raise FormatError(f"document {doc_ids[row]}: node cuis must ascend strictly")
    if not set(map(type, spans)) <= {list} or not set(map(type, chain.from_iterable(spans))) <= {int}:
        raise FormatError("network node spans must be lists of integers")
    sizes = np.fromiter(map(len, spans), np.int64, len(spans))
    uneven = np.flatnonzero((sizes == 0) | (sizes % 2 == 1))
    if len(uneven):
        row = int(np.searchsorted(node_ptr, uneven[0], "right")) - 1
        raise FormatError(f"document {doc_ids[row]}: node {cuis[uneven[0]]} needs a non-empty, even-length span list")
    edge_ptr = np.cumsum([0, *map(len, edges)]).tolist()
    for row, (start, end) in enumerate(zip(node_ptr.tolist(), node_ptr[1:].tolist())):
        names = set(cuis[start:end])
        for endpoints in (heads, tails):
            if not names.issuperset(endpoints[edge_ptr[row] : edge_ptr[row + 1]]):
                missing = sorted(set(endpoints[edge_ptr[row] : edge_ptr[row + 1]]) - names, key=repr)[0]
                raise FormatError(f"document {doc_ids[row]}: edge endpoint {missing} has no node")
    edge_rows = np.repeat(np.arange(len(records)), np.diff(edge_ptr))
    loops = np.flatnonzero(np.fromiter(map(operator.eq, heads, tails), bool, len(heads)))
    if len(loops):
        raise FormatError(f"document {doc_ids[edge_rows[loops[0]]]}: self-loop edge on {heads[loops[0]]}")
    if not set(map(type, relations)) <= {str} or not set(map(type, confidences)) <= {float}:
        raise FormatError("network edges need string relations and float confidences")
    confidence = np.array(confidences, float)
    outside = np.flatnonzero(~_valid_confidence(confidence))
    if len(outside):
        i = outside[0]
        raise FormatError(f"document {doc_ids[edge_rows[i]]}: edge confidence {confidences[i]} outside (0, 1]")
    unknown = set(provenances).difference(_PROVENANCES)
    if unknown:
        raise FormatError(f"unknown edge provenance {sorted(map(repr, unknown))[0]}")
    return node_ptr, list(cuis), sizes // 2


def network_from_record(doc_id: str, record: list, lexicon: Lexicon) -> SemanticNetwork:
    """Decode a record that ``record_nodes`` accepted."""
    nodes, edges = record
    net = SemanticNetwork(doc_id)
    for cui, spans in nodes:
        net.nodes[cui] = Node(cui, node_name(cui, lexicon), list(zip(spans[::2], spans[1::2])))
    net.edges = [Edge(*row) for row in edges]
    return net


def networks_jsonl(networks: list[SemanticNetwork]) -> str:
    return jsonl(map(network_to_dict, networks))


def write_networks(networks: list[SemanticNetwork], path: str | Path) -> None:
    Path(path).write_text(networks_jsonl(networks), encoding="utf-8")


def read_networks(path: str | Path) -> list[SemanticNetwork]:
    return read_jsonl(path, network_from_dict, "a network")
