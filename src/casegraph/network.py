"""Per-document semantic networks: construction, enrichment, confidence fusion.

A network is a directed graph of concept nodes (weighted by mention count)
and typed edges with a confidence in (0, 1] and a provenance tag:
``extracted`` (from text), ``predicted`` (link prediction), or ``fused``
(extracted confidence strengthened by link prediction).

Networks are built on columns: ``NetworkRows`` appends each document's
nodes (cui ids, span runs) and edges (endpoint positions, relation ids,
provenances, confidences) to corpus-wide lists, enriches a row as it is
added and fuses all rows at once; ``NetworkColumns`` is the same rows as
arrays, the form an index holds. ``SemanticNetwork`` is the decoded view of
one row, which the network files, the ``build-graphs`` and ``enrich``
commands and the oracles use; ``build_network``, ``enrich_network`` and
``fuse_network`` run the row code on one network and decode the result.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .config import check
from .errors import ConsistencyError, FormatError, ParseError, UsageError, ValidationError
from .kb import Lexicon, check_pointer, first_true, jsonl, pack, read_doc_records, unpack
from .linking import Mention, Mentions
from .transe import EmbeddingModel, distances

log = logging.getLogger(__name__)

PROV_EXTRACTED = "extracted"
PROV_PREDICTED = "predicted"
PROV_FUSED = "fused"
_PROVENANCES = (PROV_EXTRACTED, PROV_PREDICTED, PROV_FUSED)
_PROVENANCE_IDS = {provenance: i for i, provenance in enumerate(_PROVENANCES)}
_EXTRACTED, _PREDICTED, _FUSED = range(len(_PROVENANCES))


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
        # check_columns applies these rules to every stored edge of an index at
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


def _check_endpoints(doc_id: str, nodes: Container[str], edges: Sequence[Edge]) -> None:
    """ConsistencyError naming the first edge endpoint, in edge order, that is not among ``nodes``."""
    for edge in edges:
        for endpoint in (edge.head, edge.tail):
            if endpoint not in nodes:
                raise ConsistencyError(f"edge endpoint {endpoint} has no node in document {doc_id}")


class NetworkRows:
    """Networks being built, column-wise: the rows of ``NetworkColumns`` as lists that grow row by row.

    The fields are those of ``NetworkColumns`` but for two differences: the
    ``cuis`` and ``relations`` tables hold their strings in the order they
    were first met, and there are no node labels. ``relations`` opens with
    the model's relations, sorted, so that their ids are their positions in
    the enrichment block. ``add`` appends a document's row, ``enrich``
    enriches the last row, ``fuse`` fuses every row at once and ``columns``
    gives the rows as ``NetworkColumns``, both tables sorted.
    """

    def __init__(self, model: EmbeddingModel | None = None):
        self.model = model
        self.cuis: list[str] = []
        self.relations: list[str] = sorted(model.relation_vectors) if model is not None else []
        self._cui_ids: dict[str, int] = {}
        self._relation_ids = {relation: i for i, relation in enumerate(self.relations)}
        # The model's relation vectors, one row per id.
        self.relation_vectors = np.array([model.relation_vectors[r] for r in self.relations]) if model is not None else None
        self.node_ptr, self.node_cuis, self.span_ptr, self.spans = [0], [], [0], []
        self.edge_ptr, self.heads, self.tails, self.edge_relations = [0], [], [], []
        self.provenances: list[int] = []
        self.confidences: list[float] = []

    @classmethod
    def of(cls, net: SemanticNetwork | NetworkRows, model: EmbeddingModel | None = None) -> NetworkRows:
        """``net`` as a row, its edges in their order; rows are returned as they are."""
        if isinstance(net, NetworkRows):
            return net
        rows = cls(model)
        rows.add_network(net)
        return rows

    def add_network(self, net: SemanticNetwork) -> None:
        """Append ``net`` as a row, its edges in their order; an edge endpoint without a node is a ``ConsistencyError``."""
        _check_endpoints(net.doc_id, net.nodes, net.edges)
        cuis = sorted(net.nodes)
        self._append(cuis, [chain.from_iterable(net.nodes[cui].mention_spans) for cui in cuis], net.edges)

    def _append(self, cuis: list[str], runs: Iterable, edges: Sequence[Edge]) -> None:
        """Append a row: the nodes ``cuis``, ascending, with their flat span bounds ``runs``, and ``edges`` between them in their order."""
        position = {cui: i for i, cui in enumerate(cuis)}
        for cui, run in zip(cuis, runs):
            cui_id = self._cui_ids.get(cui)
            if cui_id is None:
                cui_id = self._cui_ids[cui] = len(self.cuis)
                self.cuis.append(cui)
            self.node_cuis.append(cui_id)
            self.spans.extend(run)
            self.span_ptr.append(len(self.spans))
        self.node_ptr.append(len(self.node_cuis))
        for edge in edges:
            relation_id = self._relation_ids.get(edge.relation)
            if relation_id is None:
                relation_id = self._relation_ids[edge.relation] = len(self.relations)
                self.relations.append(edge.relation)
            self.heads.append(position[edge.head])
            self.tails.append(position[edge.tail])
            self.edge_relations.append(relation_id)
            self.provenances.append(_PROVENANCE_IDS[edge.provenance])
            self.confidences.append(edge.confidence)
        self.edge_ptr.append(len(self.heads))

    def add(self, doc_id: str, mentions: Sequence[Mention], edges: Sequence[Edge]) -> None:
        """Append the network of a document's mentions and edges as its row.

        One node per distinct primary cui, with the spans of its mentions in
        their order; duplicate (head, tail, relation) edges keep the maximum
        confidence, and the edges are in key order. An edge endpoint without
        a node is a ``ConsistencyError``.
        """
        mentions = Mentions.of(mentions)
        runs: dict[str, list[int]] = {}
        for cui, start, end in zip(mentions.primaries, mentions.starts, mentions.ends):
            run = runs.get(cui)
            if run is None:
                run = runs[cui] = []
            run += (start, end)
        _check_endpoints(doc_id, runs, edges)
        best: dict[tuple[str, str, str], Edge] = {}
        for edge in edges:
            kept = best.get(edge.key())
            if kept is None or edge.confidence > kept.confidence:
                best[edge.key()] = edge
        cuis = sorted(runs)
        self._append(cuis, map(runs.__getitem__, cuis), [best[key] for key in sorted(best)])
        if not cuis:
            log.debug("document %s produced an empty network", doc_id)

    def enrich(self, tau_lp: float, m_cap: int | None = None) -> None:
        """Append the most plausible absent edges between the last row's nodes, as ``enrich_network`` describes."""
        check("tau_lp", tau_lp)
        first, edges = self.node_ptr[-2], self.edge_ptr[-2]
        if check("m_cap", m_cap) is None:
            m_cap = len(self.heads) - edges
        entity = self.model.entity_vectors
        vectors = [entity.get(self.cuis[cui]) for cui in self.node_cuis[first:]]
        known = [node for node, vector in enumerate(vectors) if vector is not None]  # nodes in cui order
        if m_cap == 0 or not known or not self.model.relation_vectors:
            return
        relation_vectors = self.relation_vectors
        relations = len(relation_vectors)
        heads = np.array([vectors[node] for node in known])
        # One (head, tail, relation) block of distances, computed in slices of
        # heads that hold about a million numbers at most; self-pairs and existing
        # edges are no candidates.
        step = max(1, (1 << 20) // max(1, len(known) * relation_vectors.size))
        dist = np.concatenate([
            distances(heads[i : i + step, None, None] + relation_vectors[None, None] - heads[None, :, None], self.model.config.distance)
            for i in range(0, len(known), step)
        ])
        diagonal = np.arange(len(known))
        dist[diagonal, diagonal] = np.inf
        at = [-1] * len(vectors)  # each node's position in the block, -1 without a vector
        for i, node in enumerate(known):
            at[node] = i
        for head, tail, relation in zip(self.heads[edges:], self.tails[edges:], self.edge_relations[edges:]):
            if at[head] >= 0 and at[tail] >= 0 and relation < relations:
                dist[at[head], at[tail], relation] = np.inf
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
        width = len(known) * relations
        for negated, i in candidates[:m_cap]:
            head, rest = divmod(i, width)
            tail, relation = divmod(rest, relations)
            self.heads.append(known[head])
            self.tails.append(known[tail])
            self.edge_relations.append(relation)
            self.provenances.append(_PREDICTED)
            self.confidences.append(-negated)
        self.edge_ptr[-1] = len(self.heads)

    def fuse(self) -> None:
        """Strengthen every extracted edge of every row that the model can score, as ``fuse_network`` describes.

        All the edges' distances come from one ``distances`` call, row for
        row the bits of ``plausibility`` on each edge.
        """
        model = self.model
        vectors = [model.entity_vectors.get(cui) for cui in self.cuis]
        if not self.heads or not any(vector is not None for vector in vectors):
            return
        edge_rows = np.repeat(np.arange(len(self.edge_ptr) - 1), np.diff(self.edge_ptr))
        offsets = np.array(self.node_ptr)[edge_rows]
        node_cuis = np.array(self.node_cuis, np.int64)
        heads, tails = node_cuis[offsets + self.heads], node_cuis[offsets + self.tails]
        relations = np.array(self.edge_relations)
        known = np.array([vector is not None for vector in vectors])
        scorable = np.flatnonzero(
            (np.array(self.provenances) == _EXTRACTED) & (relations < len(model.relation_vectors)) & known[heads] & known[tails]
        )
        if not len(scorable):
            return
        zero = np.zeros(model.config.dim)
        entity = np.array([zero if vector is None else vector for vector in vectors])
        # heads, relations and tails, each C-contiguous
        relation = self.relation_vectors[relations[scorable]]
        dist = distances(entity[heads[scorable]] + relation - entity[tails[scorable]], model.config.distance)
        confidences, provenances = self.confidences, self.provenances
        for e, d in zip(scorable.tolist(), dist.tolist()):
            confidences[e] = fuse_confidence(confidences[e], math.exp(-d))
            provenances[e] = _FUSED

    def columns(self) -> NetworkColumns:
        """The rows as ``NetworkColumns``, with sorted tables of the cuis and relations they use and no node labels."""
        cuis = sorted(range(len(self.cuis)), key=self.cuis.__getitem__)
        relations = sorted(set(self.edge_relations), key=self.relations.__getitem__)
        cui_ids = np.zeros(len(self.cuis), np.int64)
        cui_ids[cuis] = np.arange(len(cuis))
        relation_ids = np.zeros(len(self.relations), np.int64)
        relation_ids[relations] = np.arange(len(relations))
        return NetworkColumns(
            [self.cuis[i] for i in cuis],
            [self.relations[i] for i in relations],
            np.array(self.node_ptr, np.int64),
            cui_ids[np.array(self.node_cuis, np.int64)],
            np.array(self.span_ptr, np.int64),
            np.array(self.spans, np.int64),
            np.array(self.edge_ptr, np.int64),
            np.array(self.heads, np.int64),
            np.array(self.tails, np.int64),
            relation_ids[np.array(self.edge_relations, np.int64)],
            np.array(self.provenances, np.int64),
            np.array(self.confidences, np.float64),
            np.zeros(0, np.int64),
        )


def build_network(doc_id: str, mentions: Sequence[Mention], edges: list[Edge], lexicon: Lexicon) -> SemanticNetwork:
    """Aggregate mentions into weighted nodes and attach deduplicated edges (``NetworkRows.add``)."""
    rows = NetworkRows()
    rows.add(doc_id, mentions, edges)
    return network_from_columns(doc_id, rows, 0, lexicon)


def enrich_network(
    net: SemanticNetwork, model: EmbeddingModel, tau_lp: float, m_cap: int | None = None
) -> SemanticNetwork:
    """Add the most plausible absent edges between existing nodes (``NetworkRows.enrich``).

    Every ordered node pair and model relation without an existing
    (head, tail, relation) edge is scored by translation plausibility;
    candidates at or above ``tau_lp`` are ranked (plausibility descending,
    then lexicographic key) and the top ``m_cap`` are appended with
    provenance ``predicted``; ``m_cap`` None caps at the number of existing
    edges. Nodes, existing edges, and their order are untouched; pairs the
    model cannot score are skipped.
    """
    rows = NetworkRows.of(net, model)
    rows.enrich(tau_lp, m_cap)
    return SemanticNetwork(net.doc_id, dict(net.nodes), net.edges + _edges(rows, sorted(net.nodes), slice(len(net.edges), None)))


def fuse_confidence(c_ext: float, c_lp: float) -> float:
    """Noisy-OR combination: never below either input confidence."""
    if not 0.0 < c_ext <= 1.0:
        raise UsageError(f"extraction confidence {c_ext} outside (0, 1]")
    if not 0.0 <= c_lp <= 1.0:
        raise UsageError(f"link-prediction confidence {c_lp} outside [0, 1]")
    return 1.0 - (1.0 - c_ext) * (1.0 - c_lp)


def fuse_network(net: SemanticNetwork, model: EmbeddingModel) -> SemanticNetwork:
    """Strengthen every extracted edge the model can score; provenance becomes fused (``NetworkRows.fuse``)."""
    rows = NetworkRows.of(net, model)
    rows.fuse()
    edges = [
        edge if provenance == _PROVENANCE_IDS[edge.provenance] else Edge(edge.head, edge.tail, edge.relation, confidence, PROV_FUSED)
        for edge, provenance, confidence in zip(net.edges, rows.provenances, rows.confidences)
    ]
    return SemanticNetwork(net.doc_id, dict(net.nodes), edges)


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
        where = f"node {row['cui']} in document {data['doc_id']}"
        if row["cui"] in net.nodes:
            raise ValidationError(f"{where} is stored twice")
        if not spans:
            raise ValidationError(f"{where} has no mention spans")
        if row["weight"] != len(spans):
            raise ValidationError(f"{where}: weight {row['weight']} != {len(spans)} spans")
        net.nodes[row["cui"]] = Node(row["cui"], row["name"], spans)
    for row in data["edges"]:
        edge = edge_from_dict(row)
        _check_endpoints(net.doc_id, net.nodes, [edge])
        net.edges.append(edge)
    return net


@dataclass(frozen=True)
class NetworkColumns:
    """The networks of an index, column-wise: the network of document ``i`` is row ``i``.

    Row ``i`` has the nodes ``node_ptr[i]:node_ptr[i + 1]`` in cui order: node
    ``n`` is the concept ``cuis[node_cuis[n]]``, with the mention spans
    ``spans[span_ptr[n]:span_ptr[n + 1]]`` as flat ``start, end`` bounds. It
    has the edges ``edge_ptr[i]:edge_ptr[i + 1]`` in network order: edge ``e``
    runs from the row's node at position ``heads[e]`` to the one at
    ``tails[e]``, by ``relations[edge_relations[e]]``, with ``confidences[e]``
    and the provenance ``_PROVENANCES[provenances[e]]``. ``cuis`` and
    ``relations`` are sorted and distinct. Node names and weights are not
    kept: a name comes from the lexicon (``node_name``) and a weight is the
    number of spans. ``node_labels`` holds each node's kernel labels at
    iterations 0..h, node after node (``similarity.compressor_from_columns``
    checks them).
    """

    cuis: list[str]
    relations: list[str]
    node_ptr: np.ndarray
    node_cuis: np.ndarray
    span_ptr: np.ndarray
    spans: np.ndarray
    edge_ptr: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    edge_relations: np.ndarray
    provenances: np.ndarray
    confidences: np.ndarray
    node_labels: np.ndarray


_TABLES = ("cuis", "relations")  # the string fields of NetworkColumns; the others are numeric columns


def _kind(name: str) -> str:
    """How a numeric column of ``NetworkColumns`` is stored (see ``kb.pack``)."""
    return "float64" if name == "confidences" else "int32"


def columns_to_dict(columns: NetworkColumns) -> dict:
    """The stored form of ``columns``: the tables as JSON lists and every numeric column packed."""
    return {name: list(value) if name in _TABLES else pack(value, _kind(name)) for name, value in vars(columns).items()}


def columns_from_dict(data: dict) -> NetworkColumns:
    """``NetworkColumns`` of their stored form, unchecked but for each column being whole base64."""
    return NetworkColumns(**{
        name: data[name] if name in _TABLES else unpack(data[name], f"network {name}", _kind(name))
        for name in NetworkColumns.__dataclass_fields__
    })


def network_columns(nets: list[SemanticNetwork], node_labels: Sequence[int]) -> NetworkColumns:
    """The columns of ``nets``, one row per network in the given order, with ``node_labels`` as they are."""
    rows = NetworkRows()
    for net in nets:
        rows.add_network(net)
    return replace(rows.columns(), node_labels=np.array(node_labels, np.int64))


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


def check_columns(doc_ids: list[str], columns: NetworkColumns) -> None:
    """Raise FormatError unless ``network_from_columns`` decodes every row into a valid network.

    Node cuis ascend strictly within a document and each has a non-empty,
    even-length run of span bounds; every edge joins two distinct nodes of its
    document by a known relation, with a confidence in (0, 1] and a known
    provenance. The checks run over all rows at once.
    """
    c = columns
    for table, untyped, name in (
        (c.cuis, "network node cuis must be strings", "cui"),
        (c.relations, "network edges need string relations", "relation"),
    ):
        if type(table) is not list or not set(map(type, table)) <= {str}:
            raise FormatError(untyped)
        if table != sorted(set(table)):
            raise FormatError(f"the network {name} table must ascend strictly")
    check_pointer(c.node_ptr, len(doc_ids), len(c.node_cuis), "networks", "documents")
    check_pointer(c.span_ptr, len(c.node_cuis), len(c.spans), "network spans", "nodes")
    check_pointer(c.edge_ptr, len(doc_ids), len(c.heads), "networks", "documents")
    edge_columns = (c.tails, c.edge_relations, c.provenances, c.confidences)
    if set(map(len, edge_columns)) - {len(c.heads)}:
        raise FormatError("network edge columns must have one item per edge")
    node_rows = np.repeat(np.arange(len(doc_ids)), np.diff(c.node_ptr))
    edge_rows = np.repeat(np.arange(len(doc_ids)), np.diff(c.edge_ptr))
    for ids, size, what, rows in (
        (c.node_cuis, len(c.cuis), "node cui", node_rows),
        (c.edge_relations, len(c.relations), "edge relation", edge_rows),
        (c.provenances, len(_PROVENANCES), "edge provenance", edge_rows),
    ):
        i = first_true((ids < 0) | (ids >= size))
        if i >= 0:
            raise FormatError(f"document {doc_ids[rows[i]]}: {what} id {ids[i]} outside [0, {size})")
    row = first_unordered_row(np.diff(c.node_cuis) > 0, c.node_ptr)
    if row >= 0:
        raise FormatError(f"document {doc_ids[row]}: node cuis must ascend strictly")
    sizes = np.diff(c.span_ptr)
    i = first_true((sizes == 0) | (sizes % 2 == 1))
    if i >= 0:
        raise FormatError(f"document {doc_ids[node_rows[i]]}: node {c.cuis[c.node_cuis[i]]} needs a non-empty, even-length span list")
    nodes = np.diff(c.node_ptr)[edge_rows]  # each edge's number of nodes in its document
    for positions in (c.heads, c.tails):
        i = first_true((positions < 0) | (positions >= nodes))
        if i >= 0:
            raise FormatError(f"document {doc_ids[edge_rows[i]]}: edge endpoint {positions[i]} has no node among its {nodes[i]}")
    i = first_true(c.heads == c.tails)
    if i >= 0:
        cui = c.cuis[c.node_cuis[c.node_ptr[edge_rows[i]] + c.heads[i]]]
        raise FormatError(f"document {doc_ids[edge_rows[i]]}: self-loop edge on {cui}")
    i = first_true(~_valid_confidence(c.confidences))
    if i >= 0:
        raise FormatError(f"document {doc_ids[edge_rows[i]]}: edge confidence {c.confidences[i]} outside (0, 1]")


def _edges(c: NetworkColumns | NetworkRows, cuis: list[str], edges: slice) -> list[Edge]:
    """The edges ``edges`` of ``c``, whose row has the node cuis ``cuis``."""
    columns = (c.heads, c.tails, c.edge_relations, c.confidences, c.provenances)
    return [
        Edge(cuis[head], cuis[tail], c.relations[relation], confidence, _PROVENANCES[provenance])
        for head, tail, relation, confidence, provenance in zip(*(np.asarray(column[edges]).tolist() for column in columns))
    ]


def network_from_columns(doc_id: str, columns: NetworkColumns | NetworkRows, row: int, lexicon: Lexicon) -> SemanticNetwork:
    """Decode row ``row`` of ``NetworkRows`` or of columns that ``check_columns`` accepted."""
    c = columns
    first, last = np.asarray(c.node_ptr[row : row + 2]).tolist()
    cuis = [c.cuis[i] for i in np.asarray(c.node_cuis[first:last]).tolist()]
    ends = np.asarray(c.span_ptr[first : last + 1]).tolist()
    bounds = np.asarray(c.spans[ends[0] : ends[-1]]).tolist()
    net = SemanticNetwork(doc_id)
    for cui, start, end in zip(cuis, ends, ends[1:]):
        run = bounds[start - ends[0] : end - ends[0]]
        net.nodes[cui] = Node(cui, node_name(cui, lexicon), list(zip(run[::2], run[1::2])))
    net.edges = _edges(c, cuis, slice(*np.asarray(c.edge_ptr[row : row + 2]).tolist()))
    return net


def networks_jsonl(networks: list[SemanticNetwork]) -> str:
    return jsonl(map(network_to_dict, networks))


def write_networks(networks: list[SemanticNetwork], path: str | Path) -> None:
    Path(path).write_text(networks_jsonl(networks), encoding="utf-8")


def read_networks(path: str | Path) -> list[SemanticNetwork]:
    """The networks of a network file, in file order; a repeated doc id is a ValidationError."""

    def decode(obj) -> tuple[str, SemanticNetwork]:
        net = network_from_dict(obj)
        return net.doc_id, net

    return list(read_doc_records(path, decode, "a network").values())
