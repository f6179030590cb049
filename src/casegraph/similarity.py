"""Graph similarity: subtree-pattern kernel plus latent document vectors.

The explicit component iteratively relabels each node with a compressed
signature of its own label and its relation-tagged neighborhood (edges
treated as undirected, relation tags kept). A network holds one node per
concept, so no label of any iteration recurs in it, and the kernel of two
networks is the number of labels they share over ``sqrt(|A| * |B|)``. The
latent component averages entity embeddings over nodes, weighted by mention
count. Both are combined convexly.

An index labels its whole corpus at once, built or loaded alike
(``wl_corpus_labels``): one sort per iteration orders every node's pairs,
and the keys of one degree at a time go through one dict, which becomes the
table of the index's ``LabelCompressor``. A query, or any single network, is
labelled node by node through that compressor (``wl_label_history``).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, count
from struct import pack

import numpy as np

from .config import check
from .errors import FormatError
from .network import NetworkColumns, NetworkRows, SemanticNetwork
from .transe import EmbeddingModel


class LabelCompressor:
    """Append-only injective mapping from signature keys to integer labels.

    A collection shares one compressor so identical signatures always get
    the same label. A node's iteration-0 key is its cui; its later keys are
    the bytes of the little-endian ``int32`` items ``[previous label,
    relation id, neighbor label, ...]``, the (relation id, neighbor label)
    pairs sorted. A ``str`` never equals ``bytes``, so the two kinds of key
    never meet. ``relations`` numbers the relations, and a relation it lacks
    gets the next id. ``overlay()`` returns a read-through child that can
    assign labels and relation ids for unseen signatures (e.g. a query
    graph) without mutating the shared parent.
    """

    def __init__(self, parent: "LabelCompressor | None" = None):
        self.table: dict[str | bytes, int] = {}
        self.parent = parent
        self.next_id = parent.next_id if parent is not None else 0
        self.relations: dict[str, int] = dict(parent.relations) if parent is not None else {}

    def _get(self, key: str | bytes) -> int | None:
        if self.parent is not None:
            found = self.parent._get(key)
            if found is not None:
                return found
        return self.table.get(key)

    def compress(self, key: str | bytes) -> int:
        found = self._get(key)
        if found is not None:
            return found
        label = self.next_id
        self.table[key] = label
        self.next_id += 1
        return label

    def relation_id(self, relation: str) -> int:
        found = self.relations.get(relation)
        if found is None:
            found = self.relations[relation] = len(self.relations)
        return found

    def overlay(self) -> "LabelCompressor":
        return LabelCompressor(parent=self)


def wl_label_history(net: SemanticNetwork | NetworkRows, h: int, comp: LabelCompressor) -> list[dict[str, int]]:
    """Per-iteration node label maps for iterations 0..h of a network or of a single row.

    Iteration 0 labels encode the node cuis; iteration i+1 relabels each node
    with its previous label plus the sorted multiset of (relation, neighbor
    label) pairs. Nodes are processed in sorted cui order, so label
    assignment is independent of insertion order.
    """
    check("h", h)
    rows = NetworkRows.of(net)
    cuis = [rows.cuis[cui] for cui in rows.node_cuis]
    # Undirected neighborhood with the relation tag kept; multi-edges count once each.
    neighbors: list[list[tuple[int, int]]] = [[] for _ in cuis]
    relation_id = comp.relation_id
    for head, tail, relation in zip(rows.heads, rows.tails, rows.edge_relations):
        relation = relation_id(rows.relations[relation])
        neighbors[head].append((relation, tail))
        neighbors[tail].append((relation, head))
    compress = comp.compress
    layouts = [f"<{1 + 2 * len(pairs)}i" for pairs in neighbors]  # each node's key: previous label, then its pairs
    labels = [compress(cui) for cui in cuis]
    history = [dict(zip(cuis, labels))]
    for _ in range(h):
        labels = [
            compress(pack(layout, label, *chain.from_iterable(sorted([(rel, labels[at]) for rel, at in pairs]))))
            for layout, label, pairs in zip(layouts, labels, neighbors)
        ]
        history.append(dict(zip(cuis, labels)))
    return history


def wl_features(net: SemanticNetwork | NetworkRows, h: int, comp: LabelCompressor) -> dict[int, int]:
    """Label counts accumulated over iterations 0..h of a network or of a single row."""
    return dict(Counter(chain.from_iterable(map(dict.values, wl_label_history(net, h, comp)))))


def wl_corpus_labels(columns: NetworkColumns, h: int) -> tuple[np.ndarray, LabelCompressor]:
    """Each node's kernel labels at iterations 0..h, node after node, and the compressor that holds their signatures.

    A node's iteration-0 label is its cui's position in ``columns.cuis``.
    At each later iteration every node's key is its previous label and its
    (relation id, neighbor label) pairs, sorted, as ``wl_label_history``
    packs it, and each distinct key gets the next label in the order the
    nodes of degree 0, 1, 2, ... meet it. A key holds labels of the
    previous iteration, so no key of an earlier one can equal it. The
    numbering differs from a compressor going through the rows, but it is
    a bijection of it, which no kernel value sees. Relation ids are
    positions in the sorted relation table, so pairs sort by the raw
    relation string. FormatError if the int64 sort keys would overflow.
    """
    check("h", h)
    c = columns
    nodes = len(c.node_cuis)
    # Each edge from both ends: its owner and other node by position in the columns, and its relation id.
    edge_rows = np.repeat(np.arange(len(c.edge_ptr) - 1), np.diff(c.edge_ptr))
    heads, tails = c.node_ptr[edge_rows] + c.heads, c.node_ptr[edge_rows] + c.tails
    owners, others, relations = np.concatenate([heads, tails]), np.concatenate([tails, heads]), np.tile(c.edge_relations, 2)
    degrees = np.bincount(owners, minlength=nodes)
    starts = np.cumsum(degrees) - degrees
    pair_owners = np.repeat(np.arange(nodes), degrees)
    # Each node's key at one iteration, node after node: its previous label, then its pairs.
    items = np.empty(nodes + 2 * len(owners), "<i4")
    begins = np.arange(nodes) + 2 * starts
    at = pair_owners + 1 + 2 * np.arange(len(owners))
    groups = []
    for size in np.flatnonzero(np.bincount(degrees)).tolist():  # one degree at a time: a key's items, viewed as one void scalar, list as its bytes
        group = np.flatnonzero(degrees == size)
        groups.append((group, begins[group, None] + np.arange(1 + 2 * size), f"V{4 + 8 * size}"))
    table: dict[str | bytes, int] = dict(zip(c.cuis, range(len(c.cuis))))
    history = [c.node_cuis.astype(np.int64)]
    for _ in range(h):
        previous, next_id = history[-1], max(len(table), 1)
        span = max(len(c.relations), 1) * next_id
        if nodes * span >= 2**63:
            raise FormatError(f"{nodes} nodes, {len(c.relations)} relations and {next_id} kernel labels overflow the int64 sort keys")
        # A (relation id, neighbor label) pair is one number below span, so
        # sorting owner * span + pair sorts each node's pairs, node after node.
        pairs = np.sort(owners * span + relations * next_id + previous[others]) % span
        items[begins] = previous
        items[at], items[at + 1] = np.divmod(pairs, next_id)
        current = np.empty(nodes, np.int64)
        for group, cells, void in groups:
            keys = items[cells].view(void).ravel().tolist()
            table.update(zip(dict.fromkeys(keys), count(len(table))))
            current[group] = np.fromiter(map(table.__getitem__, keys), np.int64, len(keys))
        history.append(current)
    comp = LabelCompressor()
    comp.table, comp.next_id, comp.relations = table, len(table), {relation: i for i, relation in enumerate(c.relations)}
    return np.stack(history, axis=1).ravel(), comp


def doc_embedding(net: SemanticNetwork | NetworkRows, model: EmbeddingModel) -> np.ndarray:
    """Mention-count-weighted average of the entity vectors of the nodes of a network or of a single row.

    Nodes without an entity vector are skipped; if none remain the result
    is the zero vector.
    """
    rows = NetworkRows.of(net)
    total = np.zeros(model.config.dim)
    mass = 0
    for cui, start, end in zip(rows.node_cuis, rows.span_ptr, rows.span_ptr[1:]):
        vec = model.entity_vectors.get(rows.cuis[cui])
        if vec is None:
            continue
        weight = (end - start) // 2
        total += weight * vec
        mass += weight
    return total / mass if mass else total


def combine(explicit: float | np.ndarray, cos: float | np.ndarray, lam: float) -> float | np.ndarray:
    """lam * kernel + (1 - lam) * embedding cosine clamped at 0, for numbers or arrays alike."""
    return lam * explicit + (1.0 - lam) * np.maximum(0.0, cos)


def combined_similarity(
    net_a: SemanticNetwork,
    net_b: SemanticNetwork,
    lam: float,
    comp: LabelCompressor,
    h: int,
    model: EmbeddingModel | None,
) -> float:
    """``combine`` of the kernel and the embedding cosine, pair by pair; symmetric, in [0, 1].

    The scalar reference for ``engine._score_rows``: the kernel is the
    integer dot of any label multisets over the square root of the
    self-dots' product, on networks the shared labels over
    ``sqrt(|A| * |B|)``, and the cosine is ``np.dot`` over the
    ``np.linalg.norm`` product. Each is 0 against an empty graph or a zero
    embedding, and the cosine is 0 without an embedding model.
    """
    check("lambda_weight", lam, "lambda")

    def dot(f: dict[int, int], g: dict[int, int]) -> int:
        return sum(count * g.get(label, 0) for label, count in f.items())

    fa, fb = wl_features(net_a, h, comp), wl_features(net_b, h, comp)
    explicit = cos = 0.0
    if fa and fb:
        explicit = dot(fa, fb) / math.sqrt(dot(fa, fa) * dot(fb, fb))
    if model is not None:
        a, b = doc_embedding(net_a, model), doc_embedding(net_b, model)
        norm_a, norm_b = float(np.linalg.norm(a)), float(np.linalg.norm(b))
        if norm_a and norm_b:
            cos = float(np.dot(a, b)) / (norm_a * norm_b)
    return combine(explicit, cos, lam)
