"""Graph similarity: subtree-pattern kernel plus latent document vectors.

The explicit component iteratively relabels each node with a compressed
signature of its own label and its relation-tagged neighborhood (edges
treated as undirected, relation tags kept), then counts labels from all
iterations. The latent component averages entity embeddings over nodes,
weighted by mention count. Both are combined convexly.

An index labels its whole corpus at once (``wl_corpus_labels``): one sort
per iteration classes every node's signature, and a class's label is the
rank of its first holder, as a compressor going through the corpus would
assign them. A query, or any single network, is labelled node by node
through a ``LabelCompressor`` (``wl_label_history``), which
``compressor_from_columns`` rebuilds from an index's stored labels.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from struct import pack

import numpy as np

from .config import check
from .errors import FormatError
from .kb import first_true
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


def _incidences(columns: NetworkColumns) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each edge from both ends: its owner and other node by position in the columns, and its relation id; and each node's degree."""
    c = columns
    edge_rows = np.repeat(np.arange(len(c.edge_ptr) - 1), np.diff(c.edge_ptr))
    heads, tails = c.node_ptr[edge_rows] + c.heads, c.node_ptr[edge_rows] + c.tails
    owners = np.concatenate([heads, tails])
    return owners, np.concatenate([tails, heads]), np.tile(c.edge_relations, 2), np.bincount(owners, minlength=len(c.node_cuis))


def wl_corpus_labels(columns: NetworkColumns, h: int) -> np.ndarray:
    """Each node's kernel labels at iterations 0..h, node after node: those of one compressor going through the rows in order.

    Within a row the compressor labels every node at one iteration before
    the next, nodes in order. So at each iteration the nodes fall into
    classes, which are the cuis at iteration 0 and after it the distinct
    (previous class, sorted (relation id, neighbor class) pairs) keys,
    ranked by one ``np.lexsort`` per band of degrees. A class's label is the
    rank of its first holder in (row, iteration, node) order.
    """
    check("h", h)
    c, width = columns, h + 1
    nodes = len(c.node_cuis)
    owners, others, relations, degrees = _incidences(c)
    starts = np.cumsum(degrees) - degrees
    pair_owners = np.repeat(np.arange(nodes), degrees)
    # The nodes of degree 0, 1, 2-3, 4-7, ... and where their pairs go in a
    # band's key matrix, after the previous class. Padded with -1 to the
    # band's largest degree, the pairs at most double, and keys of two
    # degrees differ at the smaller one's padding.
    bands = np.frexp(degrees)[1]
    layouts = []
    for band in np.unique(bands).tolist():
        members = np.flatnonzero(bands == band)
        local = np.zeros(nodes, np.int64)
        local[members] = np.arange(len(members))
        held = np.flatnonzero(bands[pair_owners] == band)
        cells = (local[pair_owners[held]], 1 + held - starts[pair_owners[held]])
        layouts.append((members, (len(members), 1 + int(degrees[members].max())), held, cells))
    classes, count = [c.node_cuis.astype(np.int64)], len(c.cuis)
    for _ in range(h):
        previous = classes[-1]
        span = max(len(c.relations), 1) * max(count, 1)
        pairs = np.sort(owners * span + relations * count + previous[others]) % span  # node after node, ascending
        current, count = np.empty(nodes, np.int64), 0
        for members, shape, held, cells in layouts:
            keys = np.full(shape, -1, np.int64)
            keys[:, 0] = previous[members]
            keys[cells] = pairs[held]
            order = np.lexsort(keys.T[::-1])
            ranked = keys[order]
            new = np.ones(len(order), bool)
            new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
            current[members[order]] = count + np.cumsum(new) - 1
            count += int(new.sum())
        classes.append(current)
    # A (iteration, class) pair's first holder, in (row, iteration, node) order.
    offsets = np.cumsum([0] + [int(level.max(initial=-1)) + 1 for level in classes])
    grid = np.stack(classes, axis=1) + offsets[:-1]
    rows = np.repeat(np.arange(len(c.node_ptr) - 1), np.diff(c.node_ptr))
    sizes, firsts = np.diff(c.node_ptr)[rows], c.node_ptr[rows]
    seen = firsts[:, None] * width + np.arange(width) * sizes[:, None] + (np.arange(nodes) - firsts)[:, None]
    first = np.full(offsets[-1], nodes * width)
    np.minimum.at(first, grid.ravel(), seen.ravel())
    labels = np.empty(offsets[-1], np.int64)
    labels[np.argsort(first, kind="stable")] = np.arange(offsets[-1])
    return labels[grid].ravel()


def compressor_from_columns(doc_ids: list[str], columns: NetworkColumns, h: int) -> LabelCompressor:
    """The compressor of the stored ``columns.node_labels``, each label's signature read off the networks.

    ``columns`` passed ``network.check_columns``. Relation ids are positions
    in the sorted relation table, so pairs sort by the raw relation string.
    FormatError unless there are h + 1 labels per node, each in [0, number
    of labels), together covering 0..next_id - 1, every node holding a label
    has that label's signature, and no signature holds two labels.
    """
    c, width = columns, h + 1
    nodes, labels = len(c.node_cuis), c.node_labels
    if len(labels) != nodes * width:
        raise FormatError(f"network node labels must be {width} per node, {nodes * width} in all, got {len(labels)}")

    def refuse(item: int, text: str):
        node = item // width
        row = int(np.searchsorted(c.node_ptr, node, "right")) - 1
        raise FormatError(f"document {doc_ids[row]}: node {c.cuis[c.node_cuis[node]]} {text}")

    i = first_true((labels < 0) | (labels >= len(labels)))
    if i >= 0:
        refuse(i, f"has kernel label {labels[i]} outside [0, {len(labels)})")
    next_id = int(labels.max(initial=-1)) + 1
    first = np.full(next_id, len(labels))
    np.minimum.at(first, labels, np.arange(len(labels)))  # each label's first holder, whose signature every other must have
    i = first_true(first == len(labels))
    if i >= 0:
        raise FormatError(f"kernel label {i} is held by no node, below the next label {next_id}")
    holders, levels = np.divmod(first, width)
    grid = labels.reshape(nodes, width)
    bad = levels[grid] != np.arange(width)  # a label held at two iterations
    bad[:, 0] |= c.node_cuis != c.node_cuis[holders[grid[:, 0]]]
    # Each edge from both ends, by global node position. A (relation id,
    # neighbor label) pair is one number below span, so sorting
    # owner * span + pair sorts each node's pairs, node after node.
    owners, others, relations, degrees = _incidences(c)
    starts = np.cumsum(degrees) - degrees
    pair_owners, positions = np.repeat(np.arange(nodes), degrees), np.arange(len(owners))
    span = max(len(c.relations), 1) * max(next_id, 1)
    if nodes * span >= 2**63:
        raise FormatError(f"{nodes} nodes, {len(c.relations)} relations and {next_id} kernel labels overflow the int64 sort keys")
    owned = owners * span + relations * next_id
    # Each node's key at one iteration, node after node: its previous label, then its pairs.
    items = np.empty(nodes + 2 * len(owners), "<i4")
    begins, at = np.arange(nodes) + 2 * starts, pair_owners + 1 + 2 * positions
    zero = np.flatnonzero(levels == 0)
    keys: list[str | bytes] = [c.cuis[cui] for cui in c.node_cuis[holders[zero]].tolist()]
    key_labels = zero.tolist()
    for level in range(1, width):
        previous = grid[:, level - 1]
        pairs = np.sort(owned + previous[others]) % span
        holder = holders[grid[:, level]]
        same = (previous == previous[holder]) & (degrees == degrees[holder])
        shift = np.repeat(np.where(same, starts[holder] - starts, 0), degrees)
        bad[:, level] |= ~same
        bad[pair_owners[pairs != pairs[positions + shift]], level] = True
        items[begins] = previous
        items[at], items[at + 1] = np.divmod(pairs, next_id)
        here = np.flatnonzero(levels == level)
        sizes = degrees[holders[here]]
        for size in np.unique(sizes).tolist():  # one size at a time: a key's items, viewed as one void scalar, list as its bytes
            group = here[sizes == size]
            keys += items[begins[holders[group], None] + np.arange(1 + 2 * size)].view(f"V{4 + 8 * size}").ravel().tolist()
            key_labels += group.tolist()
    i = first_true(bad.ravel())
    if i >= 0:
        refuse(i, f"holds kernel label {labels[i]} at iteration {i % width} under another signature than its other holders")
    table = dict(zip(keys, key_labels))
    if len(table) != next_id:
        key, label = next((key, label) for key, label in zip(keys, key_labels) if table[key] != label)
        raise FormatError(f"kernel labels {label} and {table[key]} have one signature")
    comp = LabelCompressor()
    comp.table, comp.next_id, comp.relations = table, next_id, {relation: i for i, relation in enumerate(c.relations)}
    return comp


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
    integer dot of the label counts over the square root of the self-dots'
    product, and the cosine is ``np.dot`` over the ``np.linalg.norm``
    product. Each is 0 against an empty graph or a zero embedding, and the
    cosine is 0 without an embedding model.
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
