"""Graph similarity: subtree-pattern kernel plus latent document vectors.

The explicit component iteratively relabels each node with a compressed
signature of its own label and its relation-tagged neighborhood (edges
treated as undirected, relation tags kept), then counts labels from all
iterations. The latent component averages entity embeddings over nodes,
weighted by mention count. Both are combined convexly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .config import check
from .errors import UsageError
from .network import SemanticNetwork
from .transe import EmbeddingModel


class LabelCompressor:
    """Append-only injective mapping from signature strings to integer labels.

    A collection shares one compressor so identical signatures always get
    the same label. ``overlay()`` returns a read-through child that can
    assign labels for unseen signatures (e.g. a query graph) without
    mutating the shared parent.
    """

    def __init__(self, parent: "LabelCompressor | None" = None):
        self.table: dict[str, int] = {}
        self.parent = parent
        self.next_id = parent.next_id if parent is not None else 0

    def _get(self, signature: str) -> int | None:
        if self.parent is not None:
            found = self.parent._get(signature)
            if found is not None:
                return found
        return self.table.get(signature)

    def compress(self, signature: str) -> int:
        found = self._get(signature)
        if found is not None:
            return found
        label = self.next_id
        self.table[signature] = label
        self.next_id += 1
        return label

    def overlay(self) -> "LabelCompressor":
        return LabelCompressor(parent=self)

    def _root(self) -> "LabelCompressor":
        return self if self.parent is None else self.parent._root()

    def compatible_with(self, other: "LabelCompressor") -> bool:
        return self._root() is other._root()


@dataclass
class WlFeatureVector:
    counts: dict[int, int]
    h: int
    comp: LabelCompressor = field(repr=False, compare=False)


@dataclass
class DocEmbedding:
    vector: np.ndarray
    mass: int


def wl_label_history(net: SemanticNetwork, h: int, comp: LabelCompressor) -> list[dict[str, int]]:
    """Per-iteration node label maps for iterations 0..h.

    Iteration 0 labels encode the node cuis; iteration i+1 relabels each node
    with its previous label plus the sorted multiset of (relation, neighbor
    label) pairs. Nodes are processed in sorted cui order, so label
    assignment is independent of insertion order.
    """
    check("h", h)
    cuis = sorted(net.nodes)
    if not cuis:
        return [{} for _ in range(h + 1)]
    # Undirected neighborhood with the relation tag kept; multi-edges count once each.
    neighbors: dict[str, list[tuple[str, str]]] = {cui: [] for cui in cuis}
    for edge in net.edges:
        neighbors[edge.head].append((edge.relation, edge.tail))
        neighbors[edge.tail].append((edge.relation, edge.head))
    # Signatures are the json.dumps text of ["n", cui] and of
    # [label, [[relation, label], ...]]: strings quoted as json.dumps quotes
    # them, each relation once per network.
    quoted = {relation: encode_basestring_ascii(relation) for relation in {edge.relation for edge in net.edges}}
    compress = comp.compress
    labels = {cui: compress(f'["n", {encode_basestring_ascii(cui)}]') for cui in cuis}
    history = [labels]
    for _ in range(h):
        refined = {}
        for cui in cuis:
            pairs = sorted([(rel, labels[other]) for rel, other in neighbors[cui]])
            body = ", ".join([f"[{quoted[rel]}, {label}]" for rel, label in pairs])
            refined[cui] = compress(f"[{labels[cui]}, [{body}]]")
        labels = refined
        history.append(labels)
    return history


def wl_features(net: SemanticNetwork, h: int, comp: LabelCompressor) -> WlFeatureVector:
    """Label counts accumulated over iterations 0..h."""
    counts = Counter(chain.from_iterable(map(dict.values, wl_label_history(net, h, comp))))
    return WlFeatureVector(dict(counts), h, comp)


def wl_dot(f: WlFeatureVector, g: WlFeatureVector) -> int:
    """Raw (unnormalized) kernel value: integer dot product of label counts."""
    if len(f.counts) > len(g.counts):
        f, g = g, f
    return sum(count * g.counts.get(label, 0) for label, count in f.counts.items())


def wl_kernel_normalized(f: WlFeatureVector, g: WlFeatureVector) -> float:
    """Cosine-normalized kernel in [0, 1]; 0 if either graph is empty."""
    if f.h != g.h:
        raise UsageError(f"feature vectors built with different iteration counts ({f.h} vs {g.h})")
    if not f.comp.compatible_with(g.comp):
        raise UsageError("feature vectors built with unrelated label compressors")
    if not f.counts or not g.counts:
        return 0.0
    return wl_dot(f, g) / math.sqrt(wl_dot(f, f) * wl_dot(g, g))


def doc_embedding(net: SemanticNetwork, model: EmbeddingModel) -> DocEmbedding:
    """Mention-count-weighted average of the entity vectors of the nodes.

    Nodes without an entity vector are skipped; if none remain the result
    is the zero vector with mass 0.
    """
    total = np.zeros(model.config.dim)
    mass = 0
    for cui in sorted(net.nodes):
        vec = model.entity_vectors.get(cui)
        if vec is None:
            continue
        weight = net.nodes[cui].weight
        total += weight * vec
        mass += weight
    if mass == 0:
        return DocEmbedding(total, 0)
    return DocEmbedding(total / mass, mass)


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, defined as 0 when either vector is zero (or empty)."""
    if a.size == 0 or b.size == 0:
        return 0.0
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (norm_a * norm_b)


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
    """``combine`` of the kernel and the embedding cosine; symmetric, in [0, 1].

    Without an embedding model the latent component is 0.
    """
    check("lambda_weight", lam, "lambda")
    explicit = wl_kernel_normalized(wl_features(net_a, h, comp), wl_features(net_b, h, comp))
    if model is None:
        cos = 0.0
    else:
        cos = cosine(doc_embedding(net_a, model).vector, doc_embedding(net_b, model).vector)
    return combine(explicit, cos, lam)
