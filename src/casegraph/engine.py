"""Corpus indexing, query search, and the document-document collection graph.

The index bundles everything needed to answer queries with the exact
pipeline the documents went through: the lexicon, the triple store, any
trained models, the shared label compressor, and the per-document
networks and kernel features. It persists as a single versioned JSON
container whose bytes are reproducible for a fixed corpus, configuration,
and seed. Kernel features and the compressor table are stored, because
recomputing them makes loading markedly slower.

What scoring needs is a pure function of the stored data, so it is rebuilt
whenever an index is built or loaded (``DocRows``): an inverted index from
each kernel label to the documents holding it, with each document's kernel
self-norm, and a matrix of document embeddings with their norms. A query
is scored against every document at once, by one scatter-add over its own
labels and one matrix-vector product; the collection graph scores each
document against the ones after it the same way.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .errors import ConfigError, FormatError, UsageError, ValidationError
from .kb import (
    Document,
    Lexicon,
    TripleStore,
    lexicon_from_dict,
    lexicon_to_dict,
    load_container,
    save_container,
    triples_from_dict,
    triples_to_dict,
)
from .linking import Mention, Token, link, split_sentences, tokenize
from .network import (
    Edge,
    SemanticNetwork,
    build_network,
    enrich_network,
    fuse_network,
    network_from_dict,
    network_to_dict,
)
from .relations import (
    CandidatePair,
    ExtractorModel,
    extract_relations,
    extractor_from_dict,
    extractor_to_dict,
    generate_candidates,
    kb_match_extract,
)
from .similarity import LabelCompressor, WlFeatureVector, combine, doc_embedding, wl_features
from .transe import EmbeddingModel, model_from_dict, model_to_dict

log = logging.getLogger(__name__)

INDEX_FORMAT = "casegraph-index"
INDEX_VERSION = 2


@dataclass(frozen=True)
class SearchResult:
    doc_id: str
    score: float
    rank: int


@dataclass
class CollectionGraph:
    edges: list[tuple[str, str, float]]  # (doc_a, doc_b, similarity), doc_a < doc_b


@dataclass(eq=False)
class DocRows:
    """The documents of an index as rows in sorted-id order, laid out for scoring all of them at once.

    ``label_rows[label_ptr[l]:label_ptr[l + 1]]`` are the rows holding kernel
    label ``l`` (ascending) and ``label_counts`` the matching counts; every
    row's integer self-dot is in ``self_dots``. ``embeddings`` holds one
    document embedding per row (no columns without an embedding model), and
    ``embedding_norms`` their norms.
    """

    doc_ids: list[str]
    label_ptr: np.ndarray
    label_rows: np.ndarray
    label_counts: np.ndarray
    self_dots: np.ndarray
    embeddings: np.ndarray
    embedding_norms: np.ndarray


@dataclass
class Index:
    config: PipelineConfig
    lexicon: Lexicon
    kb: TripleStore | None
    extractor: ExtractorModel | None
    transe: EmbeddingModel | None
    compressor: LabelCompressor
    networks: dict[str, SemanticNetwork] = field(default_factory=dict)
    wl_vectors: dict[str, WlFeatureVector] = field(default_factory=dict)
    rows: DocRows | None = None  # rebuilt from the above and transe by _derive_maps, never persisted

    @property
    def h(self) -> int:
        return self.config.h


def analyze(doc: Document, lexicon: Lexicon, window: int) -> tuple[list[Token], list[Mention], list[CandidatePair]]:
    """Tokenize, split, link and pair one document: its tokens, mentions and candidate pairs."""
    content = doc.content()
    tokens = tokenize(content)
    sentences = split_sentences(content, tokens)
    mentions = link(content, lexicon, tokens=tokens)
    return tokens, mentions, generate_candidates(doc.id, mentions, sentences, tokens, window)


def extract_edges(
    pairs: list[CandidatePair],
    tokens: list[Token],
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
) -> list[Edge]:
    """Typed edges between a document's candidate pairs, by the configured extraction mode."""
    if config.mode == "model":
        if extractor is None:
            raise ConfigError("mode 'model' requires a trained relation extractor")
        return extract_relations(pairs, extractor, config.theta_rel, tokens, lexicon)
    if kb is None:
        raise ConfigError("mode 'kbmatch' requires a triple store")
    return kb_match_extract(pairs, kb)


def document_network(
    doc: Document,
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
    transe: EmbeddingModel | None = None,
) -> SemanticNetwork:
    """Run the full per-document pipeline: link, extract, build, enrich, fuse."""
    tokens, mentions, pairs = analyze(doc, lexicon, config.window)
    net = build_network(doc.id, mentions, extract_edges(pairs, tokens, lexicon, config, kb, extractor), lexicon)
    if config.enrich:
        if transe is None:
            raise ConfigError("enrichment requires an embedding model")
        net = enrich_network(net, transe, config.tau_lp, config.m_cap)
    if config.fuse:
        if transe is None:
            raise ConfigError("confidence fusion requires an embedding model")
        net = fuse_network(net, transe)
    return net


def index_corpus(
    corpus: list[Document],
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
    transe: EmbeddingModel | None = None,
) -> Index:
    """Build networks for every document and featurize them with a shared compressor."""
    seen: set[str] = set()
    for doc in corpus:
        if doc.id in seen:
            raise ValidationError(f"duplicate document id {doc.id}")
        seen.add(doc.id)
    index = Index(config, lexicon, kb, extractor, transe, LabelCompressor())
    for doc in corpus:
        net = document_network(doc, lexicon, config, kb, extractor, transe)
        index.networks[doc.id] = net
        index.wl_vectors[doc.id] = wl_features(net, config.h, index.compressor)
    _derive_maps(index)
    log.info("indexed %d documents (%d kernel labels)", len(corpus), index.compressor.next_id)
    return index


def _embedding(net: SemanticNetwork, transe: EmbeddingModel | None) -> np.ndarray:
    return doc_embedding(net, transe).vector if transe is not None else np.zeros(0)


def _derive_maps(index: Index) -> None:
    """Rebuild ``index.rows`` from the networks, the kernel features and the embedding model.

    Raises FormatError for a kernel label outside [0, next_id) or a count that
    is not a positive integer, which only an edited index file can hold.
    """
    doc_ids = sorted(index.networks)
    features = [index.wl_vectors[doc_id].counts for doc_id in doc_ids]
    if not set(map(type, chain.from_iterable(map(dict.values, features)))) <= {int}:
        raise FormatError("kernel feature counts must be integers")
    sizes = np.fromiter(map(len, features), np.int64, len(features))
    total = int(sizes.sum())
    labels = np.fromiter(chain.from_iterable(features), np.int64, total)
    counts = np.fromiter(chain.from_iterable(map(dict.values, features)), np.int64, total)
    next_id = index.compressor.next_id
    if total and (labels.min() < 0 or labels.max() >= next_id):
        raise FormatError(f"kernel feature label outside [0, {next_id})")
    if total and counts.min() < 1:
        raise FormatError("kernel feature counts must be positive")
    rows = np.repeat(np.arange(len(doc_ids)), sizes)
    order = np.argsort(labels, kind="stable")  # rows stay ascending within a label
    label_ptr = np.zeros(next_id + 1, np.int64)
    np.cumsum(np.bincount(labels, minlength=next_id), out=label_ptr[1:])
    dim = index.transe.config.dim if index.transe is not None else 0
    embeddings = np.zeros((len(doc_ids), dim))
    for row, doc_id in enumerate(doc_ids):
        embeddings[row] = _embedding(index.networks[doc_id], index.transe)
    index.rows = DocRows(
        doc_ids,
        label_ptr,
        rows[order],
        counts[order],
        np.bincount(rows, weights=counts * counts, minlength=len(doc_ids)).astype(np.int64),  # exact below 2**53
        embeddings,
        np.fromiter(map(np.linalg.norm, embeddings), float, len(doc_ids)),
    )


def _score_rows(rows: DocRows, query: WlFeatureVector, embedding: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``combine`` of the query with every row: the scores and the integer kernel dots.

    The kernel is ``dot / sqrt(qq * self_dot)`` on exact integers, as
    ``wl_kernel_normalized`` computes it; the kernel and the cosine are 0
    against an empty graph or a zero embedding.
    """
    n = len(rows.doc_ids)
    labels = np.fromiter(query.counts, np.int64, len(query.counts))
    counts = np.fromiter(query.counts.values(), np.int64, len(query.counts))
    known = labels < len(rows.label_ptr) - 1  # overlay labels of a query occur in no document
    starts, ends = rows.label_ptr[labels[known]], rows.label_ptr[labels[known] + 1]
    lengths = ends - starts
    # Positions of all postings of those labels: each label's slice laid end to end.
    postings = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    weights = rows.label_counts[postings] * np.repeat(counts[known], lengths)
    dots = np.bincount(rows.label_rows[postings], weights=weights, minlength=n)  # integers, exact in float64
    kernel_norms = np.sqrt(int((counts * counts).sum()) * rows.self_dots)
    kernel = np.divide(dots, kernel_norms, out=np.zeros(n), where=kernel_norms > 0)
    # einsum, not BLAS: it reduces every row alike, so equal rows get equal
    # cosines wherever they sit and exact ties still break by doc id.
    cos_norms = np.linalg.norm(embedding) * rows.embedding_norms
    cos = np.divide(np.einsum("ij,j->i", rows.embeddings, embedding), cos_norms, out=np.zeros(n), where=cos_norms != 0)
    return combine(kernel, cos, lam), dots


def search(
    index: Index,
    query_text: str,
    k: int,
    lam: float | None = None,
    prune: bool = False,
) -> list[SearchResult]:
    """Rank documents against a query case processed by the document pipeline.

    With ``prune`` only documents sharing a kernel label, i.e. a concept,
    with the query are ranked. Ties break by ascending doc id; fewer than
    ``k`` results are returned when candidates run out.
    """
    if k < 1:
        raise UsageError(f"k must be >= 1, got {k}")
    if lam is None:
        lam = index.config.lambda_weight
    if not 0.0 <= lam <= 1.0:
        raise UsageError(f"lambda must be within [0, 1], got {lam}")
    query_doc = Document("query", "", query_text)
    net = document_network(query_doc, index.lexicon, index.config, index.kb, index.extractor, index.transe)
    query_vector = wl_features(net, index.h, index.compressor.overlay())
    scores, dots = _score_rows(index.rows, query_vector, _embedding(net, index.transe), lam)
    candidates = np.flatnonzero(dots) if prune else np.arange(len(scores))
    top = candidates[np.argsort(-scores[candidates], kind="stable")[:k]]  # stable: ties keep doc id order
    doc_ids = index.rows.doc_ids
    return [
        SearchResult(doc_ids[row], score, rank)
        for rank, (row, score) in enumerate(zip(top.tolist(), scores[top].tolist()), start=1)
    ]


def build_collection_graph(index: Index, lam: float | None = None, tau_doc: float | None = None) -> CollectionGraph:
    """Score all unordered document pairs and keep those at or above tau_doc."""
    if lam is None:
        lam = index.config.lambda_weight
    if tau_doc is None:
        tau_doc = index.config.tau_doc
    if not 0.0 <= tau_doc <= 1.0:
        raise UsageError(f"tau_doc must be within [0, 1], got {tau_doc}")
    rows = index.rows
    edges = []
    for i, doc_a in enumerate(rows.doc_ids):
        scores, _ = _score_rows(rows, index.wl_vectors[doc_a], rows.embeddings[i], lam)
        kept = np.flatnonzero(scores[i + 1 :] >= tau_doc) + i + 1
        edges += [(doc_a, rows.doc_ids[j], float(scores[j])) for j in kept.tolist()]
    return CollectionGraph(edges)


def collection_graph_to_dot(graph: CollectionGraph) -> str:
    """Undirected DOT rendering with the similarity as a 3-decimal edge label."""
    lines = ["graph collection {"]
    for doc_a, doc_b, score in graph.edges:
        a = doc_a.replace('"', '\\"')
        b = doc_b.replace('"', '\\"')
        lines.append(f'  "{a}" -- "{b}" [label={score:.3f}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


_PATH_FIELDS = ("lexicon", "triples", "corpus", "extractor_model", "transe_model", "index")


def index_to_dict(index: Index) -> dict:
    """The container payload, format tag and version included."""
    # Input paths are dropped: the artifacts they pointed at are embedded, and
    # keeping them would make index bytes depend on where the inputs lived.
    config = index.config.to_dict()
    for field_name in _PATH_FIELDS:
        config[field_name] = None
    return {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": config,
        "lexicon": lexicon_to_dict(index.lexicon),
        "kb": triples_to_dict(index.kb) if index.kb is not None else None,
        "extractor": extractor_to_dict(index.extractor) if index.extractor is not None else None,
        "transe": model_to_dict(index.transe) if index.transe is not None else None,
        "compressor": {"table": index.compressor.table, "next_id": index.compressor.next_id},
        "networks": {doc_id: network_to_dict(net) for doc_id, net in index.networks.items()},
        "wl": {
            doc_id: {str(label): count for label, count in vec.counts.items()}
            for doc_id, vec in index.wl_vectors.items()
        },
    }


def index_from_dict(data: dict) -> Index:
    """Decode a container payload, check it is consistent, and rebuild the derived maps."""
    config = PipelineConfig(**data["config"])
    try:
        config.validate()
    except UsageError as exc:
        raise FormatError(f"invalid config ({exc})") from None
    if set(data["wl"]) != set(data["networks"]):
        raise FormatError("kernel features and networks cover different documents")
    compressor = LabelCompressor()
    compressor.table = dict(data["compressor"]["table"])
    compressor.next_id = data["compressor"]["next_id"]
    if type(compressor.next_id) is not int or compressor.next_id < 0:
        raise FormatError(f"compressor next_id must be a non-negative integer, got {compressor.next_id!r}")
    index = Index(
        config,
        lexicon_from_dict(data["lexicon"]),
        triples_from_dict(data["kb"]) if data["kb"] is not None else None,
        extractor_from_dict(data["extractor"]) if data["extractor"] is not None else None,
        model_from_dict(data["transe"]) if data["transe"] is not None else None,
        compressor,
    )
    index.networks = {doc_id: network_from_dict(net) for doc_id, net in data["networks"].items()}
    index.wl_vectors = {
        doc_id: WlFeatureVector({int(label): count for label, count in counts.items()}, config.h, compressor)
        for doc_id, counts in data["wl"].items()
    }
    _derive_maps(index)
    return index


def save_index(index: Index, path: str | Path) -> None:
    save_container(path, INDEX_FORMAT, INDEX_VERSION, index_to_dict(index))


def load_index(path: str | Path) -> Index:
    return load_container(path, INDEX_FORMAT, INDEX_VERSION, index_from_dict)
