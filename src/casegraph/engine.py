"""Corpus indexing, query search, and the document-document collection graph.

The index bundles everything needed to answer queries with the exact
pipeline the documents went through: the lexicon, the triple store, any
trained models, the shared label compressor, and the per-document
networks and kernel features. It persists as a single versioned JSON
container whose bytes are reproducible for a fixed corpus, configuration,
and seed. Document embeddings and concept postings are pure functions of
the networks and the embedding model, so they are rebuilt on load rather
than stored; kernel features and the compressor table are stored, because
recomputing them makes loading markedly slower.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
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
from .similarity import (
    DocEmbedding,
    LabelCompressor,
    WlFeatureVector,
    combine,
    cosine,
    doc_embedding,
    wl_features,
    wl_kernel_normalized,
)
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
    # Rebuilt from networks and transe by _derive_maps, never persisted.
    embeddings: dict[str, DocEmbedding] = field(default_factory=dict)
    cui_postings: dict[str, list[str]] = field(default_factory=dict)

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
    log.info("indexed %d documents (%d distinct concepts)", len(corpus), len(index.cui_postings))
    return index


def _embedding(net: SemanticNetwork, transe: EmbeddingModel | None) -> DocEmbedding:
    return doc_embedding(net, transe) if transe is not None else DocEmbedding(np.zeros(0), 0)


def _derive_maps(index: Index) -> None:
    """Rebuild the per-document embeddings and the concept -> sorted doc ids postings."""
    index.embeddings = {}
    index.cui_postings = {}
    for doc_id in sorted(index.networks):
        net = index.networks[doc_id]
        index.embeddings[doc_id] = _embedding(net, index.transe)
        for cui in net.nodes:
            index.cui_postings.setdefault(cui, []).append(doc_id)


def _score(f: WlFeatureVector, emb_f: DocEmbedding, g: WlFeatureVector, emb_g: DocEmbedding, lam: float) -> float:
    return combine(wl_kernel_normalized(f, g), cosine(emb_f.vector, emb_g.vector), lam)


def search(
    index: Index,
    query_text: str,
    k: int,
    lam: float | None = None,
    prune: bool = False,
) -> list[SearchResult]:
    """Rank documents against a query case processed by the document pipeline.

    With ``prune`` only documents sharing at least one concept with the
    query are scored. Ties break by ascending doc id; fewer than ``k``
    results are returned when candidates run out.
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
    query_embedding = _embedding(net, index.transe)
    if prune:
        candidates = sorted({doc for cui in net.nodes for doc in index.cui_postings.get(cui, ())})
    else:
        candidates = sorted(index.networks)
    wl, embeddings = index.wl_vectors, index.embeddings
    scored = [
        (doc_id, _score(query_vector, query_embedding, wl[doc_id], embeddings[doc_id], lam)) for doc_id in candidates
    ]
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [SearchResult(doc_id, score, rank) for rank, (doc_id, score) in enumerate(scored[:k], start=1)]


def build_collection_graph(index: Index, lam: float | None = None, tau_doc: float | None = None) -> CollectionGraph:
    """Score all unordered document pairs and keep those at or above tau_doc."""
    if lam is None:
        lam = index.config.lambda_weight
    if tau_doc is None:
        tau_doc = index.config.tau_doc
    if not 0.0 <= tau_doc <= 1.0:
        raise UsageError(f"tau_doc must be within [0, 1], got {tau_doc}")
    doc_ids = sorted(index.networks)
    wl, embeddings = index.wl_vectors, index.embeddings
    edges = []
    for i, doc_a in enumerate(doc_ids):
        for doc_b in doc_ids[i + 1 :]:
            score = _score(wl[doc_a], embeddings[doc_a], wl[doc_b], embeddings[doc_b], lam)
            if score >= tau_doc:
                edges.append((doc_a, doc_b, score))
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
