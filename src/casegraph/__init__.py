"""Case-based retrieval over per-document semantic networks.

Each document is converted into a graph of lexicon concepts and typed,
confidence-weighted relations; the graph is optionally enriched by
translational link prediction; retrieval ranks documents by a convex
combination of a subtree-pattern graph kernel and embedding cosine
similarity, with TREC-style evaluation utilities on top.
"""

from .config import PipelineConfig
from .engine import (
    CollectionGraph,
    Index,
    SearchResult,
    build_collection_graph,
    document_network,
    index_corpus,
    load_index,
    save_index,
    search,
)
from .errors import (
    CasegraphError,
    ConfigError,
    ConsistencyError,
    FormatError,
    ParseError,
    TrainingError,
    UnknownIdentifierError,
    UsageError,
    ValidationError,
)
from .kb import (
    Concept,
    Document,
    Lexicon,
    Triple,
    TripleStore,
    build_lexicon,
    build_triple_store,
    load_corpus,
    load_lexicon,
    load_triples,
    normalize_surface,
)
from .linking import Mention, SentenceSpan, Token, link, split_sentences, tokenize
from .network import (
    Edge,
    Node,
    SemanticNetwork,
    build_network,
    enrich_network,
    fuse_confidence,
    fuse_network,
)
from .relations import (
    CandidatePair,
    ExtractorHyperparams,
    ExtractorModel,
    RelationInstance,
    distant_label,
    extract_relations,
    featurize,
    generate_candidates,
    kb_match_extract,
    train_extractor,
)
from .similarity import LabelCompressor, combined_similarity, doc_embedding, wl_features
from .transe import (
    EmbeddingModel,
    TrainConfig,
    evaluate_link_prediction,
    init_model,
    train,
)
from .trec import MetricReport, Qrels, Run, evaluate_run, parse_qrels, read_run, write_run

__version__ = "0.1.0"
