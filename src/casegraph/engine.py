"""Corpus indexing, query search, and the document-document collection graph.

Every document, indexed or searched, is analyzed once (``analyze``) into one
columnar ``Analysis`` record: its tokens (texts, normal forms, byte offsets),
the token bounds of its sentences, its mentions (offsets, first and last
token, cuis) and its candidate pairs (head and tail mention indices, the
token bounds between them, their sentence). Extraction (``extract_edges``)
reads that record's columns, and ``_add_document`` appends the document's
network to ``network.NetworkRows`` and enriches it there. ``index_corpus``
adds every document of the corpus as a row in doc id order, fuses all rows
at once and labels them for the kernel at once
(``similarity.wl_corpus_labels``); it makes no per-document network object.
``search`` adds its query as a row of its own and stops before fusion,
which no score reads; ``document_network`` runs one document on to a fused
``SemanticNetwork``. Which models a configuration needs is checked once,
by ``require_models``, whenever an index is built or loaded.

The index bundles everything needed to answer queries with the exact
pipeline the documents went through: the lexicon, the triple store, any
trained models, and the networks. It persists as a single versioned JSON
container (version 6) whose bytes are reproducible for a fixed corpus,
configuration, and seed. Each model is stored as lists of names and typed
columns: the lexicon and the triple store as ``kb`` describes them, the
TransE model as its entity and relation names ascending with their vectors
as one ``float64`` column each (``transe.model_to_columns``), and the
extractor as its labels, its features ascending (a feature's position is
its id) and its weights as one ``float64`` column
(``relations.extractor_to_columns``); the model files hold the same
payloads. Loading rebuilds the same in-memory models, with their checks.
It stores the sorted doc ids and the networks column-wise, one row per
document in doc id order (``network.NetworkColumns``):
node and edge pointers, cui ids into one sorted cui table, span pointers and
bounds, endpoints as node positions within the document, relation ids into
one relation table, provenance ids, confidences, and each node's kernel
labels at iterations 0..h. Those labels are the first-seen labels of
compressing the networks in doc id order, so the index bytes depend only on
the set of documents; they are stored because deriving them on load
(``wl_corpus_labels``) would add about a third to its time. Every numeric
column is a base64 string of little-endian ``int32`` (confidences
``float64``) items, which loading reads with ``np.frombuffer``
(``kb.pack``/``kb.unpack``); the strings stay readable JSON.

Everything else is derived whenever an index is built or loaded, by one
function (``_derive``) with array operations: the label compressor, each
label's signature taken from the networks (``similarity.compressor_from_columns``);
each document's kernel features, its nodes' label counts in ascending label
order; and what scoring needs (``DocRows``): the label-major transpose of the
kernel features, i.e. an inverted index from each kernel label to the
documents holding it, with each document's kernel self-norm, and a matrix of
document embeddings with their norms, computed for all documents in one pass
over the node columns. One block scorer (``_score_rows``)
scores a block of query rows against the documents: one scatter-add of the
rows' kernel entries into a (rows x documents) matrix and one ``einsum`` of
the embeddings. A query is a block of one row; the collection graph passes
the documents themselves in blocks of at most ``_BLOCK_NUMBERS`` postings and
cells, each against the documents from its first row on, and reads its pairs
off the strict upper triangle. Every score has the bits of scoring its row
alone: the kernel dots are integer sums, the norms the same elementwise
products, and ``einsum`` reduces each (row, document) pair as it does for
one row, where a BLAS product would not.

Loading checks everything before it returns, with array operations: the
configuration, the models (``kb.lexicon_from_dict``,
``kb.triples_from_dict``, ``transe.model_from_columns``,
``relations.extractor_from_columns``), the doc ids, that every column is whole base64
and every pointer starts at 0, never decreases and ends at its column's
length, that the network columns decode into valid networks
(``network.check_columns``), and, in deriving the compressor, that there are
h + 1 labels per node covering 0..next_id - 1, that every node holding a
label has that label's signature and that no signature holds two labels. It
builds no network. Every index, built or loaded, holds its networks only as
those columns (``StoredNetworks``): saving writes the columns as they are,
and ``Index.networks`` decodes a document's row on first access. An older
container version is refused with ``FormatError``.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .config import PipelineConfig, check
from .errors import ConfigError, FormatError, UsageError, ValidationError
from .kb import (
    Document,
    Lexicon,
    TripleStore,
    lexicon_from_dict,
    lexicon_to_dict,
    load_container,
    save_container,
    strings,
    triples_from_dict,
    triples_to_dict,
)
from .linking import Mention, Mentions, Sentences, Tokens, link, split_sentences, tokenize
from .network import (  # build_network, enrich_network and fuse_network: bound for perfbench's tracer
    Edge,
    NetworkColumns,
    NetworkRows,
    SemanticNetwork,
    build_network,
    check_columns,
    columns_from_dict,
    columns_to_dict,
    enrich_network,
    fuse_network,
    network_from_columns,
)
from .relations import (
    ExtractorModel,
    Pairs,
    extract_relations,
    extractor_from_columns,
    extractor_to_columns,
    generate_candidates,
    kb_match_extract,
)
from .similarity import LabelCompressor, combine, compressor_from_columns, doc_embedding, wl_corpus_labels, wl_features
from .transe import EmbeddingModel, model_from_columns, model_to_columns

log = logging.getLogger(__name__)

INDEX_FORMAT = "casegraph-index"
INDEX_VERSION = 6

# The most postings, and the most (query x row) cells, that one block of the
# collection graph joins and scores at once. From 2**13 to 2**16 graphs of
# 150-1,000 documents took about the same time; at 2**15 a block's
# temporaries peak at about 3.5 MB, at 2**19 at 45 MB and 2-3x slower.
_BLOCK_NUMBERS = 2**15


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

    Row ``i`` holds kernel labels ``labels[ptr[i]:ptr[i + 1]]`` (ascending)
    with ``counts`` of the same slice; this row-major form is what the index
    stores. ``label_rows[label_ptr[l]:label_ptr[l + 1]]`` are the rows holding
    label ``l`` (ascending) and ``label_counts`` the matching counts; every
    row's integer self-dot is in ``self_dots``. ``embeddings`` holds one
    document embedding per row (no columns without an embedding model), and
    ``embedding_norms`` their norms.
    """

    doc_ids: list[str]
    ptr: np.ndarray
    labels: np.ndarray
    counts: np.ndarray
    label_ptr: np.ndarray
    label_rows: np.ndarray
    label_counts: np.ndarray
    self_dots: np.ndarray
    embeddings: np.ndarray
    embedding_norms: np.ndarray


class StoredNetworks(Mapping):
    """The networks of an index, read-only, each decoded from its row of the columns on first access."""

    def __init__(self, doc_ids: list[str], columns: NetworkColumns, lexicon: Lexicon):
        self._rows = {doc_id: row for row, doc_id in enumerate(doc_ids)}
        self.columns = columns
        self._decoded: dict[str, SemanticNetwork] = {}
        self._lexicon = lexicon

    def __getitem__(self, doc_id: str) -> SemanticNetwork:
        net = self._decoded.get(doc_id)
        if net is None:
            net = network_from_columns(doc_id, self.columns, self._rows[doc_id], self._lexicon)
            self._decoded[doc_id] = net
        return net

    def __contains__(self, doc_id: object) -> bool:
        return doc_id in self._rows

    def __iter__(self) -> Iterator[str]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


@dataclass
class Index:
    config: PipelineConfig
    lexicon: Lexicon
    kb: TripleStore | None
    extractor: ExtractorModel | None
    transe: EmbeddingModel | None
    compressor: LabelCompressor
    networks: StoredNetworks
    rows: DocRows

    @property
    def h(self) -> int:
        return self.config.h


@dataclass
class Analysis:
    """One document's text analysis, column-wise: its tokens, sentences, mentions and candidate pairs.

    The pairs index into ``mentions`` and ``sentences``, the mentions carry
    their token bounds, and the tokens their normal forms, so no stage
    after ``analyze`` tokenizes, aligns or normalises again.
    """

    tokens: Tokens
    sentences: Sentences
    mentions: Mentions
    pairs: Pairs


def aligned_mentions(doc_id: str, mentions: Sequence[Mention], tokens: Tokens) -> Mentions:
    """``mentions`` aligned to their document's ``tokens``; a mention off the tokens is a ``ValidationError`` that names the document."""
    try:
        return Mentions.of(mentions).aligned(tokens)
    except ValidationError as exc:
        raise ValidationError(f"document {doc_id}: {exc}") from None


def analyze(doc: Document, lexicon: Lexicon, window: int, mentions: Sequence[Mention] | None = None) -> Analysis:
    """Tokenize, split, link and pair one document.

    Given ``mentions``, the document is paired on those, aligned to its
    tokens (``aligned_mentions``), and not linked.
    """
    content = doc.content()
    tokens = tokenize(content)
    sentences = split_sentences(content, tokens)
    mentions = link(content, lexicon, tokens) if mentions is None else aligned_mentions(doc.id, mentions, tokens)
    pairs = generate_candidates(doc.id, mentions, sentences, tokens, window)
    return Analysis(tokens, sentences, pairs.mentions, pairs)


def require_models(
    config: PipelineConfig,
    kb: TripleStore | None,
    extractor: ExtractorModel | None,
    transe: EmbeddingModel | None,
) -> None:
    """ConfigError unless the models are given that ``config`` needs.

    Mode ``model`` needs a relation extractor and ``kbmatch`` a triple store;
    enrichment and fusion need a TransE model.
    """
    if config.mode == "model" and extractor is None:
        raise ConfigError("mode 'model' requires a trained relation extractor")
    if config.mode == "kbmatch" and kb is None:
        raise ConfigError("mode 'kbmatch' requires a triple store")
    if config.enrich and transe is None:
        raise ConfigError("enrichment requires an embedding model")
    if config.fuse and transe is None:
        raise ConfigError("confidence fusion requires an embedding model")


def extract_edges(
    analysis: Analysis,
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
) -> list[Edge]:
    """Typed edges between a document's candidate pairs, by the configured extraction mode.

    The mode's model must be given (``require_models``).
    """
    if config.mode == "model":
        return extract_relations(analysis.pairs, extractor, config.theta_rel, analysis.tokens, lexicon)
    return kb_match_extract(analysis.pairs, kb)


def _add_document(
    rows: NetworkRows,
    doc: Document,
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None,
    extractor: ExtractorModel | None,
) -> None:
    """Analyze ``doc``, extract its edges, and append its network to ``rows``, enriched if configured.

    ``search`` stops here: no score reads an edge's confidence, so fusing a
    query's network would not change its ranking.
    """
    analysis = analyze(doc, lexicon, config.window)
    rows.add(doc.id, analysis.mentions, extract_edges(analysis, lexicon, config, kb, extractor))
    if config.enrich:
        rows.enrich(config.tau_lp, config.m_cap)


def document_network(
    doc: Document,
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
    transe: EmbeddingModel | None = None,
) -> SemanticNetwork:
    """Run the full per-document pipeline: link, extract, build, enrich, fuse."""
    require_models(config, kb, extractor, transe)
    rows = NetworkRows(transe)
    _add_document(rows, doc, lexicon, config, kb, extractor)
    if config.fuse:
        rows.fuse()
    return network_from_columns(doc.id, rows, 0, lexicon)


def index_corpus(
    corpus: list[Document],
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
    transe: EmbeddingModel | None = None,
) -> Index:
    """Build the network of every document as a row, then fuse and label all rows at once.

    The rows grow in doc id order, the order the index holds them in, so the
    kernel labels (``wl_corpus_labels``) and the index bytes depend only on
    the set of documents, not on their order in the corpus.
    """
    require_models(config, kb, extractor, transe)
    rows, seen = NetworkRows(transe), set()
    for doc in corpus:
        if doc.id in seen:
            raise ValidationError(f"duplicate document id {doc.id}")
        seen.add(doc.id)
    for doc in sorted(corpus, key=lambda doc: doc.id):
        _add_document(rows, doc, lexicon, config, kb, extractor)
    if config.fuse:
        rows.fuse()
    columns = rows.columns()
    columns = replace(columns, node_labels=wl_corpus_labels(columns, config.h))
    log.info("indexed %d documents (%d kernel labels)", len(corpus), columns.node_labels.max(initial=-1) + 1)
    return Index(config, lexicon, kb, extractor, transe, *_derive(sorted(seen), columns, config.h, lexicon, transe))


def _embed_rows(columns: NetworkColumns, transe: EmbeddingModel | None) -> np.ndarray:
    """``doc_embedding`` of every network of ``columns`` at once, one row each.

    Step j adds the j-th weighted node vector of every row that has one, so
    each row sums its nodes in the order ``doc_embedding`` does and gets its
    bits.
    """
    ptr = columns.node_ptr
    if transe is None:
        return np.zeros((len(ptr) - 1, 0))
    entity = {cui: i for i, cui in enumerate(transe.entity_vectors)}
    matrix = np.array(list(transe.entity_vectors.values())).reshape(len(entity), transe.config.dim)
    # Each cui of the table is mapped once; nodes without an entity vector are skipped.
    entities = np.array([entity.get(cui, -1) for cui in columns.cuis], np.int64)[columns.node_cuis]
    weights = np.diff(columns.span_ptr) // 2
    known = entities >= 0
    rows = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))[known]
    entities, weights = entities[known], weights[known]
    steps = np.arange(len(rows)) - np.searchsorted(rows, rows)  # each node's position within its row
    order = np.argsort(steps, kind="stable")
    bounds = np.searchsorted(steps[order], np.arange(steps.max(initial=-1) + 2))
    embeddings = np.zeros((len(ptr) - 1, transe.config.dim))
    for start, end in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        step = order[start:end]  # one node of each row at most
        embeddings[rows[step]] += weights[step, None] * matrix[entities[step]]
    masses = np.bincount(rows, weights=weights, minlength=len(ptr) - 1)
    massive = masses > 0
    embeddings[massive] /= masses[massive, None]
    return embeddings


def row_norms(matrix: np.ndarray) -> np.ndarray:
    """The norm of every row of ``matrix``, each with the bits of ``np.linalg.norm`` on the row alone.

    A stack of (1 x d) @ (d x 1) products reduces each row as ``row.dot(row)``
    does; ``einsum("ij,ij->i")`` does not.
    """
    return np.sqrt(np.matmul(matrix[:, None, :], matrix[:, :, None]).ravel())


def _derive(
    doc_ids: list[str], columns: NetworkColumns, h: int, lexicon: Lexicon, transe: EmbeddingModel | None
) -> tuple[LabelCompressor, StoredNetworks, DocRows]:
    """What an index derives from its networks' columns, built or loaded alike: the compressor, the networks and ``DocRows``.

    A document's kernel features count the labels its nodes hold at
    iterations 0..h, in ascending label order.
    """
    compressor = compressor_from_columns(doc_ids, columns, h)
    next_id = max(compressor.next_id, 1)
    items = np.repeat(np.arange(len(doc_ids)), np.diff(columns.node_ptr) * (h + 1))
    features, counts = np.unique(items * next_id + columns.node_labels, return_counts=True)  # row by row, labels ascending
    rows, labels = np.divmod(features, next_id)
    ptr = np.zeros(len(doc_ids) + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=len(doc_ids)), out=ptr[1:])
    order = np.argsort(labels, kind="stable")  # rows stay ascending within a label
    label_ptr = np.zeros(compressor.next_id + 1, np.int64)
    np.cumsum(np.bincount(labels, minlength=compressor.next_id), out=label_ptr[1:])
    embeddings = _embed_rows(columns, transe)
    return compressor, StoredNetworks(doc_ids, columns, lexicon), DocRows(
        doc_ids,
        ptr,
        labels,
        counts,
        label_ptr,
        rows[order],
        counts[order],
        np.bincount(rows, weights=counts * counts, minlength=len(doc_ids)).astype(np.int64),  # exact below 2**53
        embeddings,
        row_norms(embeddings),
    )


def _score_rows(
    rows: DocRows,
    owners: np.ndarray,
    labels: np.ndarray,
    counts: np.ndarray,
    embeddings: np.ndarray,
    norms: np.ndarray,
    lam: float,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``combine`` of a block of queries with the rows from ``start`` on: the (queries x rows) scores and kernel dots.

    Query ``q`` is the kernel entries ``labels``/``counts`` whose ``owners``
    entry is ``q``, and the embedding ``embeddings[q]`` with its
    ``np.linalg.norm`` in ``norms[q]``. The kernel is
    ``dot / sqrt(qq * self_dot)`` on exact integers, as
    ``wl_kernel_normalized`` computes it; the kernel and the cosine are 0
    against an empty graph or a zero embedding.
    """
    width = len(rows.doc_ids) - start
    shape = (len(embeddings), width)
    # Each query's integer self-dot, exact below 2**53.
    squares = np.bincount(owners, weights=counts * counts, minlength=len(embeddings)).astype(np.int64)
    known = labels < len(rows.label_ptr) - 1  # overlay labels of a query occur in no document
    owners, labels, counts = owners[known], labels[known], counts[known]
    starts, ends = rows.label_ptr[labels], rows.label_ptr[labels + 1]
    lengths = ends - starts
    # Positions of all postings of those labels: each label's slice laid end to end.
    postings = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    # A posting's cell is its row for one query scored from row 0; in a block
    # it moves to its query's line of the matrix and its column from start.
    cells = rows.label_rows[postings]
    weights = rows.label_counts[postings] * np.repeat(counts, lengths)
    if start or len(embeddings) > 1:
        ahead = cells >= start
        cells = (np.repeat(owners * width - start, lengths) + cells)[ahead]
        weights = weights[ahead]
    dots = np.bincount(cells, weights=weights, minlength=shape[0] * width).reshape(shape)  # integers, exact in float64
    kernel_norms = np.sqrt(squares[:, None] * rows.self_dots[start:])
    kernel = np.divide(dots, kernel_norms, out=np.zeros(shape), where=kernel_norms > 0)
    # einsum, not BLAS: it reduces every pair alike, row by row as for one
    # query, so equal rows get equal cosines and exact ties break by doc id.
    cos_norms = norms[:, None] * rows.embedding_norms[start:]
    products = np.einsum("ij,kj->ki", rows.embeddings[start:], embeddings)
    cos = np.divide(products, cos_norms, out=np.zeros(shape), where=cos_norms != 0)
    return combine(kernel, cos, lam), dots


def _top_rows(scores: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """The first ``k`` candidates in (-score, row) order, without sorting them all.

    Only the candidates scoring at least the k-th best score are sorted,
    every one tied with it included, so the result is the prefix of a full
    stable sort.
    """
    ranked = scores[candidates]
    if k < len(candidates):
        kept = ranked >= -np.partition(-ranked, k - 1)[k - 1]  # the k-th best score and all tied with it
        candidates, ranked = candidates[kept], ranked[kept]
    return candidates[np.argsort(-ranked, kind="stable")[:k]]  # stable: ties keep doc id order


def search(
    index: Index,
    query_text: str,
    k: int,
    lam: float | None = None,
    prune: bool = False,
) -> list[SearchResult]:
    """Rank documents against a query case processed by the document pipeline.

    The query's network stops before fusion (``_add_document``). With
    ``prune`` only documents sharing a kernel label, i.e. a concept, with the
    query are ranked. Ties break by ascending doc id; fewer than ``k``
    results are returned when candidates run out.
    """
    check("k", k)
    lam = check("lambda_weight", index.config.lambda_weight if lam is None else lam, "lambda")
    rows = NetworkRows(index.transe)
    _add_document(rows, Document("query", "", query_text), index.lexicon, index.config, index.kb, index.extractor)
    features = wl_features(rows, index.h, index.compressor.overlay()).counts
    labels = np.fromiter(features, np.int64, len(features))
    counts = np.fromiter(features.values(), np.int64, len(features))
    embedding = doc_embedding(rows, index.transe).vector if index.transe is not None else np.zeros(0)
    owners, norms = np.zeros(len(labels), np.int64), np.linalg.norm(embedding, keepdims=True)
    scores, dots = _score_rows(index.rows, owners, labels, counts, embedding[None], norms, lam)
    scores = scores[0]
    top = _top_rows(scores, np.flatnonzero(dots[0]) if prune else np.arange(len(scores)), k)
    doc_ids = index.rows.doc_ids
    return [
        SearchResult(doc_ids[row], score, rank)
        for rank, (row, score) in enumerate(zip(top.tolist(), scores[top].tolist()), start=1)
    ]


def build_collection_graph(index: Index, lam: float | None = None, tau_doc: float | None = None) -> CollectionGraph:
    """Score all unordered document pairs and keep those at or above tau_doc, in (doc_a, doc_b) order.

    The rows are scored in blocks, each against the rows from its first one
    on, and pairs are read off the strict upper triangle of every block.
    """
    lam = check("lambda_weight", index.config.lambda_weight if lam is None else lam, "lambda")
    tau_doc = check("tau_doc", index.config.tau_doc if tau_doc is None else tau_doc)
    rows = index.rows
    n = len(rows.doc_ids)
    # joined[i]: the postings that the kernel entries of rows before i join.
    joined = np.concatenate([[0], np.cumsum(np.diff(rows.label_ptr)[rows.labels])])[rows.ptr]
    edges = []
    first = 0
    while first < n:
        by_postings = int(np.searchsorted(joined, joined[first] + _BLOCK_NUMBERS, side="right")) - 1
        end = min(n, max(first + 1, min(by_postings, first + _BLOCK_NUMBERS // (n - first))))
        block, own = slice(first, end), slice(rows.ptr[first], rows.ptr[end])
        owners = np.repeat(np.arange(end - first), np.diff(rows.ptr[first : end + 1]))
        embeddings, norms = rows.embeddings[block], rows.embedding_norms[block]
        scores, _ = _score_rows(rows, owners, rows.labels[own], rows.counts[own], embeddings, norms, lam, first)
        pairs = np.nonzero(np.triu(scores >= tau_doc, 1))
        edges += [
            (rows.doc_ids[first + a], rows.doc_ids[first + b], score)
            for a, b, score in zip(*(axis.tolist() for axis in pairs), scores[pairs].tolist())
        ]
        first = end
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
    config = {**asdict(index.config), **dict.fromkeys(_PATH_FIELDS)}
    return {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": config,
        "lexicon": lexicon_to_dict(index.lexicon),
        "kb": triples_to_dict(index.kb) if index.kb is not None else None,
        "extractor": extractor_to_columns(index.extractor) if index.extractor is not None else None,
        "transe": model_to_columns(index.transe) if index.transe is not None else None,
        "docs": list(index.rows.doc_ids),
        "networks": columns_to_dict(index.networks.columns),
    }


def index_from_dict(data: dict) -> Index:
    """Decode a container payload and check it in full; networks stay columns until they are read."""
    try:
        config = PipelineConfig(**data["config"])
    except UsageError as exc:
        raise FormatError(f"invalid config ({exc})") from None
    docs = strings(data["docs"], "doc ids", ascending=True)
    columns = columns_from_dict(data["networks"])
    check_columns(docs, columns)
    lexicon = lexicon_from_dict(data["lexicon"])
    kb = triples_from_dict(data["kb"]) if data["kb"] is not None else None
    extractor = extractor_from_columns(data["extractor"]) if data["extractor"] is not None else None
    transe = model_from_columns(data["transe"]) if data["transe"] is not None else None
    require_models(config, kb, extractor, transe)
    return Index(config, lexicon, kb, extractor, transe, *_derive(docs, columns, config.h, lexicon, transe))


def save_index(index: Index, path: str | Path) -> None:
    save_container(path, INDEX_FORMAT, INDEX_VERSION, index_to_dict(index))


def load_index(path: str | Path) -> Index:
    return load_container(path, INDEX_FORMAT, INDEX_VERSION, index_from_dict)
