"""Corpus indexing, query search, and the document-document collection graph.

Every document, indexed or searched, is analyzed once (``analyze``) into one
columnar ``Analysis`` record: its tokens (texts, normal forms, byte offsets),
the token bounds of its sentences, its mentions (offsets, first and last
token, cuis) and its candidate pairs (head and tail mention indices, the
token bounds between them, their sentence). Extraction (``extract_edges``)
reads that record's columns, and ``_add_row`` appends the document's
network to ``network.NetworkRows`` and enriches it there. ``index_corpus``
adds every document of the corpus as a row in doc id order and fuses all
rows at once; it makes no per-document network object.
Its documents, like those of the ``extract`` command, come from
``analyzed_edges``: analysis stays per document, but in mode ``model`` the
corpus is extracted per batch of ``_EXTRACT_BATCH`` documents, scored at
once by ``relations.extract_batch`` with the edges each document gets alone.
``search`` adds its query as a row of its own and stops before fusion,
which no score reads; ``document_network`` runs one document on to a fused
``SemanticNetwork``. Which models a configuration reads is decided once,
by ``require_models``, whenever an index is built or loaded.

The index bundles everything needed to answer queries with the exact
pipeline the documents went through: the lexicon, the models its
configuration reads (the triple store in ``kbmatch`` mode, the extractor
in ``model`` mode, TransE whenever it is given), and the networks. It
persists as a single versioned JSON container (version 7) whose bytes are
reproducible for a fixed corpus, configuration, and seed. Each model is stored as lists of names and typed
columns: the lexicon and the triple store as ``kb`` describes them, the
TransE model as its entity and relation names ascending with their vectors
as one ``float64`` column each (``transe.model_to_columns``), and the
extractor as its labels, its features ascending (a feature's position is
its id) and its weights as one ``float64`` column
(``relations.extractor_to_columns``); the model files hold the same
payloads. Loading rebuilds the same in-memory models, with their checks.
Each model object keeps the JSON text of its part from its first save
(``_encoded``), and drops it when the package changes the object
(``Lexicon._add``, ``TripleStore._add``, each epoch ``transe.train`` hands
back). ``save_index`` splices that text in (``kb.save_container``), so a
later save with the same model objects encodes only the networks, with
the bytes of encoding the whole payload.
It stores the sorted doc ids and the networks column-wise, one row per
document in doc id order (``network.NetworkColumns``):
node and edge pointers, cui ids into one sorted cui table, span pointers and
bounds, endpoints as node positions within the document, relation ids into
one relation table, provenance ids and confidences, so the index bytes
depend only on the set of documents. Kernel labels are not stored: they are
a function of the networks. Every numeric column is a base64 string of
little-endian ``int32`` (confidences ``float64``) items, which loading reads
with ``np.frombuffer`` (``kb.pack``/``kb.unpack``); the strings stay
readable JSON.

Everything else is derived on the first read of an index's compressor or
rows (``Index``), which a load makes before it returns, while building and
saving derive nothing. One function (``_derive``) derives it with array
operations: every node's kernel labels at iterations 0..h and the label
compressor that holds their signatures, from one
``similarity.wl_corpus_labels`` call; each document's kernel features, its
nodes' labels in ascending order, each held once, since a network's nodes
have distinct cuis; and what scoring needs (``DocRows``): the label-major
transpose of the kernel features, i.e. an inverted index from each kernel
label to the documents holding it, with each document's kernel self-dot, its
number of labels, and a matrix of document embeddings with their norms,
computed for all documents in one pass over the node columns. The kernel of
two networks is the number of labels they share over ``sqrt(|A| * |B|)``.
One block scorer (``_score_rows``) scores a block of query rows against the
documents: one count of the postings of the rows' labels into a (rows x
documents) matrix (``_kernel_rows``) and one ``einsum`` of the embeddings
(``_cosines``). A query is a block of one row. The collection graph computes
the kernels of the documents themselves in blocks of at most
``_BLOCK_NUMBERS`` postings and cells, each against the documents from its
first row on, and the cosines only for the pairs of the strict upper
triangle whose kernel can still reach ``tau_doc``, one ``einsum`` per pair.
Every score has the bits of scoring its row alone: the kernel dots are
integer sums, the norms the same elementwise products, and ``einsum``
reduces each (row, document) pair as it does for one row, where a BLAS
product would not.

Loading checks everything before it returns, with array operations: the
configuration, the models (``kb.lexicon_from_dict``,
``kb.triples_from_dict``, ``transe.model_from_columns``,
``relations.extractor_from_columns``), the doc ids, that every column is
whole base64 and every pointer starts at 0, never decreases and ends at its
column's length, and that the network columns decode into valid networks
(``network.check_columns``), and that their kernel labels fit the
labeller's int64 keys. It builds no network. Every index, built or
loaded, holds its networks only as those columns (``StoredNetworks``):
saving writes the columns as they are, and ``Index.networks`` decodes a
document's row on first access. An older container version is refused with
``FormatError``.
"""

from __future__ import annotations

import logging
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .config import PipelineConfig, check
from .errors import ConfigError, FormatError, UsageError, ValidationError
from .kb import (
    Document,
    Lexicon,
    TripleStore,
    encode,
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
    extract_batch,
    extract_relations,
    extractor_from_columns,
    extractor_to_columns,
    generate_candidates,
    kb_match_extract,
)
from .similarity import LabelCompressor, combine, doc_embedding, wl_corpus_labels, wl_features
from .transe import EmbeddingModel, model_from_columns, model_to_columns, row_norms
from .trec import one_field

log = logging.getLogger(__name__)

INDEX_FORMAT = "casegraph-index"
INDEX_VERSION = 7

# The most postings, and the most (query x row) cells, that one block of the
# collection graph joins and scores at once. From 2**13 to 2**16 graphs of
# 150-1,000 documents took about the same time; at 2**15 a block's
# temporaries peak at about 3.5 MB, at 2**19 at 45 MB and 2-3x slower.
_BLOCK_NUMBERS = 2**15

# A block of the collection graph computes cosines only for its pairs whose
# kernel can still reach tau_doc, unless they are more than this share of its
# cells: then one dense einsum is faster (the pair path broke even at 20-23 %).
_PAIR_SHARE = 1 / 8

# The most documents whose edges one ``extract_batch`` call scores in mode
# ``model``. Their analyses are held until then: about 1.3 MB for abstracts
# of about 80 tokens and 20 candidate pairs (21 KB of analysis each).
_EXTRACT_BATCH = 64


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

    Row ``i`` holds the kernel labels ``labels[ptr[i]:ptr[i + 1]]``
    (ascending), each once: a network's nodes have distinct cuis, so no two
    of them share a label at any iteration, and no label of one iteration
    equals one of another. ``label_rows[label_ptr[l]:label_ptr[l + 1]]`` are
    the rows holding label ``l`` (ascending). A row's kernel self-dot, its
    number of labels, is in ``self_dots``. ``embeddings`` holds one document
    embedding per row (no columns without an embedding model), and
    ``embedding_norms`` their norms.
    """

    doc_ids: list[str]
    ptr: np.ndarray
    labels: np.ndarray
    label_ptr: np.ndarray
    label_rows: np.ndarray
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
    """What an index stores; its ``compressor`` and ``rows`` come from one ``_derive`` call on the first read of either."""

    config: PipelineConfig
    lexicon: Lexicon
    kb: TripleStore | None
    extractor: ExtractorModel | None
    transe: EmbeddingModel | None
    networks: StoredNetworks

    @property
    def h(self) -> int:
        return self.config.h

    @cached_property
    def _derived(self) -> tuple[LabelCompressor, StoredNetworks, DocRows]:
        return _derive(list(self.networks), self.networks.columns, self.h, self.lexicon, self.transe, self.networks)

    @property
    def compressor(self) -> LabelCompressor:
        return self._derived[0]

    @property
    def rows(self) -> DocRows:
        return self._derived[2]


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
) -> tuple[TripleStore | None, ExtractorModel | None, EmbeddingModel | None]:
    """The models that ``config`` reads, as ``(kb, extractor, transe)``; ConfigError unless it has them all.

    Mode ``model`` reads a relation extractor and ``kbmatch`` a triple store,
    never the other; enrichment and fusion need a TransE model, which is
    kept whenever it is given, since it also serves the cosine half of the
    score.
    """
    if config.mode == "model" and extractor is None:
        raise ConfigError("mode 'model' requires a trained relation extractor")
    if config.mode == "kbmatch" and kb is None:
        raise ConfigError("mode 'kbmatch' requires a triple store")
    if config.enrich and transe is None:
        raise ConfigError("enrichment requires an embedding model")
    if config.fuse and transe is None:
        raise ConfigError("confidence fusion requires an embedding model")
    if config.mode == "model":
        return None, extractor, transe
    return kb, None, transe


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


def analyzed_edges(
    docs: Iterable[Document],
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None = None,
    extractor: ExtractorModel | None = None,
    mentions: Mapping[str, Sequence[Mention]] | None = None,
) -> Iterator[tuple[Document, Analysis, list[Edge]]]:
    """Each document in order with its analysis and its edges: analyzed one by one, extracted a batch at a time.

    Given ``mentions``, a document is paired on its entry there (none without
    one) and not linked. In mode ``model`` the edges of up to
    ``_EXTRACT_BATCH`` documents come from one ``extract_batch`` call, with
    the bits ``extract_edges`` gives each document alone; ``kbmatch`` calls
    ``extract_edges`` per document. The mode's model must be given.
    """
    docs = iter(docs)
    while batch := [
        (doc, analyze(doc, lexicon, config.window, None if mentions is None else mentions.get(doc.id, [])))
        for doc in islice(docs, _EXTRACT_BATCH)
    ]:
        analyses = [analysis for _, analysis in batch]
        if config.mode == "model":
            edges = extract_batch([(a.pairs, a.tokens) for a in analyses], extractor, config.theta_rel, lexicon)
        else:
            edges = [extract_edges(analysis, lexicon, config, kb) for analysis in analyses]
        for (doc, analysis), doc_edges in zip(batch, edges):
            yield doc, analysis, doc_edges


def _add_row(rows: NetworkRows, doc_id: str, analysis: Analysis, edges: list[Edge], config: PipelineConfig) -> None:
    """Append a document's network to ``rows``, enriched if configured.

    ``search`` stops here: no score reads an edge's confidence, so fusing a
    query's network would not change its ranking.
    """
    rows.add(doc_id, analysis.mentions, edges)
    if config.enrich:
        rows.enrich(config.tau_lp, config.m_cap)


def _add_document(
    rows: NetworkRows,
    doc: Document,
    lexicon: Lexicon,
    config: PipelineConfig,
    kb: TripleStore | None,
    extractor: ExtractorModel | None,
) -> None:
    """Analyze ``doc`` on its own, extract its edges, and add its row (``_add_row``)."""
    analysis = analyze(doc, lexicon, config.window)
    _add_row(rows, doc.id, analysis, extract_edges(analysis, lexicon, config, kb, extractor), config)


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
    """Build the network of every document as a row, then fuse all rows at once.

    The rows grow in doc id order, the order the index holds them in, so the
    index bytes and the kernel labels derived on first read (``Index``)
    depend only on the set of documents, not on their order in the corpus.
    A doc id must be distinct and one field of a run line (``trec.one_field``).
    """
    kb, extractor, transe = require_models(config, kb, extractor, transe)
    rows, seen = NetworkRows(transe), set()
    for doc in corpus:
        one_field("document id", doc.id)
        if doc.id in seen:
            raise ValidationError(f"duplicate document id {doc.id}")
        seen.add(doc.id)
    for doc, analysis, edges in analyzed_edges(sorted(corpus, key=lambda doc: doc.id), lexicon, config, kb, extractor):
        _add_row(rows, doc.id, analysis, edges, config)
    if config.fuse:
        rows.fuse()
    columns = rows.columns()
    log.info("indexed %d documents (%d nodes, %d edges)", len(corpus), len(columns.node_cuis), len(columns.heads))
    return Index(config, lexicon, kb, extractor, transe, StoredNetworks(sorted(seen), columns, lexicon))


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


def _derive(
    doc_ids: list[str], columns: NetworkColumns, h: int, lexicon: Lexicon, transe: EmbeddingModel | None,
    networks: StoredNetworks | None = None,
) -> tuple[LabelCompressor, StoredNetworks, DocRows]:
    """What an index derives from its networks' columns: the compressor, the networks and ``DocRows``.

    ``Index`` calls it on the first read of its compressor or rows, passing
    its own ``networks`` (those of ``doc_ids`` and ``columns``). One
    ``wl_corpus_labels`` call labels every node at iterations 0..h and gives
    the compressor; a document's kernel features are the labels its nodes
    hold, h + 1 distinct ones per node (``DocRows``), in ascending order.
    """
    node_labels, compressor = wl_corpus_labels(columns, h)
    next_id = max(compressor.next_id, 1)
    rows = np.repeat(np.arange(len(doc_ids)), np.diff(columns.node_ptr) * (h + 1))
    labels = np.sort(rows * next_id + node_labels) % next_id  # row by row, labels ascending
    ptr = columns.node_ptr.astype(np.int64) * (h + 1)
    # Label-major, rows ascending within a label: the keys are distinct, so
    # the default sort gives the stable order, in about half the time.
    order = np.argsort(labels * len(doc_ids) + rows)
    label_ptr = np.zeros(compressor.next_id + 1, np.int64)
    np.cumsum(np.bincount(labels, minlength=compressor.next_id), out=label_ptr[1:])
    embeddings = _embed_rows(columns, transe)
    networks = StoredNetworks(doc_ids, columns, lexicon) if networks is None else networks
    return compressor, networks, DocRows(
        doc_ids,
        ptr,
        labels,
        label_ptr,
        rows[order],
        np.diff(ptr),
        embeddings,
        row_norms(embeddings),
    )


def _kernel_rows(
    rows: DocRows, owners: np.ndarray, labels: np.ndarray, queries: int, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel half of ``_score_rows``: the (queries x rows) kernel values and kernel dots, the labels each pair shares."""
    width = len(rows.doc_ids) - start
    shape = (queries, width)
    sizes = np.bincount(owners, minlength=queries)  # each query's self-dot: its number of labels
    known = labels < len(rows.label_ptr) - 1  # overlay labels of a query occur in no document
    owners, labels = owners[known], labels[known]
    starts, ends = rows.label_ptr[labels], rows.label_ptr[labels + 1]
    lengths = ends - starts
    # Positions of all postings of those labels: each label's slice laid end to end.
    postings = np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
    # A posting's cell is its row for one query scored from row 0; in a block
    # it moves to its query's line of the matrix and its column from start.
    cells = rows.label_rows[postings]
    if start or queries > 1:
        cells = (np.repeat(owners * width - start, lengths) + cells)[cells >= start]
    dots = np.bincount(cells, minlength=shape[0] * width).reshape(shape)  # int64, exact in float64 below 2**53
    kernel_norms = np.sqrt(sizes[:, None] * rows.self_dots[start:])
    return np.divide(dots, kernel_norms, out=np.zeros(shape), where=kernel_norms > 0), dots


def _cosines(rows: DocRows, embeddings: np.ndarray, norms: np.ndarray, start: int) -> np.ndarray:
    """The cosine half of ``_score_rows``: the (queries x rows) embedding cosines."""
    cos_norms = norms[:, None] * rows.embedding_norms[start:]
    # einsum, not BLAS: it reduces every pair alike, row by row as for one
    # query, so equal rows get equal cosines and exact ties break by doc id.
    products = np.einsum("ij,kj->ki", rows.embeddings[start:], embeddings)
    return np.divide(products, cos_norms, out=np.zeros(cos_norms.shape), where=cos_norms != 0)


def _score_rows(
    rows: DocRows,
    owners: np.ndarray,
    labels: np.ndarray,
    embeddings: np.ndarray,
    norms: np.ndarray,
    lam: float,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """``combine`` of a block of queries with the rows from ``start`` on: the (queries x rows) scores and kernel dots.

    Query ``q`` is the distinct kernel ``labels`` whose ``owners`` entry is
    ``q``, and the embedding ``embeddings[q]`` with its ``np.linalg.norm`` in
    ``norms[q]``. Since a network holds each label once, the kernel is the
    number of labels a query and a row share over ``sqrt(|q| * |row|)``, on
    exact integers, as the scalar ``similarity.combined_similarity``
    computes it; the kernel and the cosine are 0 against an empty graph or a
    zero embedding.
    """
    kernel, dots = _kernel_rows(rows, owners, labels, len(embeddings), start)
    return combine(kernel, _cosines(rows, embeddings, norms, start), lam), dots


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
    features = wl_features(rows, index.h, index.compressor.overlay())
    labels = np.fromiter(features, np.int64, len(features))  # each count is 1 (DocRows)
    embedding = doc_embedding(rows, index.transe) if index.transe is not None else np.zeros(0)
    owners, norms = np.zeros(len(labels), np.int64), np.linalg.norm(embedding, keepdims=True)
    scores, dots = _score_rows(index.rows, owners, labels, embedding[None], norms, lam)
    scores = scores[0]
    top = _top_rows(scores, np.flatnonzero(dots[0]) if prune else np.arange(len(scores)), k)
    doc_ids = index.rows.doc_ids
    return [
        SearchResult(doc_ids[row], score, rank)
        for rank, (row, score) in enumerate(zip(top.tolist(), scores[top].tolist()), start=1)
    ]


def build_collection_graph(index: Index, lam: float | None = None, tau_doc: float | None = None) -> CollectionGraph:
    """Score all unordered document pairs and keep those at or above tau_doc, in (doc_a, doc_b) order.

    The rows' kernels are computed in blocks, each against the rows from its
    first one on, and pairs are read off the strict upper triangle of every
    block. Cosines are computed only for the pairs whose kernel can still
    reach tau_doc, since the cosine half adds at most ``1 - lam``; a block
    with more such pairs than ``_PAIR_SHARE`` of its cells scores them all.
    Either way every score has the bits ``_score_rows`` gives it.
    """
    lam = check("lambda_weight", index.config.lambda_weight if lam is None else lam, "lambda")
    tau_doc = check("tau_doc", index.config.tau_doc if tau_doc is None else tau_doc)
    rows = index.rows
    n = len(rows.doc_ids)
    ids = np.array(rows.doc_ids, dtype=object)
    # joined[i]: the postings that the kernel entries of rows before i join.
    joined = np.concatenate([[0], np.cumsum(np.diff(rows.label_ptr)[rows.labels])])[rows.ptr]
    edges = []
    first = 0
    while first < n:
        by_postings = int(np.searchsorted(joined, joined[first] + _BLOCK_NUMBERS, side="right")) - 1
        end = min(n, max(first + 1, min(by_postings, first + _BLOCK_NUMBERS // (n - first))))
        block, own = slice(first, end), slice(rows.ptr[first], rows.ptr[end])
        owners = np.repeat(np.arange(end - first), np.diff(rows.ptr[first : end + 1]))
        kernel, _ = _kernel_rows(rows, owners, rows.labels[own], end - first, first)
        # The margin covers the rounding of the cosine and of combine's sum.
        candidates = np.triu(lam * kernel >= tau_doc - (1 - lam) - 1e-9, 1)
        if np.count_nonzero(candidates) > _PAIR_SHARE * kernel.size:
            scores = combine(kernel, _cosines(rows, rows.embeddings[block], rows.embedding_norms[block], first), lam)
            a, b = np.nonzero(np.triu(scores >= tau_doc, 1))
            scores = scores[a, b]
        else:
            a, b = np.nonzero(candidates)
            # The operands and reduction of the block's einsum, one pair at a time.
            products = np.einsum("ij,ij->i", rows.embeddings[first + b], rows.embeddings[first + a])
            cos_norms = rows.embedding_norms[first + a] * rows.embedding_norms[first + b]
            cos = np.divide(products, cos_norms, out=np.zeros(len(a)), where=cos_norms != 0)
            scores = combine(kernel[a, b], cos, lam)
            kept = scores >= tau_doc
            a, b, scores = a[kept], b[kept], scores[kept]
        edges += zip(ids[first + a].tolist(), ids[first + b].tolist(), scores.tolist())
        first = end
    return CollectionGraph(edges)


def collection_graph_to_dot(graph: CollectionGraph) -> str:
    """Undirected DOT rendering with the similarity as a 3-decimal edge label; ids are quoted, each ``\\`` and ``"`` escaped."""
    ids = set(map(itemgetter(0), graph.edges)) | set(map(itemgetter(1), graph.edges))
    quoted = {doc_id: doc_id.replace("\\", "\\\\").replace('"', '\\"') for doc_id in ids}
    lines = ["graph collection {"]
    lines += [f'  "{quoted[a]}" -- "{quoted[b]}" [label={score:.3f}];' for a, b, score in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


_PATH_FIELDS = ("lexicon", "triples", "corpus", "extractor_model", "transe_model", "index")


def index_to_dict(index: Index, encoded: bool = False) -> dict:
    """The container payload, format tag and version included.

    With ``encoded``, each embedded model is its ``kb.Encoded`` text, which
    ``save_container`` splices in. The text is built once per model object
    and kept on it (``_encoded``) until the package changes the object.
    """

    def model(obj, to_dict):
        if obj is None:
            return None
        if not encoded:
            return to_dict(obj)
        if obj._encoded is None:
            obj._encoded = encode(to_dict(obj))
        return obj._encoded

    # Input paths are dropped: the artifacts they pointed at are embedded, and
    # keeping them would make index bytes depend on where the inputs lived.
    config = {**asdict(index.config), **dict.fromkeys(_PATH_FIELDS)}
    return {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "config": config,
        "lexicon": model(index.lexicon, lexicon_to_dict),
        "kb": model(index.kb, triples_to_dict),
        "extractor": model(index.extractor, extractor_to_columns),
        "transe": model(index.transe, model_to_columns),
        "docs": list(index.networks),
        "networks": columns_to_dict(index.networks.columns),
    }


def index_from_dict(data: dict) -> Index:
    """Decode a container payload and check it in full; networks stay columns until they are read."""
    try:
        config = PipelineConfig(**data["config"])
    except UsageError as exc:
        raise FormatError(f"invalid config ({exc})") from None
    docs = strings(data["docs"], "doc ids", ascending=True)
    # Every search writes doc ids into run lines; the join holds exactly when each id is one field.
    if " ".join(docs).split() != docs:
        try:
            for doc_id in docs:
                one_field("document id", doc_id)
        except ValidationError as exc:
            raise FormatError(str(exc)) from None
    columns = columns_from_dict(data["networks"])
    check_columns(docs, columns)
    lexicon = lexicon_from_dict(data["lexicon"])
    kb = triples_from_dict(data["kb"]) if data["kb"] is not None else None
    extractor = extractor_from_columns(data["extractor"]) if data["extractor"] is not None else None
    transe = model_from_columns(data["transe"]) if data["transe"] is not None else None
    kb, extractor, transe = require_models(config, kb, extractor, transe)
    index = Index(config, lexicon, kb, extractor, transe, StoredNetworks(docs, columns, lexicon))
    index.rows  # derived before the load returns, so loading checks everything
    return index


def save_index(index: Index, path: str | Path) -> None:
    save_container(path, INDEX_FORMAT, INDEX_VERSION, index_to_dict(index, encoded=True))


def load_index(path: str | Path) -> Index:
    return load_container(path, INDEX_FORMAT, INDEX_VERSION, index_from_dict)
