"""In-memory span tracing by patching casegraph's module attributes.

The benchmark wraps the public functions that ``engine``, ``cli`` and the
runner call, records one span per call (name, start, end, parent, request
id) plus counters observed at the same boundary, and writes the spans out
when the run ends. Nothing inside the program is changed: the wrappers are
installed on the module objects and removed again afterwards.

A wrapped name that the program no longer defines is recorded as missing,
so the metrics built from it are reported as missing rather than as zero.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# Span name of each wrapped function. engine and cli import these names into
# their own namespaces, so every namespace that calls a function is patched.
_SPAN_NAMES = {
    "tokenize": "linking.tokenize",
    "split_sentences": "linking.split_sentences",
    "link": "linking.link",
    "generate_candidates": "relations.generate_candidates",
    "extract_relations": "relations.extract",
    "kb_match_extract": "relations.extract",
    "train_extractor": "relations.train_extractor",
    "build_network": "network.build",
    "enrich_network": "network.enrich",
    "fuse_network": "network.fuse",
    "wl_features": "similarity.wl_features",
    "doc_embedding": "similarity.doc_embedding",
    "train": "transe.train",
    "evaluate_link_prediction": "transe.eval_lp",
    "load_lexicon": "kb.load",
    "load_triples": "kb.load",
    "load_corpus": "kb.load",
    "evaluate_run": "trec.evaluate_run",
    "document_network": "engine.document_network",
    "index_corpus": "engine.index_corpus",
    "search": "engine.search",
    "build_collection_graph": "engine.collection_graph",
    "save_index": "engine.save_index",
    "load_index": "engine.load_index",
}
# (module, attributes). The engine and runner bindings carry the measured
# work, so losing one of them makes the metrics of its span missing. The cli
# bindings are wrapped for completeness; the benchmark never drives the cli.
_REQUIRED = {
    "engine": (
        "tokenize", "split_sentences", "link", "generate_candidates", "extract_relations", "kb_match_extract",
        "build_network", "enrich_network", "fuse_network", "wl_features", "doc_embedding",
        "document_network", "index_corpus", "search", "build_collection_graph", "save_index", "load_index",
    ),
    "linking": ("tokenize", "split_sentences", "link"),
    "relations": ("generate_candidates", "train_extractor"),
    "transe": ("train", "evaluate_link_prediction"),
    "kb": ("load_lexicon", "load_triples", "load_corpus"),
    "trec": ("evaluate_run",),
}
_OPTIONAL = {
    "cli": (
        "tokenize", "split_sentences", "link", "generate_candidates", "extract_relations", "kb_match_extract",
        "train_extractor", "build_network", "enrich_network", "fuse_network", "train", "evaluate_link_prediction",
        "load_lexicon", "load_triples", "load_corpus",
    ),
}
# Counted, not timed: one call per scored document pair, far too many for spans.
_COUNTED = ("engine", "wl_kernel_normalized", "similarity.pair_scores")


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []  # [name, start, end, parent index or -1, request id]
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.gauges: dict[str, float] = {}
        self.missing: set[str] = set()  # "module.attr" bindings that no longer exist
        self.missing_spans: set[str] = set()  # span names that lost a required binding
        self.search_index = None
        self.request: str | None = None  # request id of top-level spans; the runner sets the query id
        self.active = True  # False while the runner checks outputs: that work is not the workload's
        self._patched: list[tuple[object, str, object]] = []
        self._postings: tuple[object, dict[str, set[str]]] | None = None

    # -- spans ---------------------------------------------------------------

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    @contextmanager
    def span(self, name: str, request: str | None = None):
        parent = self.stack[-1] if self.stack else -1
        if request is None:
            request = self.spans[parent][4] if parent >= 0 else self.request
        record = [name, time.perf_counter(), 0.0, parent, request]
        self.spans.append(record)
        self.stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self.stack.pop()

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for table, required in ((_REQUIRED, True), (_OPTIONAL, False)):
            for module_name, attrs in table.items():
                for attr in attrs:
                    self._patch(module_name, attr, _SPAN_NAMES[attr], self._timed, required)
        self._patch(*_COUNTED, self._counted, True)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _patch(self, module_name: str, attr: str, name: str, make, required: bool) -> None:
        module = self.modules[module_name]
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module_name}.{attr}")
            if required:
                self.missing_spans.add(name)
            return
        setattr(module, attr, make(original, name))
        self._patched.append((module, attr, original))

    def _timed(self, fn, name):
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "engine.search":
                self.search_index = args[0]
            request = None
            if name == "engine.document_network" and self.current() != "engine.search":
                request = args[0].id
            with self.span(name, request):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self.active:
                return result
            self.counters[name] += 1
            parent = self.current()
            if parent == "engine.search":
                self.counters["engine.search.docs_scored"] += 1
                if result > 0.0:
                    self.counters["engine.search.nonzero_kernel"] += 1
            elif parent == "engine.collection_graph":
                self.counters["engine.collection_graph.pairs"] += 1
            return result

        return wrapper

    def postings(self, index) -> dict[str, set[str]]:
        """Concept -> documents of ``index``, rebuilt only when the index changes."""
        if self._postings is None or self._postings[0] is not index:
            postings: dict[str, set[str]] = {}
            for doc_id, net in index.networks.items():
                for cui in net.nodes:
                    postings.setdefault(cui, set()).add(doc_id)
            self._postings = (index, postings)
        return self._postings[1]

    # -- aggregation ---------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[tuple[str, str], float]]:
        """Self time per span name, and inclusive time per (parent name, name)."""
        child_time = [0.0] * len(self.spans)
        by_parent: Counter[tuple[str, str]] = Counter()
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                by_parent[(self.spans[parent][0], name)] += end - start
        self_time: Counter[str] = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += (end - start) - child_time[i]
        return dict(self_time), dict(by_parent)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, request) in enumerate(self.spans):
                handle.write(
                    json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "request": request})
                    + "\n"
                )


def _observe_link(tracer, args, kwargs, result):
    tracer.counters["linking.mentions"] += len(result)


def _observe_candidates(tracer, args, kwargs, result):
    tracer.counters["relations.candidate_pairs"] += len(result)


def _observe_extract(tracer, args, kwargs, result):
    tracer.counters["relations.extract.pairs"] += len(args[0])
    tracer.counters["relations.extracted_edges"] += len(result)


def _observe_build(tracer, args, kwargs, result):
    if not result.nodes:
        tracer.counters["network.empty_networks"] += 1


def _observe_enrich(tracer, args, kwargs, result):
    net, model = args[0], args[1]
    m_cap = args[3] if len(args) > 3 else kwargs["m_cap"]
    tracer.counters["network.enrich.predicted_edges"] += len(result.edges) - len(net.edges)
    if m_cap == 0 or not net.nodes:
        return
    cuis = [c for c in net.nodes if c in model.entity_vectors]
    relations = set(model.relation_vectors)
    existing = sum(1 for e in net.edge_keys() if e[0] in cuis and e[1] in cuis and e[2] in relations)
    tracer.counters["network.enrich.scored"] += len(cuis) * (len(cuis) - 1) * len(relations) - existing


def _observe_fuse(tracer, args, kwargs, result):
    tracer.counters["network.fused_edges"] += sum(1 for e in result.edges if e.provenance == "fused")


def _observe_index(tracer, args, kwargs, result):
    tracer.counters["similarity.wl_vocab"] = max(tracer.counters["similarity.wl_vocab"], result.compressor.next_id)


def _observe_search_analysis(tracer, args, kwargs, result):
    # Only the query network of a search: count the documents sharing a concept with it.
    if tracer.current() != "engine.search":
        return
    postings = tracer.postings(tracer.search_index)
    shared: set[str] = set()
    for cui in result.nodes:
        shared |= postings.get(cui, set())
    tracer.counters["engine.search.candidates"] += len(shared)
    tracer.counters["engine.search.all_docs"] += len(tracer.search_index.networks)


def _observe_graph(tracer, args, kwargs, result):
    tracer.counters["engine.collection_graph.kept"] += len(result.edges)


def _observe_train(tracer, args, kwargs, result):
    config = args[2] if len(args) > 2 and args[2] is not None else result.config
    tracer.counters["transe.train.steps"] += config.epochs * len(args[1].triples)
    if result.epoch_losses:
        tracer.gauges["transe.train.final_loss"] = result.epoch_losses[-1]


def _observe_eval(tracer, args, kwargs, result):
    tracer.counters["transe.eval_lp.rankings"] += 4 * len(args[1])


def _observe_train_extractor(tracer, args, kwargs, result):
    tracer.counters["relations.train_instances"] += len(args[0])


_OBSERVERS = {
    "linking.link": _observe_link,
    "relations.generate_candidates": _observe_candidates,
    "relations.extract": _observe_extract,
    "network.build": _observe_build,
    "network.enrich": _observe_enrich,
    "network.fuse": _observe_fuse,
    "engine.index_corpus": _observe_index,
    "engine.document_network": _observe_search_analysis,
    "engine.collection_graph": _observe_graph,
    "transe.train": _observe_train,
    "transe.eval_lp": _observe_eval,
    "relations.train_extractor": _observe_train_extractor,
}
