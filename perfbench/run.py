"""casegraph benchmark: one seeded workload, run through the public API.

    python3 perfbench/run.py --workload {ingest,query} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``./src``. Every
run regenerates its inputs from the seed, so nothing written by another run
or another commit is ever read. One process, no threads, one client: each
operation starts when the previous one has returned, as
``casegraph search --query-file`` answers cases one after another.

Every workload runs the whole user pipeline - train TransE, evaluate link
prediction, train the extractor, index + save, collection graph, load, and
answer every query case unpruned and pruned - so every end-to-end metric is
measured on every workload. The workloads differ in what dominates: see
``NOTES.md`` and ``WORKLOADS`` below.

After set-up (generate the input files and parse them), ``Bench.build``
runs the pipeline once in full for the quality metrics and the output
checks. Then ``Bench.sample_pass`` repeats every timed step, set-up included,
once per pass until ``--seconds`` have passed, and each timing is the median
of its samples (the build's TransE epochs and link-prediction chunks count
as samples too). Timings are scaled to a reference machine speed measured
between the steps, so that the host's speed drift cancels out: see
``Clock``; a ``#`` line before the result gives the unscaled medians.

With ``--trace 1`` the run builds three times (untraced, traced, untraced)
and reports the per-layer metrics of the traced build plus the tracing
overhead (traced minus the mean untraced build time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import tracer as tracing  # noqa: E402


@dataclass(frozen=True)
class Workload:
    spec: gen.Spec
    mode: str  # extraction mode of the index
    transe_epochs: int
    transe_lr: float
    extractor_docs: int  # documents that yield the distant-supervision instances
    extractor_epochs: int
    extractor_fits: int  # extractor fits timed per sample pass
    cg_docs: int  # the collection graph covers the index of the first cg_docs documents
    index_chunk: int  # documents per repeated ingest sample
    query_batch: int  # cases per repeated search sample
    eval_chunk: int  # held-out facts per link-prediction sample


# Why each workload exists is recorded in NOTES.md.
WORKLOADS = {
    # Offline path: TransE and the extractor trained on a 320-entity KB, then
    # model-mode extraction, enrichment and fusion over long-tailed abstracts,
    # and all-pairs scoring of a large share of them.
    "ingest": Workload(
        gen.Spec(grid=(4, 4), group_size=20, triples_per_cell=45, extra_concepts=300, docs=500, docs_per_topic=2,
                 mean_sentences=8.0, queries=200, test_triples=300),
        mode="model", transe_epochs=6, transe_lr=0.2, extractor_docs=200, extractor_epochs=6, extractor_fits=1, cg_docs=300,
        index_chunk=100, query_batch=50, eval_chunk=25,
    ),
    # Online read path: a larger kbmatch + enrich + fuse index answering many
    # short and long cases, unpruned and pruned.
    "query": Workload(
        gen.Spec(grid=(4, 4), group_size=12, triples_per_cell=30, extra_concepts=600, docs=1000, docs_per_topic=4,
                 mean_sentences=6.0, queries=250, test_triples=300),
        mode="kbmatch", transe_epochs=12, transe_lr=0.1, extractor_docs=100, extractor_epochs=6, extractor_fits=2, cg_docs=150,
        index_chunk=50, query_batch=60, eval_chunk=25,
    ),
}
# The self-test's sizes; each workload keeps its own mode.
TINY = dict(
    spec=gen.Spec(grid=(3, 3), group_size=6, extra_concepts=20, triples_per_cell=8, docs=40, docs_per_topic=2,
                  mean_sentences=4.0, queries=12, test_triples=15),
    transe_epochs=2, extractor_docs=20, extractor_epochs=2, extractor_fits=1, cg_docs=20, index_chunk=10, query_batch=4, eval_chunk=5,
)

K = 10
LAMBDA = 0.6
H = 3
TAU_LP = 0.15
TAU_DOC = 0.5
WINDOW = 30  # the pipeline's default mention-pair window
LOADS_PER_PASS = 5  # index loads are short: sample them more often than the other steps
CHECK_EVERY = 25  # recompute the scores of every CHECK_EVERY-th query and graph edge

# name -> unit; the order is the output order.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ingest_docs_per_s": "docs/s",
    "index_bytes_per_doc": "B",
    "collection_graph_s": "s",
    "index_load_s": "s",
    "search_p50_ms": "ms",
    "search_p95_ms": "ms",
    "search_qps": "1/s",
    "search_pruned_p50_ms": "ms",
    "ndcg_10": "ratio",
    "map": "ratio",
    "transe_epoch_s": "s",
    "eval_lp_ms_per_triple": "ms",
    "extractor_epoch_s": "s",
    "lp_hits10_filtered": "ratio",
}


def _import_casegraph():
    src = Path.cwd() / "src"
    if not (src / "casegraph" / "__init__.py").is_file():
        raise SystemExit(f"error: no casegraph package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import casegraph
    from casegraph import cli, engine, kb, linking, relations, similarity, transe, trec

    if Path(casegraph.__file__).resolve().parent != (src / "casegraph").resolve():
        raise SystemExit(f"error: casegraph was imported from {casegraph.__file__}, not from {src}")
    return {
        "casegraph": casegraph, "cli": cli, "engine": engine, "kb": kb, "linking": linking,
        "relations": relations, "similarity": similarity, "transe": transe, "trec": trec,
    }


class Bench:
    def __init__(self, m: dict, workload: Workload, seed: int, work: Path, tracer: tracing.Tracer | None = None):
        self.m = m
        self.tracer = tracer
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # -- helpers -------------------------------------------------------------

    def call(self, fn, *args, **kwargs):
        """One operation against the API; a CasegraphError counts as failed and is re-raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except self.m["casegraph"].CasegraphError:
            self.failed += 1
            raise

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    @contextmanager
    def untraced(self):
        """Recomputations for the output checks are not the workload's work."""
        if self.tracer is None:
            yield
            return
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = True

    # -- set-up --------------------------------------------------------------

    def setup(self, name: str = "inputs") -> dict:
        kb, trec = self.m["kb"], self.m["trec"]
        data_dir = self.work / name
        if data_dir.exists():
            shutil.rmtree(data_dir)
        data_dir.mkdir(parents=True)
        paths = gen.generate(self.w.spec, self.seed, data_dir)
        return {
            "lexicon": self.call(kb.load_lexicon, paths["lexicon.tsv"]),
            "kb": self.call(kb.load_triples, paths["triples.tsv"]),
            "train_kb": self.call(kb.load_triples, paths["train.tsv"]),
            "test": self.call(kb.load_triples, paths["test.tsv"]),
            "corpus": self.call(kb.load_corpus, paths["corpus.jsonl"]),
            "queries": self.call(kb.load_corpus, paths["queries.jsonl"]),
            "qrels": self.call(trec.parse_qrels, paths["qrels.txt"]),
        }

    # -- the pipeline, once in full -----------------------------------------

    def build(self, inp: dict, clock: Clock) -> dict:
        """Run the whole pipeline once: the artifacts, quality metrics and checks.

        Its TransE epochs and link-prediction chunks are the first samples of
        those steps. Its other steps are not sampled: they run once, while
        the heap still grows, and the collector then scans the build's
        artifacts inside them (see ``_run``).
        """
        m, w = self.m, self.w
        once = Clock(active=False)
        engine, transe, relations, linking, trec = m["engine"], m["transe"], m["relations"], m["linking"], m["trec"]
        art: dict = {"inp": inp}

        # TransE on the training split.
        cfg = transe.TrainConfig(dim=16, margin=1.0, learning_rate=w.transe_lr, epochs=w.transe_epochs, distance="l2", seed=self.seed)
        art["transe_init"] = transe.init_model(inp["train_kb"].entities, inp["train_kb"].relations, cfg)
        art["transe_one_epoch"] = replace(cfg, epochs=1)
        epoch_start = 0.0

        def on_epoch(epoch, _model):
            nonlocal epoch_start
            clock.add("transe_epoch_s", epoch_start, time.perf_counter())
            clock.calibrate()
            epoch_start = time.perf_counter()

        clock.calibrate()
        epoch_start = time.perf_counter()
        model = self.call(transe.train, art["transe_init"], inp["train_kb"], cfg, on_epoch if clock.active else None)
        self.check(
            all(_finite(v) for v in model.entity_vectors.values()) and all(_finite(v) for v in model.relation_vectors.values()),
            "TransE vectors are not finite",
        )
        art["model"] = model

        # Filtered ranking on the held-out facts, in the chunks that the sample passes time.
        test = sorted(inp["test"].triples, key=lambda t: (t.head, t.relation, t.tail))
        art["test_chunks"] = _strata(test, w.eval_chunk)
        hits = 0
        for chunk in art["test_chunks"]:
            clock.calibrate()
            report = self._eval_chunk(art, chunk, clock)
            hits += round(report["filtered"]["hits_at_10"] * 2 * len(chunk))
        clock.calibrate()
        art["lp_hits10_filtered"] = hits / (2 * len(test))

        # Distant-supervision instances built as the train-extractor command does.
        instances = []
        for doc in inp["corpus"][: w.extractor_docs]:
            content = doc.content()
            tokens = linking.tokenize(content)
            sentences = linking.split_sentences(content, tokens)
            mentions = linking.link(content, inp["lexicon"], tokens)
            for pair in relations.generate_candidates(doc.id, mentions, sentences, tokens, WINDOW):
                label = relations.distant_label(pair, inp["kb"])
                instances.append(relations.RelationInstance(pair, label, relations.featurize(pair, tokens, inp["lexicon"])))
        art["instances"] = instances
        art["extractor"] = extractor = self._train_extractor(art, once)
        self.check(_finite(extractor.weights), "extractor weights are not finite")

        # Offline write path: the full index, then the collection graph of its first documents.
        art["config"] = config = m["casegraph"].PipelineConfig(
            mode=w.mode, enrich=True, fuse=True, tau_lp=TAU_LP, h=H, lambda_weight=LAMBDA, tau_doc=TAU_DOC, k=K, seed=self.seed
        )
        art["index_path"] = self.work / "corpus.idx"
        index = self._ingest(art, inp["corpus"], art["index_path"], once)
        art["index_bytes_per_doc"] = art["index_path"].stat().st_size / len(inp["corpus"])
        art["cg_index"] = self.call(
            engine.index_corpus, inp["corpus"][: w.cg_docs], inp["lexicon"], config, inp["kb"], extractor, model
        )
        art["graph"] = self._collection_graph(art, once)
        with self.untraced():
            self._check_graph(art["cg_index"], art["graph"], model)

        # Online read path: load, then every case unpruned and pruned.
        loaded = self._load(art, once)
        self.check(loaded.networks == index.networks, "load_index(save_index(x)) changed the networks")
        art["loaded"] = loaded
        run = trec.Run(topics={}, tag="perfbench")
        for query in inp["queries"]:
            results = self._search(art, query, False, once)
            if results is not None:
                run.topics[query.id] = [(r.doc_id, r.score) for r in results]
        for query in inp["queries"]:
            self._search(art, query, True, once)
        run_path = self.work / "run.txt"
        trec.write_run(run, run_path)
        read_back = self.call(trec.read_run, run_path)
        metrics = self.call(trec.evaluate_run, read_back, inp["qrels"]).mean
        art["ndcg_10"] = metrics["nDCG@10"]
        art["map"] = metrics["AP"]
        art["run"] = run.topics
        with self.untraced():
            self._check_run(run, read_back, loaded, inp["queries"], config)
        for name in ("ndcg_10", "map", "lp_hits10_filtered"):
            self.check(art[name] > 0.0, f"{name} is 0: the generated structure was not learned or retrieved")
        return art

    # -- the repeated samples ------------------------------------------------

    def sample_pass(self, art: dict, i: int, clock: Clock) -> None:
        """One sample of every timed step, on a rotating slice of the inputs.

        Set-up is repeated too. The kernel is timed between every two steps
        (see ``Clock``). The repeated steps must reproduce the results of
        ``build``: every step is deterministic.
        """
        m, w, inp = self.m, self.w, art["inp"]
        clock.current_pass = i
        clock.calibrate()
        start = time.perf_counter()
        self.setup("inputs-again")
        clock.add("setup_s", start, time.perf_counter())
        clock.calibrate()
        start = time.perf_counter()
        self.call(m["transe"].train, art["transe_init"], inp["train_kb"], art["transe_one_epoch"])
        clock.add("transe_epoch_s", start, time.perf_counter())
        clock.calibrate()
        self._eval_chunk(art, art["test_chunks"][i % len(art["test_chunks"])], clock)
        for _ in range(w.extractor_fits):
            clock.calibrate()
            self._train_extractor(art, clock)
        clock.calibrate()
        chunks = art.setdefault("doc_chunks", _strata(sorted(inp["corpus"], key=lambda d: len(d.content())), w.index_chunk))
        self._ingest(art, chunks[i % len(chunks)], self.work / "chunk.idx", clock)
        clock.calibrate()
        graph = self._collection_graph(art, clock)
        self.check(graph.edges == art["graph"].edges, "collection graph differs on repetition")
        for _ in range(LOADS_PER_PASS):
            clock.calibrate()
            self._load(art, clock)
        batches = art.setdefault("query_batches", _strata(sorted(inp["queries"], key=lambda q: len(q.content())), w.query_batch))
        for query in batches[i % len(batches)]:
            clock.calibrate(calls=3, collect=False)
            results = self._search(art, query, False, clock)
            if results is not None:
                same = [(r.doc_id, r.score) for r in results] == art["run"].get(query.id)
                self.check(same, f"search for {query.id} differs on repetition")
            self._search(art, query, True, clock)
        clock.calibrate()

    # -- timed steps -----------------------------------------------------------

    def _eval_chunk(self, art, chunk, clock):
        start = time.perf_counter()
        report = self.call(self.m["transe"].evaluate_link_prediction, art["model"], chunk, art["inp"]["kb"])
        clock.add("eval_lp_ms_per_triple", start, time.perf_counter(), scale=1000.0 / len(chunk))
        return report

    def _train_extractor(self, art, clock):
        relations = self.m["relations"]
        hyper = relations.ExtractorHyperparams(0.1, self.w.extractor_epochs, 1e-4, self.seed)
        start = time.perf_counter()
        extractor = self.call(relations.train_extractor, art["instances"], hyper)
        clock.add("extractor_epoch_s", start, time.perf_counter(), scale=1.0 / self.w.extractor_epochs)
        return extractor

    def _ingest(self, art, docs, path, clock):
        engine, inp = self.m["engine"], art["inp"]
        start = time.perf_counter()
        index = self.call(engine.index_corpus, docs, inp["lexicon"], art["config"], inp["kb"], art["extractor"], art["model"])
        self.call(engine.save_index, index, path)
        clock.add("ingest_docs_per_s", start, time.perf_counter(), scale=len(docs), rate=True)
        return index

    def _collection_graph(self, art, clock):
        start = time.perf_counter()
        graph = self.call(self.m["engine"].build_collection_graph, art["cg_index"], LAMBDA, TAU_DOC)
        clock.add("collection_graph_s", start, time.perf_counter())
        return graph

    def _load(self, art, clock):
        start = time.perf_counter()
        loaded = self.call(self.m["engine"].load_index, art["index_path"])
        clock.add("index_load_s", start, time.perf_counter())
        return loaded

    def _search(self, art, query, prune: bool, clock):
        if self.tracer is not None:
            self.tracer.request = query.id
        try:
            start = time.perf_counter()
            results = self.call(self.m["engine"].search, art["loaded"], query.content(), K, LAMBDA, prune)
            end = time.perf_counter()
        except self.m["casegraph"].CasegraphError:
            return None
        finally:
            if self.tracer is not None:
                self.tracer.request = None
        clock.add("search_pruned_ms" if prune else "search_ms", start, end, scale=1000.0)
        return results

    # -- output checks -------------------------------------------------------

    def _check_graph(self, index, graph, model) -> None:
        similarity = self.m["similarity"]
        for doc_a, doc_b, score in graph.edges[::CHECK_EVERY]:
            again = similarity.combined_similarity(
                index.networks[doc_a], index.networks[doc_b], LAMBDA, index.compressor.overlay(), H, model
            )
            self.check(_same6(score, again), f"collection graph edge {doc_a}-{doc_b}: {score} vs {again}")
        self.check(all(score >= TAU_DOC and a < b for a, b, score in graph.edges), "collection graph edge below tau_doc")

    def _check_run(self, run, read_back, index, queries, config) -> None:
        engine, similarity, kb = self.m["engine"], self.m["similarity"], self.m["kb"]
        self.check(sorted(read_back.topics) == sorted(run.topics), "run file lost or added topics")
        for topic, results in run.topics.items():
            back = read_back.topics.get(topic, [])
            same = [d for d, _ in back] == [d for d, _ in results] and all(_same6(a, b) for (_, a), (_, b) in zip(back, results))
            self.check(same, f"topic {topic} does not round-trip through read_run")
        for query in queries[::CHECK_EVERY]:
            net = engine.document_network(kb.Document("query", "", query.content()), index.lexicon, config, index.kb, index.extractor, index.transe)
            for doc_id, score in read_back.topics.get(query.id, []):
                again = similarity.combined_similarity(net, index.networks[doc_id], LAMBDA, index.compressor.overlay(), index.h, index.transe)
                self.check(_same6(score, again), f"query {query.id} doc {doc_id}: run score {score} vs {again}")


_KERNEL_TEXT = " ".join(f"term{i % 211} alpha-{i % 17} beta" for i in range(400))
_KERNEL_MATRIX = np.arange(64 * 16, dtype=float).reshape(64, 16) / 1024.0


def _kernel() -> float:
    """Fixed reference work in the mix the program does: tokens, dict counts, small numpy products."""
    counts: dict[str, int] = {}
    for token in _KERNEL_TEXT.split():
        for part in token.split("-"):
            counts[part] = counts.get(part, 0) + 1
    pairs = sum(a * b for a in counts.values() for b in list(counts.values())[:20])
    vectors = _KERNEL_MATRIX + pairs % 7
    return float(np.linalg.norm(vectors @ vectors.T))


class Clock:
    """Step timings in reference seconds, free of the machine's speed drift.

    On a shared host the speed of the same pure-Python work drifts by up to
    1.5x within tens of seconds, for every kind of work at once (window
    medians of two unrelated loops correlate at 0.99). So the runner times a
    fixed reference kernel before and after every timed step and between
    searches, and scales each step's wall time by the kernel's nominal time
    over its local time: the median of the kernel timings from the half
    second around the step. A change to the program moves the step's time
    and not the kernel's; a change in the machine's speed moves both.
    Single samples still scatter (the speed also changes within a step), so
    every reported timing is a median of many samples.
    """

    KERNEL_NOMINAL_S = 0.0015  # the kernel's time at the reference speed
    MARGIN_S = 0.5  # kernel timings this close to a step set its local speed

    def __init__(self, active: bool = True) -> None:
        self.active = active  # an inactive clock records nothing and takes no time
        self.kernel: list[tuple[float, float]] = []  # (time, seconds per kernel call)
        self.steps: dict[str, list[tuple[float, float, float, bool]]] = {}  # name -> (start, end, scale, rate)
        self.passes: dict[str, list[int]] = {}  # name -> the sample pass of each step, -1 in the build
        self.current_pass = -1

    def calibrate(self, calls: int = 6, collect: bool = True) -> None:
        """Time the kernel; first collect garbage, so the next step starts from the same collector state.

        Searches are too short and too many to collect before each of them.
        """
        if not self.active:
            return
        if collect:
            gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(calls):
                start = time.perf_counter()
                _kernel()
                end = time.perf_counter()
                self.kernel.append((end, end - start))
        finally:
            if enabled:
                gc.enable()

    def add(self, name: str, start: float, end: float, scale: float = 1.0, rate: bool = False) -> None:
        """A step that ran from start to end; its value is scale * seconds, or scale / seconds if rate."""
        if self.active:
            self.steps.setdefault(name, []).append((start, end, scale, rate))
            self.passes.setdefault(name, []).append(self.current_pass)

    def speed(self, start: float, end: float) -> float:
        """Local kernel time over its nominal time; above 1 when the machine is slow."""
        near = [d for t, d in self.kernel if start - self.MARGIN_S <= t <= end + self.MARGIN_S]
        if len(near) < 3:
            mid = (start + end) / 2
            near = [d for _, d in sorted(self.kernel, key=lambda k: abs(k[0] - mid))[:6]]
        return statistics.median(near) / self.KERNEL_NOMINAL_S

    def values(self, name: str, normalised: bool = True) -> list[float]:
        out = []
        for start, end, scale, rate in self.steps[name]:
            seconds = end - start
            if normalised:
                seconds /= self.speed(start, end)
            out.append(scale / seconds if rate else scale * seconds)
        return out

    def per_pass(self, name: str, normalised: bool = True) -> list[list[float]]:
        groups: dict[int, list[float]] = {}
        for i, value in zip(self.passes[name], self.values(name, normalised)):
            groups.setdefault(i, []).append(value)
        return list(groups.values())

    def median_speed(self) -> float:
        return statistics.median(d for _, d in self.kernel) / self.KERNEL_NOMINAL_S


def _finite(array) -> bool:
    return bool(np.isfinite(array).all())


def _strata(items: list, size: int) -> list[list]:
    """Split items, ordered by cost, into slices of about ``size`` that each take every n-th item.

    Every slice then has about the same mix of cheap and costly items, so a
    sample's cost does not depend on which slice a pass draws.
    """
    n = max(1, len(items) // size)
    return [items[j::n] for j in range(n)]


def _same6(a: float, b: float) -> bool:
    """Equal at the run file's 6 decimals (allowing a rounding boundary)."""
    return abs(a - b) <= 5.5e-7


QUALITY = ("index_bytes_per_doc", "ndcg_10", "map", "lp_hits10_filtered")


def _layer_metrics(tracer: tracing.Tracer, traced_s: float, untraced_s: float) -> dict:
    self_time, by_parent = tracer.totals()
    c = tracer.counters

    def secs(name: str, value: float | None = None):
        if name in tracer.missing_spans:
            return None
        return value if value is not None else self_time.get(name, 0.0)

    def ratio(num: float, den: float):
        return num / den if den else 0.0

    metrics = {
        "linking.tokenize.s": (secs("linking.tokenize"), "s"),
        "linking.split_sentences.s": (secs("linking.split_sentences"), "s"),
        "linking.link.s": (secs("linking.link"), "s"),
        "linking.mentions": (c["linking.mentions"], "count"),
        "relations.generate_candidates.s": (secs("relations.generate_candidates"), "s"),
        "relations.candidate_pairs": (c["relations.candidate_pairs"], "count"),
        "relations.extract.s": (secs("relations.extract"), "s"),
        "relations.extracted_edges": (c["relations.extracted_edges"], "count"),
        "relations.extract.yield": (ratio(c["relations.extracted_edges"], c["relations.extract.pairs"]), "ratio"),
        "relations.train_extractor.s": (secs("relations.train_extractor"), "s"),
        "relations.train_instances": (c["relations.train_instances"], "count"),
        "network.build.s": (secs("network.build"), "s"),
        "network.empty_networks": (c["network.empty_networks"], "count"),
        "network.enrich.s": (secs("network.enrich"), "s"),
        "network.enrich.scored": (c["network.enrich.scored"], "count"),
        "network.enrich.predicted_edges": (c["network.enrich.predicted_edges"], "count"),
        "network.enrich.yield": (ratio(c["network.enrich.predicted_edges"], c["network.enrich.scored"]), "ratio"),
        "network.fuse.s": (secs("network.fuse"), "s"),
        "network.fused_edges": (c["network.fused_edges"], "count"),
        "similarity.wl_features.s": (secs("similarity.wl_features"), "s"),
        "similarity.wl_vocab": (c["similarity.wl_vocab"], "count"),
        "similarity.doc_embedding.s": (secs("similarity.doc_embedding"), "s"),
        "similarity.pair_scores": (c["similarity.pair_scores"], "count"),
        "engine.index_corpus.s": (secs("engine.index_corpus"), "s"),
        "engine.document_network.s": (secs("engine.document_network"), "s"),
        "engine.search.analyze.s": (
            secs("engine.document_network", by_parent.get(("engine.search", "engine.document_network"), 0.0)), "s"
        ),
        "engine.search.score.s": (secs("engine.search"), "s"),
        "engine.search.docs_scored": (c["engine.search.docs_scored"], "count"),
        "engine.search.candidate_share": (ratio(c["engine.search.candidates"], c["engine.search.all_docs"]), "ratio"),
        "engine.search.nonzero_kernel_share": (
            ratio(c["engine.search.nonzero_kernel"], c["engine.search.docs_scored"]), "ratio"
        ),
        "engine.collection_graph.s": (secs("engine.collection_graph"), "s"),
        "engine.collection_graph.pairs": (c["engine.collection_graph.pairs"], "count"),
        "engine.collection_graph.kept": (c["engine.collection_graph.kept"], "count"),
        "engine.save_index.s": (secs("engine.save_index"), "s"),
        "engine.load_index.s": (secs("engine.load_index"), "s"),
        "transe.train.s": (secs("transe.train"), "s"),
        "transe.train.steps": (c["transe.train.steps"], "count"),
        "transe.train.final_loss": (tracer.gauges.get("transe.train.final_loss", 0.0), "loss"),
        "transe.eval_lp.s": (secs("transe.eval_lp"), "s"),
        "transe.eval_lp.rankings": (c["transe.eval_lp.rankings"], "count"),
        "kb.load.s": (secs("kb.load"), "s"),
        "trec.evaluate_run.s": (secs("trec.evaluate_run"), "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (ratio(traced_s - untraced_s, untraced_s), "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None:
            out[name] = {"value": None, "unit": unit, "missing": True}
        else:
            out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the self-test's sizes")
    args = parser.parse_args(argv)

    modules = _import_casegraph()
    workload = WORKLOADS[args.workload]
    if args.scale == "tiny":
        workload = replace(workload, **TINY)
    out_dir = Path.cwd() / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(modules, workload, args, work, out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(modules, workload, args, work, out_dir) -> int:
    tracer = tracing.Tracer(modules) if args.trace else None
    bench = Bench(modules, workload, args.seed, work, tracer)

    clock = Clock()
    clock.calibrate()
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        inputs = bench.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    clock.add("setup_s", start, time.perf_counter())

    start = time.perf_counter()
    art = bench.build(inputs, clock if tracer is None else Clock(active=False))
    build_s = time.perf_counter() - start

    if tracer is None:
        # The build's artifacts live until the end of the run. Freezing them
        # keeps the collector from re-scanning them inside every timed step,
        # as a process that only loads an index or answers cases would not.
        gc.freeze()
        began = time.perf_counter()
        passes = []
        while not passes or time.perf_counter() - began + statistics.mean(passes) <= args.seconds:
            start = time.perf_counter()
            bench.sample_pass(art, len(passes), clock)
            passes.append(time.perf_counter() - start)
        metrics = _end_to_end(art, clock)
        raw = _end_to_end(art, clock, normalised=False)
        print(
            f"# build {build_s:.3f}s; {len(passes)} sample passes in {sum(passes):.3f}s; "
            f"{len(clock.steps['search_ms'])} searches timed; machine speed {1 / clock.median_speed():.3f} of the reference"
        )
        print("# wall-clock values: " + ", ".join(f"{name} {raw[name]['value']:.6g}" for name in TIMED))
    else:
        # Per-layer numbers come from a traced repeat of the full pipeline,
        # bracketed by untraced builds so that warm-up does not count as overhead.
        tracer.install()
        start = time.perf_counter()
        try:
            again = bench.build(inputs, Clock(active=False))
        finally:
            tracer.uninstall()
        traced_s = time.perf_counter() - start
        for name in QUALITY + ("run",):
            bench.check(again[name] == art[name], f"{name} differs between two builds of one run")
        del again
        start = time.perf_counter()
        bench.build(inputs, Clock(active=False))
        untraced_s = (build_s + time.perf_counter() - start) / 2
        metrics = _layer_metrics(tracer, traced_s, untraced_s)
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(trace_path)
        missing = ", ".join(sorted(tracer.missing)) or "none"
        print(
            f"# build {untraced_s:.3f}s untraced (mean of two), {traced_s:.3f}s traced; "
            f"spans in {trace_path.relative_to(Path.cwd())}; missing bindings: {missing}"
        )
    for problem in bench.problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not bench.problems, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0


# Step timings that are medians of their samples, in reference seconds (see Clock).
TIMED = ("setup_s", "ingest_docs_per_s", "collection_graph_s", "index_load_s", "transe_epoch_s",
         "eval_lp_ms_per_triple", "extractor_epoch_s")


def _end_to_end(art: dict, clock: Clock, normalised: bool = True) -> dict:
    search = clock.values("search_ms", normalised)
    values = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "search_p50_ms": statistics.median(search),
        # A burst of host load in one pass would own the pooled tail: take
        # the median of the passes' own p95 (every pass draws the same mix).
        "search_p95_ms": statistics.median(statistics.quantiles(p, n=20)[-1] for p in clock.per_pass("search_ms", normalised)),
        "search_qps": 1000.0 * len(search) / sum(search),
        "search_pruned_p50_ms": statistics.median(clock.values("search_pruned_ms", normalised)),
    }
    for name in TIMED:
        values[name] = statistics.median(clock.values(name, normalised))
    for name in QUALITY:
        values[name] = art[name]
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
