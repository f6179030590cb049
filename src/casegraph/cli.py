"""Command-line entry point wiring the staged pipeline.

Subcommands exchange inspectable file artifacts (mention, edge, and network
JSONL; model and index containers; TREC qrels and runs). Every tunable is a
flag, optionally preloaded from a flat ``key = value`` config file; all
randomness flows from ``--seed``. Exit codes: 0 success, 1 usage error,
2 data or validation error, or a file that cannot be read or written,
3 an unexpected failure (a defect; its traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
import traceback
from pathlib import Path

from . import engine, trec
from .config import PipelineConfig, merge_config, read_config_file
from .errors import CasegraphError, UsageError
from .kb import Triple, load_corpus, load_lexicon, load_triples
from .linking import link, mentions_jsonl, read_mentions, split_sentences, tokenize
from .network import build_network, enrich_network, fuse_network, networks_jsonl, read_networks
from .relations import (
    ExtractorHyperparams,
    RelationInstance,
    distant_label,
    edges_jsonl,
    featurize_pairs,
    generate_candidates,
    load_extractor,
    read_edges,
    save_extractor,
    train_extractor,
)
from .transe import TrainConfig, evaluate_link_prediction, init_model, load_model, save_model, train

log = logging.getLogger(__name__)

_CONFIG_FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _merged_config(args: argparse.Namespace) -> PipelineConfig:
    file_overrides = read_config_file(args.config) if getattr(args, "config", None) else {}
    cli_overrides = {k: v for k, v in vars(args).items() if k in _CONFIG_FIELDS and v is not None}
    return merge_config(file_overrides, cli_overrides)


def _require(value, flag: str):
    if value is None:
        raise UsageError(f"{flag} is required (flag or config file)")
    return value


def _analyzed_docs(cfg: PipelineConfig):
    lexicon = load_lexicon(_require(cfg.lexicon, "--lexicon"))
    corpus = load_corpus(_require(cfg.corpus, "--corpus"))
    return lexicon, corpus


def _cmd_link(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    per_doc = {doc.id: link(doc.content(), lexicon) for doc in corpus}
    _emit(mentions_jsonl(per_doc), args.out)


def _extraction_models(cfg: PipelineConfig):
    """What the extraction mode reads, as ``(kb, extractor)``: the triple store
    in kbmatch mode, the extractor in model mode, and never the other."""
    if cfg.mode == "model":
        return None, load_extractor(_require(cfg.extractor_model, "--extractor-model"))
    return load_triples(_require(cfg.triples, "--triples")), None


def _cmd_extract(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    per_doc_mentions = read_mentions(args.mentions)
    kb, extractor = _extraction_models(cfg)
    per_doc_edges = {}
    for doc in corpus:
        content = doc.content()
        tokens = tokenize(content)
        sentences = split_sentences(content, tokens)
        pairs = generate_candidates(doc.id, per_doc_mentions.get(doc.id, []), sentences, tokens, cfg.window)
        per_doc_edges[doc.id] = engine.extract_edges(pairs, tokens, lexicon, cfg, kb, extractor)
    _emit(edges_jsonl(per_doc_edges), args.out)


def _cmd_train_extractor(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    kb = load_triples(_require(cfg.triples, "--triples"))
    instances = []
    for doc in corpus:
        tokens, _, pairs = engine.analyze(doc, lexicon, cfg.window)
        for pair, features in zip(pairs, featurize_pairs(pairs, tokens, lexicon)):
            instances.append(RelationInstance(pair, distant_label(pair, kb), features))
    hyper = ExtractorHyperparams(cfg.extractor_lr, cfg.extractor_epochs, cfg.l2, cfg.seed)
    model = train_extractor(instances, hyper)
    save_extractor(model, _require(args.out or cfg.extractor_model, "--out"))
    log.info("trained on %d instances (%d labels, %d features)", len(instances), len(model.labels), len(model.feature_vocab))


def _load_training_store(cfg: PipelineConfig, extra_edges: str | None):
    kb = load_triples(_require(cfg.triples, "--triples"))
    if extra_edges:
        for edges in read_edges(extra_edges).values():
            for edge in edges:
                kb._add(Triple(edge.head, edge.relation, edge.tail))
    return kb


def _cmd_train_transe(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    kb = _load_training_store(cfg, args.extra_edges)
    train_config = TrainConfig(cfg.dim, cfg.margin, cfg.transe_lr, cfg.transe_epochs, cfg.distance, cfg.seed)
    model = train(init_model(kb.entities, kb.relations, train_config), kb, train_config)
    save_model(model, _require(args.out or cfg.transe_model, "--out"))
    if model.epoch_losses:
        log.info("final mean epoch loss %.6f", model.epoch_losses[-1])


def _cmd_eval_lp(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    model = load_model(_require(cfg.transe_model, "--transe-model"))
    kb = load_triples(_require(cfg.triples, "--triples"))
    test = load_triples(args.test_triples) if args.test_triples else kb
    report = evaluate_link_prediction(model, sorted(test.triples, key=lambda t: (t.head, t.relation, t.tail)), kb)
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)


def _cmd_build_graphs(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    per_doc_mentions = read_mentions(args.mentions)
    per_doc_edges = read_edges(args.edges)
    networks = [
        build_network(doc.id, per_doc_mentions.get(doc.id, []), per_doc_edges.get(doc.id, []), lexicon)
        for doc in corpus
    ]
    _emit(networks_jsonl(networks), args.out)


def _cmd_enrich(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    model = load_model(_require(cfg.transe_model, "--transe-model"))
    networks = read_networks(args.networks)
    out = []
    for net in networks:
        enriched = enrich_network(net, model, cfg.tau_lp, cfg.m_cap)
        if cfg.fuse:
            enriched = fuse_network(enriched, model)
        out.append(enriched)
    _emit(networks_jsonl(out), args.out)


def _cmd_index(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    if cfg.enrich or cfg.fuse:
        _require(cfg.transe_model, "--transe-model")
    kb, extractor = _extraction_models(cfg)
    lexicon, corpus = _analyzed_docs(cfg)
    # Given without enrichment or fusion, the TransE model still serves the embedding half of the score.
    transe_model = load_model(cfg.transe_model) if cfg.transe_model else None
    index = engine.index_corpus(corpus, lexicon, cfg, kb, extractor, transe_model)
    engine.save_index(index, _require(args.out or cfg.index, "--out"))


def _cmd_search(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    index = engine.load_index(_require(cfg.index, "--index"))
    queries = load_corpus(args.query_file)
    run = trec.Run(topics={}, tag=args.tag)
    for query in queries:
        results = engine.search(index, query.content(), cfg.k, cfg.lambda_weight, cfg.prune)
        run.topics[query.id] = [(r.doc_id, r.score) for r in results]
    _emit(trec.run_lines(run), args.out)


def _cmd_collection_graph(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    index = engine.load_index(_require(cfg.index, "--index"))
    graph = engine.build_collection_graph(index, cfg.lambda_weight, cfg.tau_doc)
    _emit(engine.collection_graph_to_dot(graph), args.out)


def _cmd_evaluate(args: argparse.Namespace) -> None:
    run = trec.read_run(args.run)
    qrels = trec.parse_qrels(args.qrels)
    report = trec.evaluate_run(run, qrels)
    if args.format == "json":
        _emit(trec.report_to_json(report), args.out)
    else:
        _emit(trec.report_to_text(report), args.out)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--out", default=None, help="output file (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casegraph", description="Case-based retrieval over document semantic networks.")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        _add_common(sub)
        return sub

    sub = command("link", _cmd_link, "detect concept mentions in a corpus")
    sub.add_argument("--lexicon")
    sub.add_argument("--corpus")

    sub = command("extract", _cmd_extract, "extract typed relations between mentions")
    sub.add_argument("--lexicon")
    sub.add_argument("--corpus")
    sub.add_argument("--mentions", required=True, help="mention JSONL from the link step")
    sub.add_argument("--triples")
    sub.add_argument("--extractor-model", dest="extractor_model")
    sub.add_argument("--mode", choices=["model", "kbmatch"])
    sub.add_argument("--window", type=int)
    sub.add_argument("--theta-rel", dest="theta_rel", type=float)

    sub = command("train-extractor", _cmd_train_extractor, "train the relation classifier by distant supervision")
    sub.add_argument("--lexicon")
    sub.add_argument("--corpus")
    sub.add_argument("--triples")
    sub.add_argument("--window", type=int)
    sub.add_argument("--lr", dest="extractor_lr", type=float)
    sub.add_argument("--epochs", dest="extractor_epochs", type=int)
    sub.add_argument("--l2", type=float)

    sub = command("train-transe", _cmd_train_transe, "train translational embeddings on the triple store")
    sub.add_argument("--triples")
    sub.add_argument("--extra-edges", dest="extra_edges", help="edge JSONL appended as training triples")
    sub.add_argument("--dim", type=int)
    sub.add_argument("--margin", type=float)
    sub.add_argument("--lr", dest="transe_lr", type=float)
    sub.add_argument("--epochs", dest="transe_epochs", type=int)
    sub.add_argument("--dist", dest="distance", choices=["l1", "l2"])

    sub = command("eval-lp", _cmd_eval_lp, "link-prediction ranking metrics for an embedding model")
    sub.add_argument("--transe-model", dest="transe_model")
    sub.add_argument("--triples")
    sub.add_argument("--test-triples", dest="test_triples")

    sub = command("build-graphs", _cmd_build_graphs, "assemble per-document semantic networks")
    sub.add_argument("--lexicon")
    sub.add_argument("--corpus")
    sub.add_argument("--mentions", required=True)
    sub.add_argument("--edges", required=True)

    sub = command("enrich", _cmd_enrich, "add predicted edges (and optionally fuse confidences)")
    sub.add_argument("--networks", required=True)
    sub.add_argument("--transe-model", dest="transe_model")
    sub.add_argument("--tau-lp", dest="tau_lp", type=float)
    sub.add_argument("--m-cap", dest="m_cap", type=int)
    sub.add_argument("--fuse", dest="fuse", action=argparse.BooleanOptionalAction, default=None)

    sub = command("index", _cmd_index, "run the full pipeline and persist the index")
    sub.add_argument("--lexicon")
    sub.add_argument("--corpus")
    sub.add_argument("--triples")
    sub.add_argument("--extractor-model", dest="extractor_model")
    sub.add_argument("--transe-model", dest="transe_model")
    sub.add_argument("--mode", choices=["model", "kbmatch"])
    sub.add_argument("--window", type=int)
    sub.add_argument("--theta-rel", dest="theta_rel", type=float)
    sub.add_argument("--tau-lp", dest="tau_lp", type=float)
    sub.add_argument("--m-cap", dest="m_cap", type=int)
    sub.add_argument("--enrich", dest="enrich", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--fuse", dest="fuse", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--h", dest="h", type=int)

    sub = command("search", _cmd_search, "rank indexed documents against query cases")
    sub.add_argument("--index", dest="index")
    sub.add_argument("--query-file", dest="query_file", required=True, help="JSONL of id/title/text query cases")
    sub.add_argument("--k", type=int)
    sub.add_argument("--lambda", dest="lambda_weight", type=float)
    sub.add_argument("--prune", dest="prune", action=argparse.BooleanOptionalAction, default=None)
    sub.add_argument("--tag", default="casegraph")

    sub = command("collection-graph", _cmd_collection_graph, "export the document-document similarity graph as DOT")
    sub.add_argument("--index", dest="index")
    sub.add_argument("--lambda", dest="lambda_weight", type=float)
    sub.add_argument("--tau-doc", dest="tau_doc", type=float)

    sub = command("evaluate", _cmd_evaluate, "score a run file against qrels")
    sub.add_argument("--run", required=True)
    sub.add_argument("--qrels", required=True)
    sub.add_argument("--format", choices=["text", "json"], default="text")

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CasegraphError, OSError) as exc:  # a data error, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception:  # a defect rather than bad input: keep the traceback
        traceback.print_exc()
        return 3


def main() -> None:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
