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
import json
import logging
import sys
import traceback
from pathlib import Path

from . import engine, trec
from .config import CHOICES, FIELDS, VALUE_TYPES, PipelineConfig, flag, merge_config, read_config_file
from .errors import CasegraphError, UsageError, ValidationError
from .kb import Triple, load_corpus, load_lexicon, load_triples
from .linking import link, mentions_jsonl, read_mentions, tokenize
from .network import build_network, enrich_network, fuse_network, networks_jsonl, read_networks
from .relations import (
    ExtractorHyperparams,
    RelationInstance,
    distant_label,
    edges_jsonl,
    featurize_pairs,
    load_extractor,
    read_edges,
    save_extractor,
    train_extractor,
)
from .transe import TrainConfig, evaluate_link_prediction, init_model, load_model, save_model, train

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _merged_config(args: argparse.Namespace) -> PipelineConfig:
    file_overrides = read_config_file(args.config) if args.config else {}
    return merge_config(file_overrides, {k: v for k, v in vars(args).items() if k in FIELDS})


def _require(value, name: str):
    if value is None:
        raise UsageError(f"{flag(name)} is required (flag or config file)")
    return value


def _analyzed_docs(cfg: PipelineConfig):
    lexicon = load_lexicon(_require(cfg.lexicon, "lexicon"))
    corpus = load_corpus(_require(cfg.corpus, "corpus"))
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
        return None, load_extractor(_require(cfg.extractor_model, "extractor_model"))
    return load_triples(_require(cfg.triples, "triples")), None


def _cmd_extract(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    per_doc_mentions = read_mentions(args.mentions)
    kb, extractor = _extraction_models(cfg)
    extracted = engine.analyzed_edges(corpus, lexicon, cfg, kb, extractor, per_doc_mentions)
    per_doc_edges = {doc.id: edges for doc, _, edges in extracted}
    _emit(edges_jsonl(per_doc_edges), args.out)


def _cmd_train_extractor(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    out = _require(args.out or cfg.extractor_model, "out")
    lexicon, corpus = _analyzed_docs(cfg)
    kb = load_triples(_require(cfg.triples, "triples"))
    instances = []
    for doc in corpus:
        analysis = engine.analyze(doc, lexicon, cfg.window)
        for pair, features in zip(analysis.pairs, featurize_pairs(analysis.pairs, analysis.tokens, lexicon)):
            instances.append(RelationInstance(pair, distant_label(pair, kb), features))
    hyper = ExtractorHyperparams(cfg.extractor_lr, cfg.extractor_epochs, cfg.l2, cfg.seed)
    model = train_extractor(instances, hyper)
    save_extractor(model, out)
    log.info("trained on %d instances (%d labels, %d features)", len(instances), len(model.labels), len(model.feature_vocab))


def _load_training_store(cfg: PipelineConfig, extra_edges: str | None):
    kb = load_triples(_require(cfg.triples, "triples"))
    if extra_edges:
        for edges in read_edges(extra_edges).values():
            for edge in edges:
                if edge.relation not in kb.relations:
                    raise ValidationError(
                        f"{extra_edges}: relation {edge.relation!r} not in the triple file's relation inventory"
                    )
                kb._add(Triple(edge.head, edge.relation, edge.tail))
    return kb


def _cmd_train_transe(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    out = _require(args.out or cfg.transe_model, "out")
    kb = _load_training_store(cfg, args.extra_edges)
    train_config = TrainConfig(cfg.dim, cfg.margin, cfg.transe_lr, cfg.transe_epochs, cfg.distance, cfg.seed)
    model = train(init_model(kb.entities, kb.relations, train_config), kb, train_config)
    save_model(model, out)
    if model.epoch_losses:
        log.info("final mean epoch loss %.6f", model.epoch_losses[-1])


def _cmd_eval_lp(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    model = load_model(_require(cfg.transe_model, "transe_model"))
    kb = load_triples(_require(cfg.triples, "triples"))
    test = load_triples(args.test_triples) if args.test_triples else kb
    report = evaluate_link_prediction(model, sorted(test.triples), kb)
    _emit(json.dumps(report, sort_keys=True, indent=2) + "\n", args.out)


def _cmd_build_graphs(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    lexicon, corpus = _analyzed_docs(cfg)
    per_doc_mentions = read_mentions(args.mentions)
    per_doc_edges = read_edges(args.edges)
    networks = []
    for doc in corpus:
        mentions = engine.aligned_mentions(doc.id, per_doc_mentions.get(doc.id, []), tokenize(doc.content()))
        networks.append(build_network(doc.id, mentions, per_doc_edges.get(doc.id, []), lexicon))
    _emit(networks_jsonl(networks), args.out)


def _cmd_enrich(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    model = load_model(_require(cfg.transe_model, "transe_model"))
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
    out = _require(args.out or cfg.index, "out")
    if cfg.enrich or cfg.fuse:
        _require(cfg.transe_model, "transe_model")
    kb, extractor = _extraction_models(cfg)
    lexicon, corpus = _analyzed_docs(cfg)
    # Given without enrichment or fusion, the TransE model still serves the embedding half of the score.
    transe_model = load_model(cfg.transe_model) if cfg.transe_model else None
    index = engine.index_corpus(corpus, lexicon, cfg, kb, extractor, transe_model)
    engine.save_index(index, out)


def _cmd_search(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    index = engine.load_index(_require(cfg.index, "index"))
    queries = load_corpus(args.query_file)
    # Refused before the first query is scored, not when the run is written.
    trec.one_field("run tag", args.tag)
    for query in queries:
        trec.one_field("query id", query.id)
    run = trec.Run(topics={}, tag=args.tag)
    for query in queries:
        results = engine.search(index, query.content(), cfg.k, cfg.lambda_weight, cfg.prune)
        run.topics[query.id] = [(r.doc_id, r.score) for r in results]
    _emit(trec.run_lines(run), args.out)


def _cmd_collection_graph(args: argparse.Namespace) -> None:
    cfg = _merged_config(args)
    index = engine.load_index(_require(cfg.index, "index"))
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


def _add_settings(sub: argparse.ArgumentParser, *names: str) -> None:
    """Add the flags of these ``PipelineConfig`` fields. An absent flag leaves
    its field ``None``, which overrides neither the config file nor the default."""
    for name in names:
        parse = VALUE_TYPES[FIELDS[name].type][0]
        if parse is bool:
            sub.add_argument(flag(name), dest=name, action=argparse.BooleanOptionalAction)
        else:
            sub.add_argument(flag(name), dest=name, type=parse, choices=CHOICES.get(name))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="casegraph", description="Case-based retrieval over document semantic networks.")
    commands = parser.add_subparsers(dest="command", required=True)
    # Options are declared in the order that --help and usage errors list them.

    def command(name: str, handler, help_text: str, *settings: str, out: str = "stdout") -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--config", help="flat key = value config file")
        _add_settings(sub, "seed")
        sub.add_argument("--out", default=None, help=f"output file (default: {out})")
        _add_settings(sub, *settings)
        return sub

    command("link", _cmd_link, "detect concept mentions in a corpus", "lexicon", "corpus")

    sub = command("extract", _cmd_extract, "extract typed relations between mentions", "lexicon", "corpus")
    sub.add_argument("--mentions", required=True, help="mention JSONL from the link step")
    _add_settings(sub, "triples", "extractor_model", "mode", "window", "theta_rel")

    command(
        "train-extractor", _cmd_train_extractor, "train the relation classifier by distant supervision",
        "lexicon", "corpus", "triples", "window", "extractor_lr", "extractor_epochs", "l2",
        out="the config file's extractor_model",
    )

    sub = command(
        "train-transe", _cmd_train_transe, "train translational embeddings on the triple store", "triples",
        out="the config file's transe_model",
    )
    sub.add_argument("--extra-edges", dest="extra_edges", help="edge JSONL appended as training triples")
    _add_settings(sub, "dim", "margin", "transe_lr", "transe_epochs", "distance")

    sub = command("eval-lp", _cmd_eval_lp, "link-prediction ranking metrics for an embedding model", "transe_model", "triples")
    sub.add_argument("--test-triples", dest="test_triples")

    sub = command("build-graphs", _cmd_build_graphs, "assemble per-document semantic networks", "lexicon", "corpus")
    sub.add_argument("--mentions", required=True)
    sub.add_argument("--edges", required=True)

    sub = command("enrich", _cmd_enrich, "add predicted edges (and optionally fuse confidences)")
    sub.add_argument("--networks", required=True)
    _add_settings(sub, "transe_model", "tau_lp", "m_cap", "fuse")

    command(
        "index", _cmd_index, "run the full pipeline and persist the index",
        "lexicon", "corpus", "triples", "extractor_model", "transe_model", "mode", "window", "theta_rel",
        "tau_lp", "m_cap", "enrich", "fuse", "h", out="the config file's index",
    )

    sub = command("search", _cmd_search, "rank indexed documents against query cases", "index")
    sub.add_argument("--query-file", dest="query_file", required=True, help="JSONL of id/title/text query cases")
    _add_settings(sub, "k", "lambda_weight", "prune")
    sub.add_argument("--tag", default="casegraph")

    command(
        "collection-graph", _cmd_collection_graph, "export the document-document similarity graph as DOT",
        "index", "lambda_weight", "tau_doc",
    )

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
