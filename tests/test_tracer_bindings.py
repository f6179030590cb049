"""The names that the benchmark's tracer wraps stay bound, and stay on the analysis path.

The tracer (``perfbench/tracer.py``) wraps module attributes by name and
reports a name that is gone as a missing per-layer metric, which the
benchmark self-test notices only after several seconds of runs. These checks
read the same table and name the binding or stage that went missing.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import helpers
from casegraph import engine, linking, relations
from casegraph.config import PipelineConfig
from casegraph.kb import load_corpus, load_lexicon, load_triples

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _required() -> list[tuple[str, str]]:
    """The tracer's ``_REQUIRED`` (module, name) bindings, read from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, name) for module, names in tracer._REQUIRED.items() for name in names]


REQUIRED = _required()
STAGES = {"tokenize": linking, "split_sentences": linking, "link": linking, "generate_candidates": relations}


@pytest.mark.parametrize("module, name", REQUIRED, ids=[f"{module}.{name}" for module, name in REQUIRED])
def test_traced_name_is_bound(module, name):
    assert callable(getattr(importlib.import_module(f"casegraph.{module}"), name, None))


def test_engine_stages_are_the_stage_functions():
    for stage, home in STAGES.items():
        assert getattr(engine, stage) is getattr(home, stage), stage


def test_index_corpus_runs_each_stage_once_per_document(tmp_path, monkeypatch):
    fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=12, seed=3)
    calls: Counter[str] = Counter()
    for stage in STAGES:

        def spy(*args, _stage=stage, _original=getattr(engine, stage), **kwargs):
            calls[_stage] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(engine, stage, spy)
    corpus = load_corpus(fixtures["corpus"])
    lexicon, kb = load_lexicon(fixtures["lexicon"]), load_triples(fixtures["triples"])
    engine.index_corpus(corpus, lexicon, PipelineConfig(mode="kbmatch"), kb)
    assert {stage: calls[stage] for stage in STAGES} == dict.fromkeys(STAGES, len(corpus))


def test_corpus_labeller_runs_once_per_index_and_wl_features_once_per_query(tmp_path, monkeypatch):
    # The traced similarity.wl_features span is engine's binding, which search
    # calls on its query row; index_corpus labels nothing, and the built index
    # labels the whole corpus in one call on its first search.
    fixtures = helpers.write_pipeline_fixtures(tmp_path, num_docs=12, seed=3)
    calls: list[str] = []
    featurize, label = engine.wl_features, engine.wl_corpus_labels

    def spy_features(net, h, comp):
        calls.append("wl_features")
        return featurize(net, h, comp)

    def spy_labels(columns, h):
        calls.append(f"wl_corpus_labels of {len(columns.node_ptr) - 1}")
        return label(columns, h)

    monkeypatch.setattr(engine, "wl_features", spy_features)
    monkeypatch.setattr(engine, "wl_corpus_labels", spy_labels)
    corpus = load_corpus(fixtures["corpus"])
    lexicon, kb = load_lexicon(fixtures["lexicon"]), load_triples(fixtures["triples"])
    index = engine.index_corpus(corpus, lexicon, PipelineConfig(mode="kbmatch"), kb)
    assert calls == []
    for doc in corpus[:3]:
        engine.search(index, doc.content(), 5)
    assert calls == [f"wl_corpus_labels of {len(corpus)}"] + ["wl_features"] * 3
