from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import casegraph
import helpers
from casegraph.cli import dispatch
from casegraph.config import RULES, PipelineConfig, flag, merge_config, read_config_file
from casegraph.engine import analyze, build_collection_graph, index_corpus, search
from casegraph.errors import ConfigError, UsageError
from casegraph.network import enrich_network
from casegraph.relations import ExtractorHyperparams, ExtractorModel, extract_relations, generate_candidates
from casegraph.similarity import LabelCompressor, combined_similarity, wl_label_history
from casegraph.transe import TrainConfig, init_model


class TestDefaults:
    def test_defaults_validate(self):
        config = PipelineConfig()
        assert config.window == 30
        assert config.theta_rel == 0.5
        assert config.dim == 50
        assert config.margin == 1.0
        assert config.distance == "l1"
        assert config.tau_lp == 0.8
        assert config.m_cap is None
        assert config.h == 3
        assert config.lambda_weight == 0.6

    @pytest.mark.parametrize(
        "field,value,flag",
        [
            ("theta_rel", 1.5, "--theta-rel"),
            ("tau_lp", 0.0, "--tau-lp"),
            ("lambda_weight", -0.1, "--lambda"),
            ("k", 0, "--k"),
            ("dim", 0, "--dim"),
            ("margin", 0.0, "--margin"),
            ("mode", "other", "--mode"),
            ("distance", "l3", "--dist"),
            ("m_cap", -2, "--m-cap"),
        ],
    )
    def test_out_of_range_names_flag(self, field, value, flag):
        with pytest.raises(UsageError, match=flag):
            PipelineConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [("h", 1.5), ("window", True), ("m_cap", "3"), ("theta_rel", None), ("enrich", 1), ("mode", 0), ("lexicon", 1)],
    )
    def test_wrong_type_names_field(self, field, value):
        with pytest.raises(UsageError, match=f"config {field} must be"):
            PipelineConfig(**{field: value})

    def test_int_is_a_float(self):
        PipelineConfig(theta_rel=1, lambda_weight=0, tau_lp=1)
        TrainConfig(margin=2, learning_rate=1)
        ExtractorHyperparams(learning_rate=1, l2=0)

    @pytest.mark.parametrize(
        "settings,field,value,kind",
        [
            (TrainConfig, "epochs", 2.5, "int"),
            (TrainConfig, "dim", "6", "int"),
            (TrainConfig, "learning_rate", True, "float"),
            (TrainConfig, "seed", 2.5, "int"),
            (TrainConfig, "margin", None, "float"),
            (TrainConfig, "distance", 1, "str"),
            (ExtractorHyperparams, "learning_rate", "0.1", "float"),
            (ExtractorHyperparams, "epochs", True, "int"),
            (ExtractorHyperparams, "l2", [0.0], "float"),
            (ExtractorHyperparams, "seed", 13.0, "int"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else None,
    )
    def test_wrong_setting_type_names_field(self, settings, field, value, kind):
        # TrainConfig(epochs=2.5) and a boolean learning rate used to be accepted, and TrainConfig(dim="6") was a bare TypeError.
        with pytest.raises(ConfigError) as refused:
            settings(**{field: value})
        assert str(refused.value) == f"{field} must be {kind}, got {value!r}"


class TestConfigFile:
    def test_parse_and_merge(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# pipeline settings\n"
            "window = 12\n"
            "lambda = 0.4\n"
            "mode = kbmatch\n"
            "enrich = true\n"
            "m_cap = none\n"
            "lexicon = lex.tsv  # trailing comment\n",
            encoding="utf-8",
        )
        overrides = read_config_file(path)
        config = merge_config(overrides, {})
        assert config.window == 12
        assert config.lambda_weight == 0.4
        assert config.enrich is True
        assert config.m_cap is None
        assert config.lexicon == "lex.tsv"

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("window = 12\n", encoding="utf-8")
        config = merge_config(read_config_file(path), {"window": 40})
        assert config.window == 40

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("wndow = 12\n", encoding="utf-8")
        with pytest.raises(UsageError, match="wndow"):
            read_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("window = lots\n", encoding="utf-8")
        with pytest.raises(UsageError, match="window"):
            read_config_file(path)

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("window 12\n", encoding="utf-8")
        with pytest.raises(UsageError, match="line 1"):
            read_config_file(path)


TINY = math.ulp(0.0)  # the least positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
# For every setting of RULES: the values on the edges of its range, which it
# admits, and the first values outside them, which it refuses.
EDGES = {
    "window": ([0], [-1]),
    "theta_rel": ([0.0, 1.0], [-TINY, ABOVE_ONE]),
    "mode": (["model", "kbmatch"], ["modle"]),
    "extractor_lr": ([TINY], [0.0]),
    "extractor_epochs": ([0], [-1]),
    "l2": ([0.0], [-TINY]),
    "dim": ([1], [0]),
    "margin": ([TINY], [0.0]),
    "transe_lr": ([TINY], [0.0]),
    "transe_epochs": ([0], [-1]),
    "distance": (["l1", "l2"], ["l3"]),
    "tau_lp": ([TINY, 1.0], [0.0, ABOVE_ONE]),
    "m_cap": ([0, None], [-1]),
    "h": ([0], [-1]),
    "lambda_weight": ([0.0, 1.0], [-TINY, ABOVE_ONE]),
    "tau_doc": ([0.0, 1.0], [-TINY, ABOVE_ONE]),
    "k": ([1], [0]),
    "seed": ([0], [-1]),
}
# The library entry points that take each setting: (name, call with the value, error type).
LIBRARY = {
    "window": [("generate_candidates", lambda e, v: generate_candidates("d", e.mentions, e.sentences, e.tokens, v), UsageError)],
    "theta_rel": [("extract_relations", lambda e, v: extract_relations([], e.extractor, v, [], e.lexicon), UsageError)],
    "mode": [],
    "extractor_lr": [("ExtractorHyperparams", lambda e, v: ExtractorHyperparams(learning_rate=v), ConfigError)],
    "extractor_epochs": [("ExtractorHyperparams", lambda e, v: ExtractorHyperparams(epochs=v), ConfigError)],
    "l2": [("ExtractorHyperparams", lambda e, v: ExtractorHyperparams(l2=v), ConfigError)],
    "dim": [("TrainConfig", lambda e, v: TrainConfig(dim=v), ConfigError)],
    "margin": [("TrainConfig", lambda e, v: TrainConfig(margin=v), ConfigError)],
    "transe_lr": [("TrainConfig", lambda e, v: TrainConfig(learning_rate=v), ConfigError)],
    "transe_epochs": [("TrainConfig", lambda e, v: TrainConfig(epochs=v), ConfigError)],
    "distance": [("TrainConfig", lambda e, v: TrainConfig(distance=v), ConfigError)],
    "tau_lp": [("enrich_network", lambda e, v: enrich_network(e.net, e.model, v), UsageError)],
    "m_cap": [("enrich_network", lambda e, v: enrich_network(e.net, e.model, 0.5, v), UsageError)],
    "h": [("wl_label_history", lambda e, v: wl_label_history(e.net, v, LabelCompressor()), UsageError)],
    "lambda_weight": [
        ("search", lambda e, v: search(e.index, e.query, 3, v), UsageError),
        ("build_collection_graph", lambda e, v: build_collection_graph(e.index, lam=v), UsageError),
        ("combined_similarity", lambda e, v: combined_similarity(e.net, e.net, v, LabelCompressor(), 1, e.model), UsageError),
    ],
    "tau_doc": [("build_collection_graph", lambda e, v: build_collection_graph(e.index, tau_doc=v), UsageError)],
    "k": [("search", lambda e, v: search(e.index, e.query, v), UsageError)],
    "seed": [
        ("TrainConfig", lambda e, v: TrainConfig(seed=v), ConfigError),
        ("ExtractorHyperparams", lambda e, v: ExtractorHyperparams(seed=v), ConfigError),
    ],
}


def test_every_rule_has_edges_and_entry_points():
    assert list(EDGES) == list(LIBRARY) == list(RULES)


@pytest.fixture(scope="module")
def library():
    lexicon = helpers.synth_lexicon()
    kb = helpers.synth_kb(lexicon)
    corpus = helpers.synth_corpus(lexicon, 4, seed=3)
    model = init_model(kb.entities, kb.relations, TrainConfig(dim=4))
    index = index_corpus(corpus, lexicon, PipelineConfig(), kb=kb, transe=model)
    analysis = analyze(corpus[0], lexicon, 30)
    return SimpleNamespace(
        lexicon=lexicon,
        model=model,
        index=index,
        query=corpus[1].content(),
        net=index.networks[corpus[0].id],
        tokens=analysis.tokens,
        mentions=analysis.mentions,
        sentences=analysis.sentences,
        extractor=ExtractorModel({}, np.zeros((2, 0)), ["NA", "rel"], ExtractorHyperparams()),
    )


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    return helpers.write_pipeline_fixtures(tmp_path_factory.mktemp("rules"), num_docs=2, seed=3)


class TestRules:
    @pytest.mark.parametrize("name", RULES)
    def test_pipeline_config(self, name):
        inside, outside = EDGES[name]
        for value in inside:
            assert getattr(PipelineConfig(**{name: value}), name) == value
        for value in outside:
            with pytest.raises(UsageError) as refused:
                PipelineConfig(**{name: value})
            assert str(refused.value) == f"{flag(name)} {RULES[name][1]}"

    @pytest.mark.parametrize("name", RULES)
    def test_config_file(self, name, cli_inputs, tmp_path, capsys):
        inside, outside = EDGES[name]
        argv = ["link", "--lexicon", cli_inputs["lexicon"], "--corpus", cli_inputs["corpus"], "--config", str(tmp_path / "run.conf")]
        for value, code in [(value, 0) for value in inside] + [(value, 1) for value in outside]:
            text = "none" if value is None else repr(value) if type(value) is float else str(value)
            (tmp_path / "run.conf").write_text(f"{name} = {text}\n", encoding="utf-8")
            capsys.readouterr()
            assert dispatch([*argv, "--out", str(tmp_path / "out")]) == code, text
            assert capsys.readouterr().err == ("" if code == 0 else f"error: {flag(name)} {RULES[name][1]}\n")

    @pytest.mark.parametrize("name", [name for name in RULES if LIBRARY[name]])
    def test_library(self, name, library):
        inside, outside = EDGES[name]
        for entry, call, error in LIBRARY[name]:
            for value in inside:
                call(library, value)
            for value in outside:
                with pytest.raises(error) as refused:
                    call(library, value)
                assert str(refused.value).endswith(f" {RULES[name][1]}, got {value!r}"), entry


def test_config_imports_only_errors_and_kb():
    # The package imports every module, so a bare package object stands in
    # for it: what is loaded then is what the settings layer itself imports.
    code = (
        "import sys, types\n"
        "package = types.ModuleType('casegraph')\n"
        "package.__path__ = [sys.argv[1]]\n"
        "sys.modules['casegraph'] = package\n"
        "import casegraph.config\n"
        "print(*sorted(name for name in sys.modules if name.startswith('casegraph.')))\n"
    )
    package = str(Path(casegraph.__file__).parent)
    loaded = subprocess.run([sys.executable, "-c", code, package], capture_output=True, text=True, check=True).stdout
    assert loaded.split() == ["casegraph.config", "casegraph.errors", "casegraph.kb"]
