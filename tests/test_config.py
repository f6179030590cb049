from __future__ import annotations

import pytest

from casegraph.config import PipelineConfig, merge_config, read_config_file
from casegraph.errors import UsageError


class TestDefaults:
    def test_defaults_validate(self):
        config = PipelineConfig()
        config.validate()
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
        config = PipelineConfig()
        setattr(config, field, value)
        with pytest.raises(UsageError, match=flag):
            config.validate()

    @pytest.mark.parametrize(
        "field,value",
        [("h", 1.5), ("window", True), ("m_cap", "3"), ("theta_rel", None), ("enrich", 1), ("mode", 0), ("lexicon", 1)],
    )
    def test_wrong_type_names_field(self, field, value):
        config = PipelineConfig()
        setattr(config, field, value)
        with pytest.raises(UsageError, match=f"config {field} must be"):
            config.validate()

    def test_int_is_a_float(self):
        PipelineConfig(theta_rel=1, lambda_weight=0, tau_lp=1).validate()


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
