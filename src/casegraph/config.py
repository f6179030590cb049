"""Pipeline configuration: defaults, config-file parsing, type and range validation.

Config files are flat ``key = value`` text; ``#`` starts a comment and keys
match the ``PipelineConfig`` field names (``lambda`` is accepted for the
combination weight). Unknown keys are rejected. Command-line flags override
file values, which override the built-in defaults. Each field is also the
command-line flag that ``flag`` names, and its annotation sets how that flag
and a config-file value are parsed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError
from .kb import read_lines
from .relations import ExtractorHyperparams
from .transe import DISTANCES, TrainConfig

MODES = ("model", "kbmatch")
# The fields whose value is one of a fixed set of names.
CHOICES = {"mode": MODES, "distance": DISTANCES}


@dataclass
class PipelineConfig:
    # artifact paths
    lexicon: str | None = None
    triples: str | None = None
    corpus: str | None = None
    extractor_model: str | None = None
    transe_model: str | None = None
    index: str | None = None
    # mention pairing / extraction
    window: int = 30
    theta_rel: float = 0.5
    mode: str = "kbmatch"
    # extractor training
    extractor_lr: float = ExtractorHyperparams.learning_rate
    extractor_epochs: int = ExtractorHyperparams.epochs
    l2: float = ExtractorHyperparams.l2
    # embedding training
    dim: int = TrainConfig.dim
    margin: float = TrainConfig.margin
    transe_lr: float = TrainConfig.learning_rate
    transe_epochs: int = TrainConfig.epochs
    distance: str = TrainConfig.distance
    # graph enrichment
    tau_lp: float = 0.8
    m_cap: int | None = None  # None: per-document cap = number of extracted edges
    enrich: bool = False
    fuse: bool = False
    # similarity and retrieval
    h: int = 3
    lambda_weight: float = 0.6
    tau_doc: float = 0.5
    k: int = 10
    prune: bool = False
    seed: int = TrainConfig.seed

    def validate(self) -> None:
        for name, spec in FIELDS.items():
            if type(getattr(self, name)) not in VALUE_TYPES[spec.type][1]:
                raise UsageError(f"config {name} must be {spec.type}, got {getattr(self, name)!r}")
        checks = [
            ("window", self.window >= 0, "must be >= 0"),
            ("theta_rel", 0.0 <= self.theta_rel <= 1.0, "must be within [0, 1]"),
            ("mode", self.mode in MODES, f"must be one of {', '.join(MODES)}"),
            ("extractor_lr", self.extractor_lr > 0, "must be > 0"),
            ("extractor_epochs", self.extractor_epochs >= 0, "must be >= 0"),
            ("l2", self.l2 >= 0, "must be >= 0"),
            ("dim", self.dim >= 1, "must be >= 1"),
            ("margin", self.margin > 0, "must be > 0"),
            ("transe_lr", self.transe_lr > 0, "must be > 0"),
            ("transe_epochs", self.transe_epochs >= 0, "must be >= 0"),
            ("distance", self.distance in DISTANCES, f"must be one of {', '.join(DISTANCES)}"),
            ("tau_lp", 0.0 < self.tau_lp <= 1.0, "must be within (0, 1]"),
            ("m_cap", self.m_cap is None or self.m_cap >= 0, "must be >= 0"),
            ("h", self.h >= 0, "must be >= 0"),
            ("lambda_weight", 0.0 <= self.lambda_weight <= 1.0, "must be within [0, 1]"),
            ("tau_doc", 0.0 <= self.tau_doc <= 1.0, "must be within [0, 1]"),
            ("k", self.k >= 1, "must be >= 1"),
            ("seed", self.seed >= 0, "must be >= 0"),
        ]
        for name, ok, rule in checks:
            if not ok:
                raise UsageError(f"{flag(name)} {rule}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
# For each annotation: how a command-line or config-file value is parsed (None
# keeps the text, bool reads a switch) and the types a field admits. An int is
# a float, but a bool is no number.
VALUE_TYPES = {
    "str": (None, (str,)),
    "str | None": (None, (str, type(None))),
    "int": (int, (int,)),
    "int | None": (int, (int, type(None))),
    "float": (float, (int, float)),
    "bool": (bool, (bool,)),
}
# The flags that are not the field name spelled with dashes.
_FLAG_ALIASES = {
    "extractor_lr": "lr", "transe_lr": "lr", "extractor_epochs": "epochs", "transe_epochs": "epochs",
    "distance": "dist", "lambda_weight": "lambda",
}
_KEY_ALIASES = {"lambda": "lambda_weight"}
_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def flag(name: str) -> str:
    """The command-line flag of a setting, or of an option named like one."""
    return "--" + _FLAG_ALIASES.get(name, name).replace("_", "-")


def _coerce(key: str, value: str):
    annotation = FIELDS[key].type
    parse = VALUE_TYPES[annotation][0]
    if annotation == "int | None" and value.lower() == "none":
        return None
    if parse is bool:
        lowered = value.lower()
        if lowered not in _BOOL_VALUES:
            raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
        return _BOOL_VALUES[lowered]
    if parse is None:
        return value
    try:
        return parse(value)
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {value!r}") from None


def read_config_file(path: str | Path) -> dict:
    """Parse a flat key = value file into PipelineConfig field overrides."""
    overrides: dict = {}
    for lineno, line in read_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}: line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = _KEY_ALIASES.get(key, key)
        if key not in FIELDS:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    return overrides


def merge_config(file_overrides: dict, cli_overrides: dict) -> PipelineConfig:
    """Defaults, then file values, then explicitly-set CLI flags."""
    merged = {k: v for source in (file_overrides, cli_overrides) for k, v in source.items() if v is not None}
    config = PipelineConfig(**merged)
    config.validate()
    return config
