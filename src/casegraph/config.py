"""Pipeline configuration: defaults, config-file parsing, type and range validation.

Config files are flat ``key = value`` text; ``#`` starts a comment and keys
match the ``PipelineConfig`` field names (``lambda`` is accepted for the
combination weight). Unknown keys are rejected. Command-line flags override
file values, which override the built-in defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import UsageError
from .kb import read_lines

MODES = ("model", "kbmatch")
DISTANCES = ("l1", "l2")


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
    extractor_lr: float = 0.1
    extractor_epochs: int = 50
    l2: float = 1e-4
    # embedding training
    dim: int = 50
    margin: float = 1.0
    transe_lr: float = 0.01
    transe_epochs: int = 100
    distance: str = "l1"
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
    seed: int = 13

    def validate(self) -> None:
        for name, spec in _FIELDS.items():
            if type(getattr(self, name)) not in _TYPES[spec.type]:
                raise UsageError(f"config {name} must be {spec.type}, got {getattr(self, name)!r}")
        checks = [
            (self.window >= 0, "--window", "must be >= 0"),
            (0.0 <= self.theta_rel <= 1.0, "--theta-rel", "must be within [0, 1]"),
            (self.mode in MODES, "--mode", f"must be one of {', '.join(MODES)}"),
            (self.extractor_lr > 0, "--lr", "must be > 0"),
            (self.extractor_epochs >= 0, "--epochs", "must be >= 0"),
            (self.l2 >= 0, "--l2", "must be >= 0"),
            (self.dim >= 1, "--dim", "must be >= 1"),
            (self.margin > 0, "--margin", "must be > 0"),
            (self.transe_lr > 0, "--lr", "must be > 0"),
            (self.transe_epochs >= 0, "--epochs", "must be >= 0"),
            (self.distance in DISTANCES, "--dist", f"must be one of {', '.join(DISTANCES)}"),
            (0.0 < self.tau_lp <= 1.0, "--tau-lp", "must be within (0, 1]"),
            (self.m_cap is None or self.m_cap >= 0, "--m-cap", "must be >= 0"),
            (self.h >= 0, "--h", "must be >= 0"),
            (0.0 <= self.lambda_weight <= 1.0, "--lambda", "must be within [0, 1]"),
            (0.0 <= self.tau_doc <= 1.0, "--tau-doc", "must be within [0, 1]"),
            (self.k >= 1, "--k", "must be >= 1"),
            (self.seed >= 0, "--seed", "must be >= 0"),
        ]
        for ok, flag, rule in checks:
            if not ok:
                raise UsageError(f"{flag} {rule}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}
# The types each annotation admits; an int is a float, but a bool is no number.
_TYPES = {
    "str": (str,),
    "str | None": (str, type(None)),
    "int": (int,),
    "int | None": (int, type(None)),
    "float": (int, float),
    "bool": (bool,),
}
_KEY_ALIASES = {"lambda": "lambda_weight"}
_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _coerce(key: str, value: str):
    field = _FIELDS[key]
    if key == "m_cap" and value.lower() == "none":
        return None
    if field.type in ("bool",):
        lowered = value.lower()
        if lowered not in _BOOL_VALUES:
            raise UsageError(f"config key {key}: expected a boolean, got {value!r}")
        return _BOOL_VALUES[lowered]
    try:
        if field.type in ("int", "int | None"):
            return int(value)
        if field.type in ("float",):
            return float(value)
    except ValueError:
        raise UsageError(f"config key {key}: cannot parse {value!r}") from None
    return value


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
        if key not in _FIELDS:
            raise UsageError(f"{path}: line {lineno}: unknown config key {key!r}")
        overrides[key] = _coerce(key, value)
    return overrides


def merge_config(file_overrides: dict, cli_overrides: dict) -> PipelineConfig:
    """Defaults, then file values, then explicitly-set CLI flags."""
    config = PipelineConfig()
    for source in (file_overrides, cli_overrides):
        for key, value in source.items():
            if value is None:
                continue
            setattr(config, key, value)
    config.validate()
    return config
