"""Pipeline configuration: defaults, config-file parsing, and the rule of every setting.

Config files are flat ``key = value`` text; ``#`` starts a comment and keys
match the ``PipelineConfig`` field names (``lambda`` is accepted for the
combination weight). Unknown keys are rejected. Command-line flags override
file values, which override the built-in defaults. Each field is also the
command-line flag that ``flag`` names, and its annotation sets how that flag
and a config-file value are parsed.

``RULES`` holds the range of every setting: a frozen ``PipelineConfig`` checks
itself when it is made, and the library checks the same rules (``check``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, UsageError
from .kb import read_lines

MODES = ("model", "kbmatch")
DISTANCES = ("l1", "l2")
# The fields whose value is one of a fixed set of names.
CHOICES = {"mode": MODES, "distance": DISTANCES}


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        for name, spec in FIELDS.items():
            if type(getattr(self, name)) not in VALUE_TYPES[spec.type][1]:
                raise UsageError(f"config {name} must be {spec.type}, got {getattr(self, name)!r}")
        for name, (test, rule) in RULES.items():
            if not test(getattr(self, name)):
                raise UsageError(f"{flag(name)} {rule}")


# For each setting with a range: its test and the rule it enforces, in the
# order a config is checked.
RULES = {
    "window": (lambda v: v >= 0, "must be >= 0"),
    "theta_rel": (lambda v: 0.0 <= v <= 1.0, "must be within [0, 1]"),
    "mode": (lambda v: v in MODES, f"must be one of {', '.join(MODES)}"),
    "extractor_lr": (lambda v: v > 0, "must be > 0"),
    "extractor_epochs": (lambda v: v >= 0, "must be >= 0"),
    "l2": (lambda v: v >= 0, "must be >= 0"),
    "dim": (lambda v: v >= 1, "must be >= 1"),
    "margin": (lambda v: v > 0, "must be > 0"),
    "transe_lr": (lambda v: v > 0, "must be > 0"),
    "transe_epochs": (lambda v: v >= 0, "must be >= 0"),
    "distance": (lambda v: v in DISTANCES, f"must be one of {', '.join(DISTANCES)}"),
    "tau_lp": (lambda v: 0.0 < v <= 1.0, "must be within (0, 1]"),
    "m_cap": (lambda v: v is None or v >= 0, "must be >= 0"),
    "h": (lambda v: v >= 0, "must be >= 0"),
    "lambda_weight": (lambda v: 0.0 <= v <= 1.0, "must be within [0, 1]"),
    "tau_doc": (lambda v: 0.0 <= v <= 1.0, "must be within [0, 1]"),
    "k": (lambda v: v >= 1, "must be >= 1"),
    "seed": (lambda v: v >= 0, "must be >= 0"),
}


def check(name: str, value, label: str | None = None, error: type[Exception] = UsageError):
    """``value``, or ``error`` unless it obeys the rule of setting ``name``; the message names ``label`` or ``name``."""
    test, rule = RULES[name]
    if not test(value):
        raise error(f"{label or name} {rule}, got {value!r}")
    return value


class Settings:
    """Base of a frozen dataclass whose fields are settings (``setting``); each is checked when it is made."""

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            check(field.metadata["setting"], getattr(self, field.name), field.name, ConfigError)


def setting(name: str):
    """A ``Settings`` field that takes the default and the rule of the ``PipelineConfig`` setting ``name``."""
    return dataclasses.field(default=getattr(PipelineConfig, name), metadata={"setting": name})


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
    return PipelineConfig(**merged)
