"""Experiment configuration: flat key=value files plus command-line overrides.

Precedence, lowest to highest: built-in defaults, config file, the
STYLOSIG_OUTPUT_DIR environment variable (output_dir only), explicit
overrides.  Validation gathers every problem before failing so one run
reports them all.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import ConfigError

OUTPUT_ENV = "STYLOSIG_OUTPUT_DIR"

PROTOCOLS = ("rolling", "chimeric")
CLASSIFIERS = ("mnb", "pnb")
FAMILIES = ("ngram", "sngram")
ELEMENTS = ("word", "lemma", "upos", "deprel")
FUSION_OPERATORS = ("average", "product")
EXTERNAL_KINDS = ("fuzzy", "probability")


@dataclass
class ExperimentConfig:
    corpus_dir: Path | None = None
    protocol: str = "rolling"
    train_window: int = 8
    test_window: int = 5
    train_docs: int = 5
    test_docs: int = 15
    feature_family: str = "ngram"
    ngram_orders: tuple[int, ...] = (1, 2)
    sngram_element: str = "word"
    sngram_order: int = 2
    profile_size: int = 10000
    classifier: str = "mnb"
    alpha: float = 0.01
    fusion_operator: str = "average"
    signature_dir: Path | None = None
    signature_matrix: Path | None = None
    external_matrix: Path | None = None
    external_kind: str = "fuzzy"
    delta_alpha: float = 25.0
    msh_bins: int = 20
    grid_points: int = 101
    confidence: float = 0.95
    output_dir: Path = Path("out")

    def to_json(self) -> dict:
        """Every key with its resolved value; paths become strings."""
        return {key: str(v) if isinstance(v, Path) else v for key, v in asdict(self).items()}


def _parse_orders(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of orders")
    orders = tuple(int(p) for p in parts)
    if any(k < 1 for k in orders):
        raise ValueError("orders must be positive")
    if len(set(orders)) != len(orders):
        raise ValueError("orders must not repeat")
    return orders


def _enum(options):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw

    return parse


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _in_range(kind, low, high):
    """Parser of a ``kind`` value in [low, high]; NaN lies in no range."""

    def parse(raw: str):
        value = kind(raw)
        if not low <= value <= high:
            raise ValueError(f"must be in [{low:g}, {high:g}]")
        return value

    return parse


def _confidence(raw: str) -> float:
    value = float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError("must be in (0, 1)")
    return value


_PARSERS = {
    "corpus_dir": Path,
    "protocol": _enum(PROTOCOLS),
    "train_window": _positive_int,
    "test_window": _positive_int,
    "train_docs": _positive_int,
    "test_docs": _positive_int,
    "feature_family": _enum(FAMILIES),
    "ngram_orders": _parse_orders,
    "sngram_element": _enum(ELEMENTS),
    "sngram_order": _positive_int,
    "profile_size": _positive_int,
    "classifier": _enum(CLASSIFIERS),
    "alpha": _in_range(float, 0.0, 1e100),  # keeps MNB's smoothed denominator, counts + alpha * m, finite
    "fusion_operator": _enum(FUSION_OPERATORS),
    "signature_dir": Path,
    "signature_matrix": Path,
    "external_matrix": Path,
    "external_kind": _enum(EXTERNAL_KINDS),
    "delta_alpha": _in_range(float, 0.25, 360.0),  # at most 1440 bins per direction histogram
    "msh_bins": _in_range(int, 1, 10_000),  # bins of each MSH histogram
    "grid_points": _in_range(int, 2, 10_001),  # thresholds of each curve, down to a step of 1e-4
    "confidence": _confidence,
    "output_dir": Path,
}

_FIELD_NAMES = {f.name for f in fields(ExperimentConfig)}
assert set(_PARSERS) == _FIELD_NAMES


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read `key = value` lines; '#' lines are comments."""
    path = Path(path)
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError([f"cannot read config {path}: {exc}"]) from exc
    values: dict[str, str] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key = value")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            problems.append(f"{path}:{lineno}: empty key or value")
            continue
        if key in values:
            problems.append(f"{path}:{lineno}: duplicate key {key!r}")
            continue
        values[key] = value
    if problems:
        raise ConfigError(problems)
    return values


def build_config(file_values: dict[str, str] | None = None, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge raw string settings into a typed config, reporting every bad value."""
    merged = dict(file_values or {})
    env_out = os.environ.get(OUTPUT_ENV)
    if env_out:
        merged["output_dir"] = env_out
    merged.update(overrides or {})

    config = ExperimentConfig()
    problems: list[str] = []
    for key, raw in merged.items():
        parser = _PARSERS.get(key)
        if parser is None:
            problems.append(f"unknown config key {key!r}")
            continue
        try:
            setattr(config, key, parser(raw))
        except ValueError as exc:
            detail = str(exc) or "bad value"
            problems.append(f"{key}={raw!r}: {detail}")
    if problems:
        raise ConfigError(problems)
    return config


_REQUIRED = {
    "train": ("corpus_dir",),
    "attribute": (),
    "sigscore": ("signature_dir",),
    "chimeric": ("corpus_dir", "signature_dir"),
    "bench": (),
}


def validate_for(config: ExperimentConfig, command: str) -> None:
    """Check that the config carries everything ``command`` needs."""
    problems = []
    if command == "eval":
        required = ["corpus_dir"]
        if config.protocol == "chimeric" and config.signature_dir is None:
            # the pairing of authors with writers needs the writers, even
            # when signature_matrix supplies the scores
            problems.append("chimeric eval needs signature_dir, also with signature_matrix")
    else:
        required = list(_REQUIRED.get(command, ()))
    for key in required:
        if getattr(config, key) is None:
            problems.append(f"{command} requires {key}")
    for key in ("corpus_dir", "signature_dir"):
        value = getattr(config, key)
        if value is not None and key in required and not Path(value).is_dir():
            problems.append(f"{key} {value} is not a directory")
    out = Path(config.output_dir)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None and command != "attribute":  # attribute writes no bundle
        problems.append(f"output_dir {out}: {blocker} is not a directory")
    for key in ("signature_matrix", "external_matrix"):
        value = getattr(config, key)
        if value is not None and not Path(value).is_file():
            problems.append(f"{key} {value} is not a file")
    if problems:
        raise ConfigError(problems)
