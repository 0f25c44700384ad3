"""Experiment configuration: a small versioned JSON schema.

Example:

    {"schema": 1, "model": "sp3", "params": {"k": 3},
     "initial": [1, 1, 1], "steps": 300, "format": "csv"}

Unknown keys are rejected so that typos fail loudly: ``params`` must
read under the model's schema in the registry (``models.REGISTRY``), and
``tolerances`` may set only ``zero`` and ``limit``, each a finite,
non-negative number.  ``terms`` and ``points``, the payload of a
``simulate --format json`` output, are accepted and ignored, so that
output reads back as a config.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List

from .errors import ConfigError
from .models import MODEL_NAMES, REGISTRY

SCHEMA_VERSION = 1

_ALLOWED_KEYS = {"schema", "model", "params", "initial", "steps",
                 "format", "tolerances", "terms", "points"}
_ALLOWED_FORMATS = {"csv", "json"}
_TOLERANCE_KEYS = ("limit", "zero")


@dataclass
class ExperimentConfig:
    model: str
    params: dict = field(default_factory=dict)
    initial: List[float] = field(default_factory=list)
    steps: int = 100
    format: str = "csv"
    tolerances: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "schema": SCHEMA_VERSION,
            "model": self.model,
            "params": self.params,
            "initial": self.initial,
            "steps": self.steps,
            "format": self.format,
        }
        if self.tolerances:
            d["tolerances"] = self.tolerances
        return d


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("invalid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _ALLOWED_KEYS
    if unknown:
        raise ConfigError("unknown config keys: %s"
                          % ", ".join(sorted(unknown)))
    if raw.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError("unsupported schema version %r" % raw.get("schema"))
    model = raw.get("model")
    if not isinstance(model, str) or model not in MODEL_NAMES:
        raise ConfigError("model must be one of: %s"
                          % ", ".join(MODEL_NAMES))
    fmt = raw.get("format", "csv")
    if fmt not in _ALLOWED_FORMATS:
        raise ConfigError("format must be csv or json")
    steps = raw.get("steps", 100)
    if isinstance(steps, bool) or not isinstance(steps, int) or steps < 0:
        raise ConfigError("steps must be a non-negative integer")
    initial = raw.get("initial", [])
    if not isinstance(initial, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool)
            for v in initial):
        raise ConfigError("initial must be a list of numbers")
    for key in ("params", "tolerances"):
        if key in raw and not isinstance(raw[key], dict):
            raise ConfigError("%s must be an object" % key)
    REGISTRY[model].coerce(raw.get("params", {}))
    for key, value in raw.get("tolerances", {}).items():
        _check_tolerance(key, value)
    return ExperimentConfig(
        model=model,
        params=raw.get("params", {}),
        initial=[float(v) for v in initial],
        steps=steps,
        format=fmt,
        tolerances=raw.get("tolerances", {}),
    )


def _check_tolerance(key: str, value) -> None:
    if key not in _TOLERANCE_KEYS:
        raise ConfigError("unknown tolerance %r (allowed: %s)"
                          % (key, ", ".join(_TOLERANCE_KEYS)))
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not 0 <= value < math.inf:
        raise ConfigError("tolerance %r must be a finite, non-negative "
                          "number, got %r" % (key, value))


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
