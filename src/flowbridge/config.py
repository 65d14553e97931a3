"""JSON experiment configs with dotted-key command-line overrides."""

from __future__ import annotations

import json
import math
from numbers import Integral, Real
from pathlib import Path

from .exceptions import ConfigError

__all__ = ["load_config", "dump_config", "apply_overrides", "check_int_fields",
           "check_real_fields", "build_config", "MAX_ARRAY_VALUES"]

# Most values one array may hold: a float64 array of 2**60 values takes 2**63
# bytes, past numpy's array-size limit, where allocation raises ValueError
# rather than the MemoryError the CLI reports. A count from outside is refused
# once an array sized by it would reach this bound.
MAX_ARRAY_VALUES = 2**60


def check_int_fields(obj, *names: str, low: int | None = None) -> None:
    """Raise ConfigError unless each named field of obj is an integer (a bool is not) >= low."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def check_real_fields(obj, *names: str, positive: bool = False, unit: bool = False) -> None:
    """Raise ConfigError unless each named field of obj is a finite real (a bool is not),
    also > 0 when positive and in [0, 1] when unit."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if (positive and value <= 0) or (unit and not 0 <= value <= 1):
            raise ConfigError(f"{name} must be {'> 0' if positive else 'in [0, 1]'}, got {value}")


def build_config(cls, raw, section: str, **derived):
    """cls(**raw, **derived), with ConfigError for a non-object section or a bad or derived key."""
    if not isinstance(raw, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    try:
        return cls(**raw, **derived)
    except TypeError as exc:
        raise ConfigError(f"{section} section: {exc}") from exc


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return cfg


def dump_config(cfg: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def apply_overrides(cfg: dict, assignments: list[str]) -> dict:
    """Apply "section.key=value" assignments to a nested dict (copy returned).

    Values parse as JSON where possible (numbers, booleans, null, quoted
    strings) and fall back to the raw string. Intermediate sections are
    created on demand; indexing into a non-dict is an error.
    """
    out = json.loads(json.dumps(cfg))
    for item in assignments:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"cannot set {key!r}: {part!r} is not a section")
        node[parts[-1]] = parsed
    return out
