"""JSON experiment configs with dotted-key command-line overrides."""

from __future__ import annotations

import json
from numbers import Integral
from pathlib import Path

from .exceptions import ConfigError

__all__ = ["load_config", "dump_config", "apply_overrides", "check_int_fields"]


def check_int_fields(obj, *names: str) -> None:
    """Raise ConfigError unless each named field of obj is an integer (a bool is not)."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
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
