"""Binary checkpoint format for models.

Layout: 8-byte magic, uint32 LE format version, uint32 LE header length, a
UTF-8 JSON header (model config, parameter manifest, caller extras), then the
raw little-endian parameter payload in manifest order. Floats round-trip
bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from itertools import zip_longest
from pathlib import Path

import numpy as np

from ..config import build_config
from ..exceptions import CheckpointError, ConfigError
from .model import ModelConfig, VectorFieldModel, param_layout

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = b"FBRIDGE1"
VERSION = 3

_WIRE = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(path: str | Path, model: VectorFieldModel, extra: dict | None = None) -> None:
    wire = _WIRE[model.config.dtype]
    manifest = [[name, list(p.data.shape)] for name, p in model.params.items()]
    header = {"config": asdict(model.config), "extra": extra or {}, "params": manifest}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob]
    for p in model.params.values():
        chunks.append(np.ascontiguousarray(p.data, dtype=wire).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[VectorFieldModel, dict]:
    """Rebuild a model bit-exactly from disk; returns it with the extra metadata."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + 8:
        raise CheckpointError(f"{path}: file too short to be a checkpoint")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version, header_len = struct.unpack_from("<II", raw, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    offset = len(MAGIC) + 8
    if offset + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to parse
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be an object")
    offset += header_len

    try:
        config = build_config(ModelConfig, header.get("config"), "config")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid model config ({exc})") from exc
    # Check the header's layout and the payload length against the config
    # before any parameter exists: a corrupt size must not allocate.
    manifest = header.get("params")
    expected = ([name, list(shape)] for name, shape, _ in param_layout(config))
    try:
        matches = isinstance(manifest, list) and all(
            got == want for got, want in zip_longest(manifest, expected)
        )
    except OverflowError:  # a config size past the float range of the init scales
        matches = False
    if not matches:
        raise CheckpointError(f"{path}: parameter manifest does not match model config")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: extra metadata must be an object")
    wire = np.dtype(_WIRE[config.dtype])
    nbytes = sum(math.prod(shape) for _, shape in manifest) * wire.itemsize
    if offset + nbytes > len(raw):
        raise CheckpointError(f"{path}: truncated payload")
    if offset + nbytes != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset - nbytes} trailing bytes after payload")

    model = VectorFieldModel(config, np.random.default_rng(0))
    for p in model.params.values():
        arr = np.frombuffer(raw, dtype=wire, count=p.data.size, offset=offset)
        p.data = arr.astype(config.np_dtype).reshape(p.data.shape)
        offset += p.data.size * wire.itemsize
    return model, extra
