"""Binary checkpoint format for models and optimizer state.

Layout: 8-byte magic, uint32 LE format version, uint32 LE header length, a
UTF-8 JSON header (model config, parameter manifest, optimizer metadata,
caller extras), then the raw little-endian parameter payload in manifest
order, followed by the Adam first and second moments when optimizer state is
saved. Floats round-trip bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from ..config import build_config
from ..exceptions import CheckpointError, ConfigError
from .adam import Adam
from .model import ModelConfig, VectorFieldModel

__all__ = ["save_checkpoint", "load_checkpoint"]

MAGIC = b"FBRIDGE1"
VERSION = 1

_WIRE = {"float32": "<f4", "float64": "<f8"}


def save_checkpoint(
    path: str | Path,
    model: VectorFieldModel,
    optimizer: Adam | None = None,
    extra: dict | None = None,
) -> None:
    wire = _WIRE[model.config.dtype]
    manifest = [[name, list(p.data.shape)] for name, p in model.params.items()]
    header = {
        "config": asdict(model.config),
        "extra": extra or {},
        "optimizer": None
        if optimizer is None
        else {
            "beta1": optimizer.beta1,
            "beta2": optimizer.beta2,
            "eps": optimizer.eps,
            "lr": optimizer.lr,
            "step": optimizer.step_count,
        },
        "params": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<II", VERSION, len(blob)), blob]
    for p in model.params.values():
        chunks.append(np.ascontiguousarray(p.data, dtype=wire).tobytes())
    if optimizer is not None:
        for mom in (optimizer.m, optimizer.v):
            for arr in mom:
                chunks.append(np.ascontiguousarray(arr, dtype=wire).tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[VectorFieldModel, Adam | None, dict]:
    """Rebuild a model (and optimizer, if saved) bit-exactly from disk."""
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
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header must be an object")
    offset += header_len

    try:
        config = build_config(ModelConfig, header.get("config"), "config")
    except ConfigError as exc:
        raise CheckpointError(f"{path}: invalid model config ({exc})") from exc
    model = VectorFieldModel(config, np.random.default_rng(0))
    expected = [[name, list(p.data.shape)] for name, p in model.params.items()]
    if header.get("params") != expected:
        raise CheckpointError(f"{path}: parameter manifest does not match model config")
    extra = header.get("extra", {})
    if not isinstance(extra, dict):
        raise CheckpointError(f"{path}: extra metadata must be an object")
    wire = np.dtype(_WIRE[config.dtype])

    def take(shape):
        nonlocal offset
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * wire.itemsize
        if offset + nbytes > len(raw):
            raise CheckpointError(f"{path}: truncated payload")
        arr = np.frombuffer(raw, dtype=wire, count=count, offset=offset)
        offset += nbytes
        return arr.astype(config.np_dtype).reshape(shape)

    for p in model.params.values():
        p.data = take(p.data.shape)

    optimizer = None
    meta = header.get("optimizer")
    if meta is not None:
        try:
            hyper = {key: meta[key] for key in ("lr", "beta1", "beta2", "eps")}
            step = meta["step"]
        except (KeyError, TypeError) as exc:
            raise CheckpointError(f"{path}: invalid optimizer header ({exc!r})") from exc
        if (
            not all(type(v) in (int, float) for v in hyper.values())
            or type(step) is not int
            or step < 0
        ):
            raise CheckpointError(f"{path}: invalid optimizer header {meta}")
        optimizer = Adam(model.parameters(), **hyper)
        optimizer.step_count = step
        optimizer.m = [take(p.data.shape) for p in model.parameters()]
        optimizer.v = [take(p.data.shape) for p in model.parameters()]
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes after payload")
    return model, optimizer, extra
