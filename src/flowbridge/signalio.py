"""File formats for signal batches and metric tables.

Signal batches are stored as raw little-endian float32 with a JSON sidecar
(same path plus ".json") carrying the shape and sample rate. Tables are plain
CSV; floats are written with repr so they round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

from .exceptions import CsvFormatError, ValidationError

__all__ = ["save_signals", "load_signals", "write_csv", "read_csv", "format_value"]


def save_signals(path: str | Path, values: np.ndarray, fs: float | None = None) -> None:
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValidationError(f"expected (B, N) signals, got {values.shape}")
    path = Path(path)
    path.write_bytes(np.ascontiguousarray(values, dtype="<f4").tobytes())
    sidecar = {"dtype": "float32", "fs": fs, "shape": list(values.shape)}
    Path(str(path) + ".json").write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def load_signals(path: str | Path) -> tuple[np.ndarray, float | None]:
    path = Path(path)
    sidecar_path = Path(str(path) + ".json")
    if not sidecar_path.exists():
        raise ValidationError(f"missing sidecar {sidecar_path}")
    try:
        meta = json.loads(sidecar_path.read_text())
        shape = tuple(meta["shape"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValidationError(f"{sidecar_path}: corrupt sidecar ({exc!r})") from exc
    if len(shape) != 2 or not all(type(n) is int and n > 0 for n in shape):
        raise ValidationError(
            f"{sidecar_path}: sidecar shape must be two positive integers, got {list(shape)}"
        )
    fs = meta.get("fs")
    if fs is not None and not (type(fs) in (int, float) and math.isfinite(fs) and fs > 0):
        raise ValidationError(
            f"{sidecar_path}: corrupt sidecar (fs must be null or a finite number > 0, got {fs!r})"
        )
    if meta.get("dtype", "float32") != "float32":
        raise ValidationError(f"{sidecar_path}: corrupt sidecar (dtype must be float32)")
    payload = path.read_bytes()
    if len(payload) != 4 * shape[0] * shape[1]:
        raise ValidationError(
            f"{path}: payload holds {len(payload)} bytes, sidecar says {shape} float32 samples"
        )
    raw = np.frombuffer(payload, dtype="<f4")
    return raw.reshape(shape).astype(np.float32), fs


def format_value(x) -> str:
    """CSV cell text: floats via repr so parsing them back is lossless."""
    if isinstance(x, (np.floating, float)):
        return repr(float(x))
    if isinstance(x, (np.integer, int)):
        return str(int(x))
    return str(x)


def write_csv(path: str | Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if len(row) != len(header):
                raise ValidationError(
                    f"row has {len(row)} cells, header has {len(header)}"
                )
            writer.writerow([format_value(x) for x in row])


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Header and string rows; width mismatches and non-UTF-8 bytes raise with the line number."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise CsvFormatError(line, f"{path} is not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(1, "file is empty") from None
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise CsvFormatError(lineno, f"expected {len(header)} cells, got {len(row)}")
        rows.append(row)
    return header, rows
