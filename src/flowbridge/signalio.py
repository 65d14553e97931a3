"""File formats: the binary frame of signal batches and checkpoints, and CSV tables.

A frame is an 8-byte magic, a uint32 LE version, a uint32 LE header length, a
sorted-key UTF-8 JSON object header, then the payload. A signal batch is one
frame whose payload is (B, N) little-endian float32 samples. Tables are plain
CSV; floats are written with repr so they round-trip exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from .exceptions import CsvFormatError, ValidationError

__all__ = ["save_signals", "load_signals", "write_frame", "read_frame", "write_csv", "read_csv",
           "format_value"]

MAGIC = b"FBSIGNAL"
VERSION = 1


def write_frame(path: str | Path, magic: bytes, version: int, header: dict, payload: bytes) -> None:
    """Write the magic, the version, the sorted-key JSON header and its length, then the payload."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    Path(path).write_bytes(b"".join([magic, struct.pack("<II", version, len(blob)), blob, payload]))


def read_frame(path, magic: bytes, version: int, error: type, kind: str) -> tuple[dict, memoryview]:
    """The header and payload of a framed file; a framing fault raises `error` naming the path
    (and, for a file too short or a wrong magic, the format `kind`)."""
    raw = Path(path).read_bytes()
    start = len(magic) + 8
    if len(raw) < start:
        raise error(f"{path}: file too short to be a {kind}")
    if raw[: len(magic)] != magic:
        raise error(f"{path}: bad magic bytes, not a {kind}")
    got, header_len = struct.unpack_from("<II", raw, len(magic))
    if got != version:
        raise error(f"{path}: unsupported format version {got}")
    end = start + header_len
    if end > len(raw):
        raise error(f"{path}: truncated header")
    try:
        header = json.loads(raw[start:end].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an integer too long to parse
        raise error(f"{path}: corrupt header ({exc})") from exc
    if not isinstance(header, dict):
        raise error(f"{path}: header must be an object")
    return header, memoryview(raw)[end:]


def _signal_header(path, shape, fs) -> dict:
    """The one `.fbs` header rule, on save and on load: two positive int sizes and an `fs`
    that is null or a finite number > 0, bools refused; a numpy real is stored as a float."""
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(n) is int and n > 0 for n in shape)):
        raise ValidationError(f"{path}: expected (B, N) signals, B and N > 0, got {shape!r}")
    if isinstance(fs, (np.integer, np.floating)):
        fs = float(fs)
    # Compared, not math.isfinite: a JSON integer past the float range must not overflow.
    if fs is not None and not (type(fs) in (int, float) and 0 < fs < math.inf):
        raise ValidationError(f"{path}: fs must be null or a finite number > 0, got {fs!r}")
    return {"fs": fs, "shape": shape}


def save_signals(path: str | Path, values: np.ndarray, fs: float | None = None) -> None:
    values = np.asarray(values)
    header = _signal_header(path, list(values.shape), fs)
    write_frame(path, MAGIC, VERSION, header, np.ascontiguousarray(values, dtype="<f4").tobytes())


def load_signals(path: str | Path) -> tuple[np.ndarray, float | None]:
    header, payload = read_frame(path, MAGIC, VERSION, ValidationError, "signal batch")
    header = _signal_header(path, header.get("shape"), header.get("fs"))
    rows, length = header["shape"]
    if len(payload) != 4 * rows * length:
        raise ValidationError(f"{path}: payload is {len(payload)} bytes, not {4 * rows * length}")
    raw = np.frombuffer(payload, dtype="<f4")
    return raw.reshape(rows, length).astype(np.float32), header["fs"]


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
