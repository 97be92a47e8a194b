"""Deterministic artifact writers: canonical JSON, CSV series, and a tiny
binary raster container shared by carpet densities and optical fields.

Raster layout: a 16-byte header (magic ``HSIM``, uint32 rows, uint32
cols, uint32 flags) followed by float64 row-major data; flag bit 0 marks
complex data stored as interleaved re/im pairs.  Everything little-endian.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "write_json",
    "write_csv",
    "write_raster",
    "read_raster",
]

_MAGIC = b"HSIM"
_FLAG_COMPLEX = 1


def write_json(path, payload: dict) -> None:
    """Canonical JSON: sorted keys, fixed separators, trailing newline.

    Identical payloads serialize to identical bytes, which is what makes
    rerun-determinism checks meaningful.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n")


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, header: list, rows) -> None:
    """Plain comma-separated table; floats via repr for exact round-trip."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_raster(path, data: np.ndarray) -> None:
    """Dump a real or complex 2-d array in the HSIM raster container."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ValueError("raster data must be 2-d")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    is_complex = np.iscomplexobj(data)
    flags = _FLAG_COMPLEX if is_complex else 0
    # "<c16" is the interleaved re/im float64 layout; a C-contiguous
    # little-endian array is written from its own buffer, without a copy
    body = np.ascontiguousarray(data, dtype="<c16" if is_complex else "<f8")
    with path.open("wb") as fh:
        fh.write(_MAGIC + struct.pack("<III", data.shape[0], data.shape[1], flags))
        fh.write(body.data)


def read_raster(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError("not an HSIM raster file")
    if len(raw) < 16:
        raise ValueError("truncated HSIM raster header")
    rows, cols, flags = struct.unpack("<III", raw[4:16])
    body = np.frombuffer(raw, dtype="<f8", offset=16)
    if flags & _FLAG_COMPLEX:
        if body.size != rows * cols * 2:
            raise ValueError("raster payload size mismatch")
        return (body[0::2] + 1j * body[1::2]).reshape(rows, cols)
    if body.size != rows * cols:
        raise ValueError("raster payload size mismatch")
    return body.reshape(rows, cols).copy()
