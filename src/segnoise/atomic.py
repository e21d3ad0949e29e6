"""Atomic file outputs: a reader finds either the old file or the whole
new one, never a partial write."""

from __future__ import annotations

import os
from pathlib import Path


def _write_replacing(path: str | Path, mode: str, data, **open_kwargs) -> Path:
    """Write `data` to a temporary file beside `path`, then rename it
    over `path`; on any failure the temporary file is removed."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as fh:
            fh.write(data)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def write_text(path: str | Path, text: str) -> Path:
    return _write_replacing(path, "x", text, encoding="utf-8")


def write_bytes(path: str | Path, data) -> Path:
    """`data` is any bytes-like object, such as a C-contiguous array."""
    return _write_replacing(path, "xb", data)
