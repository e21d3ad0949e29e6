"""Atomic text outputs: a reader finds either the old file or the whole
new one, never a partial write."""

from __future__ import annotations

import os
from pathlib import Path


def write_text(path: str | Path, text: str) -> Path:
    """Write `text` to a temporary file beside `path`, then rename it
    over `path`; on any failure the temporary file is removed."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path
