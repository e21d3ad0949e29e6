"""Atomic file outputs: a reader finds either the old file or the whole
new one, never a partial write. `csv_text` is the one CSV writer."""

from __future__ import annotations

import csv
import io
import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path: str | Path, mode: str = "xb", **open_kwargs):
    """A file open for writing beside `path`, renamed over `path` when
    the block ends; on any failure the temporary file is removed."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(temp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> Path:
    with replacing(path, "x", encoding="utf-8") as fh:
        fh.write(text)
    return Path(path)


def csv_text(header, rows) -> str:
    """CSV text with Unix line ends: a float cell as format(value,
    ".10g"), None as an empty cell, any other cell as csv writes it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".10g") if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def write_bytes(path: str | Path, data) -> Path:
    """`data` is any bytes-like object, such as a C-contiguous array."""
    with replacing(path) as fh:
        fh.write(data)
    return Path(path)
