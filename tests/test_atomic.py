import os

import numpy as np
import pytest

from segnoise import atomic
from segnoise.atomic import csv_text, write_bytes, write_text


def test_writes_the_text_and_replaces_an_old_file(tmp_path):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    assert write_text(target, "a,b\n1,2\n") == target
    assert target.read_text() == "a,b\n1,2\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_file_mode_matches_a_plain_write(tmp_path):
    write_text(tmp_path / "atomic.svg", "<svg/>\n")
    (tmp_path / "plain.svg").write_text("<svg/>\n")
    assert (tmp_path / "atomic.svg").stat().st_mode == (tmp_path / "plain.svg").stat().st_mode


def test_failure_midway_leaves_no_partial_and_no_temp_file(tmp_path, monkeypatch):
    # The write dies after part of the text is on disk: the target is
    # neither created nor truncated, and the temp file is gone.
    target, fresh = tmp_path / "scores.csv", tmp_path / "meta.json"
    target.write_text("old\n")
    real_open = open

    class Disk:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fh.__exit__(*exc)

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            self.fh.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(atomic, "open", lambda *a, **k: Disk(real_open(*a, **k)), raising=False)
    for path in (target, fresh):
        with pytest.raises(OSError, match="No space"):
            write_text(path, "x" * 10_000)
    assert sorted(os.listdir(tmp_path)) == ["scores.csv"]
    assert target.read_text() == "old\n"


def test_failed_rename_removes_the_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError("rename refused")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(PermissionError):
        write_text(tmp_path / "oracle_dice.svg", "<svg/>\n")
    assert os.listdir(tmp_path) == []


def test_bytes_write_an_array_and_keep_the_old_file_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "mask.raw"
    grid = np.arange(24, dtype="<f4").reshape(2, 3, 4)
    assert write_bytes(target, grid) == target
    assert target.read_bytes() == grid.tobytes()

    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(atomic.os, "replace", refuse)
    with pytest.raises(OSError, match="No space"):
        write_bytes(target, np.zeros(6, dtype=np.uint8))
    assert target.read_bytes() == grid.tobytes()
    assert os.listdir(tmp_path) == ["mask.raw"]


def test_csv_text_formats_floats_and_none_and_keeps_the_rest():
    rows = [(0.1 + 0.2, np.float64(1 / 3), None, 7, "a,b", True),
            (1e-20, np.float64(2.0), "", np.int64(-3), "x", 0)]
    assert csv_text(("f", "g", "none", "int", "str", "flag"), rows) == (
        "f,g,none,int,str,flag\n"
        '0.3,0.3333333333,,7,"a,b",True\n'
        "1e-20,2,,-3,x,0\n"
    )
    assert csv_text(["only"], []) == "only\n"
