"""Property test for the commands on hostile bundle corpora.

`corrupt`, `oracle`, `gridsearch` (one cell, 2 epochs) and `score` run on
a small bundle corpus whose meta.json files, payload sizes and values,
and prediction bundles are drawn edits of valid ones, with patient ids
that hold '/', '..' or repeat another id up to case. Each command either
succeeds or fails with one `error:` line and exit code 1, and no file
outside its --out changes.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from segnoise.bundleio import write_patient, write_prediction
from segnoise.cli import main

from test_readers_fuzz import _edit, meta_edits, payload_edits

IDS = ("p0", "p1", "p2", "p3")
SHAPE = (2, 8, 8)
FOLDS = ["--folds", "1", "--train-size", "2", "--val-size", "0", "--test-size", "1"]
COMMANDS = {
    "corrupt": ["corrupt", *FOLDS, "--sigma2", "2"],
    "oracle": ["oracle", *FOLDS, "--sigma2-values", "2", "--repetitions", "1", "--modes", "dilate"],
    "gridsearch": ["gridsearch", *FOLDS, "--betas", "1", "--sigma2-values", "2", "--seeds", "1",
                   "--epochs", "2"],
    "score": ["score"],
}
# Ids that escape a directory, name none, or repeat another id exactly or up to case.
hostile_ids = st.sampled_from(["a/b", "..", "../p1", ".", "P0", "p0", "p1", "p3/../p0"])


def _unchanged(meta):
    return json.dumps(meta).encode()


@st.composite
def corpus_edits(draw):
    """At most one patient bundle and one prediction bundle, by directory
    ("data/p0", "preds/p2", ...), each with one drawn fault: edits to its
    meta.json, edits to its payloads, or a hostile patient id."""
    edits = {}
    for kind, names in (("data", ["t1.raw", "mask.raw"]), ("preds", ["pred.raw"])):
        pid = draw(st.sampled_from((None, *IDS)))
        if pid is None:
            continue
        fault = draw(st.sampled_from(["meta", "payload", "id"]))
        if fault == "meta":
            edits[f"{kind}/{pid}"] = (draw(meta_edits()), [])
        elif fault == "payload":
            edits[f"{kind}/{pid}"] = (_unchanged, draw(payload_edits(names)))
        else:
            new_id = draw(hostile_ids)
            edits[f"{kind}/{pid}"] = (lambda meta: _unchanged({**meta, "patient_id": new_id}), [])
    return edits


def _files(root: Path, skip: Path) -> dict:
    return {path: path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file() and skip not in path.parents}


def _corpus(root: Path) -> None:
    rng = np.random.default_rng(0)
    for pid in IDS:
        mask = np.zeros(SHAPE, dtype=np.uint8)
        mask[:, 2:6, 2:6] = 1
        write_patient(pid, {"t1": rng.normal(100.0, 10.0, SHAPE).astype(np.float32)}, mask, root / "data")
        write_prediction(pid, rng.random(SHAPE), root / "preds")


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(corpus_edits())
def test_each_command_succeeds_or_fails_with_one_error_line(edits):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _corpus(root)
        for where, (meta_edit, payload_edit) in edits.items():
            _edit(root / where, meta_edit, payload_edit)
        for name, args in COMMANDS.items():
            out = root / f"out-{name}"
            before = _files(root, out)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                status = main([*args, "--data", str(root / "data"), "--out", str(out),
                               *(["--pred", str(root / "preds")] if name == "score" else [])])
            lines = err.getvalue().splitlines()
            assert (status, lines) == (0, []) or (status == 1 and len(lines) == 1
                                                  and lines[0].startswith("error: ")), (name, status, lines)
            assert _files(root, out) == before, name
