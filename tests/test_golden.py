"""Golden outputs: one small end-to-end run pinned across code versions.

The run goes through `segnoise.cli.main` in process: `phantom`, then
`corrupt`, `score` (against float prediction bundles written here),
`oracle`, `gridsearch` and `gradcheck`. Every CSV it writes, the
`gradcheck` report and the `--emit-default-config` tree are compared
with the files under `tests/golden/`: counts and labels exactly, floats
within 1e-9 relative. The default config tree must also match byte for
byte, and so must the sha256 of every file that `corrupt` writes under
`corrupted/`.

The golden `gridsearch` and `gradcheck` also run in child processes on
other BLAS kernels and numpy CPU paths, set through `OPENBLAS_CORETYPE`
and `NPY_DISABLE_CPU_FEATURES` in the child's environment only, and
must give the pinned bytes there too: an output that depends on the
last bits of the descent would differ between hosts.

When an output change is intended, regenerate the files with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from segnoise import pool
from segnoise.bundleio import load_dataset, write_prediction
from segnoise.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"
GRADCHECK_REPORT = "gradcheck.txt"
DEFAULT_CONFIG = "default_config.json"
CORRUPTED_DIGESTS = "corrupt/corrupted.sha256"
# The sha256 of the default `gridsearch --out g`'s grid_scores.csv, in
# `sha256sum -c` form. That run takes about half a minute, so CI checks it
# in a job of its own, not here.
DEFAULT_GRID_DIGEST = "default_grid_scores.sha256"
# The sha256 of the default `oracle --out o1`'s two CSVs, in the same form.
# CI also checks them, and that `--jobs 2` writes the same tree.
DEFAULT_ORACLE_DIGEST = "default_oracle.sha256"
# The erosion mirror's grid_scores.csv, also checked in CI: `gridsearch
# --mode erode --betas 1 1.5 2 3 5 --sigma2-values 0 3 5 --seeds 4 --out g`.
MIRROR_GRID_DIGEST = "mirror_erode_grid_scores.sha256"

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def _cli(*argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = cli_main([str(a) for a in argv])
    assert status == 0, f"segnoise {argv[0]} exited {status}"
    return stdout.getvalue()


GRIDSEARCH_ARGS = ("--epochs", 40, "--seeds", 1, "--sigma2-values", 0, 4)
GRADCHECK_ARGS = ("--trials", 5)


def _write_predictions(data: Path, preds: Path) -> None:
    # A shifted copy of each mask plus jitter, so that soft and hard
    # scores both sit away from 0 and 1.
    rng = np.random.default_rng(2019)
    for record in load_dataset(data):
        shifted = np.roll(record.mask, (1, 2), axis=(1, 2))
        jitter = 0.3 * rng.random(shifted.shape)
        write_prediction(record.patient_id, np.where(shifted == 1, 0.6 + jitter, jitter), preds)


def _digests(root: Path) -> str:
    """One `sha256  relative/path` line per file under `root`, by path."""
    return "".join(
        f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}\n"
        for p in sorted(root.rglob("*")) if p.is_file()
    )


def run_golden(work: Path) -> dict[str, str]:
    """Run the golden config under `work`; map each output's name to its text."""
    data = work / "phantoms"
    preds = work / "preds"
    _cli("phantom", "--depth", 5, "--out", data)
    _cli("corrupt", "--data", data, "--out", work / "corrupt")
    _write_predictions(data, preds)
    _cli("score", "--pred", preds, "--data", data, "--out", work / "score")
    _cli("oracle", "--data", data, "--repetitions", 4, "--out", work / "oracle")
    _cli("gridsearch", "--data", data, *GRIDSEARCH_ARGS, "--out", work / "gridsearch")
    outputs = {p.relative_to(work).as_posix(): p.read_text() for p in sorted(work.rglob("*.csv"))}
    outputs[CORRUPTED_DIGESTS] = _digests(work / "corrupt" / "corrupted")
    outputs[GRADCHECK_REPORT] = _cli("gradcheck", *GRADCHECK_ARGS)
    outputs[DEFAULT_CONFIG] = _cli("--emit-default-config")
    return outputs


def _line_mismatch(got: str, want: str) -> str | None:
    if _NUMBER.split(got) != _NUMBER.split(want):
        return f"{got!r} != golden {want!r}"
    for g, w in zip(_NUMBER.findall(got), _NUMBER.findall(want)):
        if g == w:
            continue
        is_count = g.lstrip("+-").isdigit() and w.lstrip("+-").isdigit()
        if is_count or not math.isclose(float(g), float(w), rel_tol=1e-9, abs_tol=0.0):
            return f"{g} != golden {w} in {got!r}"
    return None


def compare_text(name: str, got: str, want: str) -> list[str]:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{name}: {len(got_lines)} lines, golden has {len(want_lines)}"]
    problems = []
    for line, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        mismatch = _line_mismatch(g, w)
        if mismatch:
            problems.append(f"{name}:{line}: {mismatch}")
    return problems


def test_golden_outputs(tmp_path):
    outputs = run_golden(tmp_path)
    golden = {p.relative_to(GOLDEN).as_posix(): p.read_text()
              for p in sorted(GOLDEN.rglob("*"))
              if p.is_file() and p.name not in (DEFAULT_GRID_DIGEST, DEFAULT_ORACLE_DIGEST, MIRROR_GRID_DIGEST)}
    assert sorted(outputs) == sorted(golden)
    problems = [p for name in sorted(golden) if name != CORRUPTED_DIGESTS
                for p in compare_text(name, outputs[name], golden[name])]
    if outputs[CORRUPTED_DIGESTS] != golden[CORRUPTED_DIGESTS]:
        problems.append(f"{CORRUPTED_DIGESTS}: the corrupted bundles' bytes changed")
    assert not problems, "\n".join(problems[:20])


def test_default_grid_digest_names_one_grid_scores_file():
    (line,) = (GOLDEN / DEFAULT_GRID_DIGEST).read_text().splitlines()
    assert re.fullmatch(r"[0-9a-f]{64}  g/grid_scores\.csv", line)


def test_mirror_grid_digest_names_one_grid_scores_file():
    (line,) = (GOLDEN / MIRROR_GRID_DIGEST).read_text().splitlines()
    assert re.fullmatch(r"[0-9a-f]{64}  g/grid_scores\.csv", line)


def test_default_oracle_digest_names_its_two_csv_files():
    lines = (GOLDEN / DEFAULT_ORACLE_DIGEST).read_text().splitlines()
    assert len(lines) == 2
    for line, name in zip(lines, ("oracle_scores.csv", "oracle_summary.csv")):
        assert re.fullmatch(rf"[0-9a-f]{{64}}  o1/{re.escape(name)}", line)


def test_default_oracle_bytes_on_either_side_of_the_pool_decision(tmp_path, monkeypatch, pool_starts):
    # The default sweep at --jobs 2, with every point read as free (it
    # runs in this process) and as an hour of work (a pool starts after
    # the first point), writes what --jobs 1 writes: the pinned bytes.
    clocks = {"cheap": itertools.repeat(0.0).__next__, "costly": itertools.count(0.0, 3600.0).__next__}
    trees = {}
    for name, jobs in (("serial", 1), ("cheap", 2), ("costly", 2)):
        if name in clocks:
            monkeypatch.setattr(pool, "_clock", clocks[name])
        _cli("oracle", "--out", tmp_path / name, "--jobs", jobs)
        trees[name] = _digests(tmp_path / name)
    assert pool_starts == [2]
    assert trees["serial"] == trees["cheap"] == trees["costly"]
    for line in (GOLDEN / DEFAULT_ORACLE_DIGEST).read_text().splitlines():
        digest, path = line.split("  ")
        assert hashlib.sha256((tmp_path / "serial" / Path(path).name).read_bytes()).hexdigest() == digest


def test_default_config_byte_identical():
    assert _cli("--emit-default-config") == (GOLDEN / DEFAULT_CONFIG).read_text()


# Other hosts' arithmetic: OpenBLAS's Haswell kernels, and its Sandybridge
# kernels together with numpy's x86-64-v2 paths (a different float64 tanh).
OTHER_HOSTS = {
    "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "Sandybridge-v2": {"OPENBLAS_CORETYPE": "Sandybridge",
                       "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

# The child runs the golden gridsearch and gradcheck as the CLI does
# (numpy loads inside `main`), then prints the OpenBLAS kernels it got.
_CHILD = """
import contextlib, ctypes, io, sys
from pathlib import Path
from segnoise.cli import main
data, out, grid_args, gradcheck_args = sys.argv[1], Path(sys.argv[2]), sys.argv[3].split(), sys.argv[4].split()
assert main(["gridsearch", "--data", data, *grid_args, "--out", str(out / "gridsearch")]) == 0
report = io.StringIO()
with contextlib.redirect_stdout(report):
    assert main(["gradcheck", *gradcheck_args]) == 0
(out / "gradcheck.txt").write_text(report.getvalue())
import numpy as np
lib = next((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("libscipy_openblas*.so*"))
corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
print("core", corename().decode())
"""


def _blas_name() -> str | None:
    return np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name")


@pytest.fixture(scope="module")
def other_host_runs(tmp_path_factory):
    """Per host, the child running the golden gridsearch and gradcheck
    under its environment, and its output directory. The children run
    at once, on the golden phantoms."""
    work = tmp_path_factory.mktemp("other-hosts")
    _cli("phantom", "--depth", 5, "--out", work / "phantoms")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    runs = {}
    for host, variables in OTHER_HOSTS.items():
        out = work / host
        argv = [sys.executable, "-c", _CHILD, str(work / "phantoms"), str(out),
                " ".join(map(str, GRIDSEARCH_ARGS)), " ".join(map(str, GRADCHECK_ARGS))]
        runs[host] = subprocess.Popen(argv, env={**os.environ, **variables, "PYTHONPATH": path},
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True), out
    yield runs
    for proc, _ in runs.values():
        proc.kill()
        proc.communicate()


@pytest.mark.skipif(_blas_name() != "scipy-openblas",
                    reason=f"numpy's BLAS is {_blas_name()}, not scipy-openblas, whose kernels the gate selects")
@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the gate's kernels and CPU paths are x86-64's")
@pytest.mark.parametrize("host", list(OTHER_HOSTS))
def test_golden_grid_and_gradcheck_bytes_on_other_hosts(other_host_runs, host):
    proc, out = other_host_runs[host]
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, stderr[-2000:]
    core = stdout.splitlines()[-1]
    if core != f"core {OTHER_HOSTS[host]['OPENBLAS_CORETYPE']}":
        pytest.skip(f"this host has no {host} kernels: OpenBLAS chose {core!r}")
    for name in ("gridsearch/grid_scores.csv", GRADCHECK_REPORT):
        assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), f"{name} under {host}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in run_golden(Path(tmp)).items():
            target = GOLDEN / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
            print(f"wrote {target}", file=sys.stderr)
