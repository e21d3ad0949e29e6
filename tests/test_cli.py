import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import segnoise
from segnoise import bundleio, phantom, pool
from segnoise import config as cfgmod
from segnoise.bundleio import index_bundles, load_dataset, write_bundle, write_prediction
from segnoise.cli import _config_overrides, build_parser, main
from segnoise.phantom import PhantomSpec, generate_corpus
from segnoise.volume import MultiModalVolume, PatientRecord


def tree_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def small_phantom_config(tmp_path, **extra) -> Path:
    payload = {
        "data": {
            "phantom": {
                "patients": 6,
                "seed": 7,
                "depth": 3,
                "height": 48,
                "width": 48,
                "radius_min": 4.0,
                "radius_max": 8.0,
                "margin": 8,
            }
        },
        "folds": {"n_folds": 1, "train": 3, "val": 1, "test": 2, "seed": 11, "fold_index": 0},
        "sweep": {"modes": ["dilate"], "sigma2_values": [0.0, 2.0], "repetitions": 2, "seed": 5},
        "grid": {"betas": [0.6, 1.0], "sigma2_values": [2.0], "seeds": 2},
        "train": {"learning_rate": 3.0, "epochs": 12, "seed": 0, "init_scale": 0.0},
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestTopLevel:
    def test_emit_default_config(self, capsys):
        assert main(["--emit-default-config"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["noise"]["mode"] == "dilate"

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        for command in ("phantom", "corrupt", "oracle", "gridsearch", "gradcheck", "score"):
            assert command in out

    @pytest.mark.parametrize("command", ["oracle", "gridsearch"])
    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_error_paths_return_one(self, tmp_path, capsys):
        rc = main(["oracle", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "meta"])
    def test_deeply_nested_json_is_one_error_line(self, tmp_path, capsys, where):
        deep = "[" * 100_000 + "]" * 100_000
        args = ["oracle", "--out", str(tmp_path / "out")]
        if where == "config":
            path = tmp_path / "deep.json"
            path.write_text('{"noise": ' + deep + "}")
            args += ["--config", str(path)]
            expected = f"error: config {path}: JSON nested too deeply"
        else:
            record = generate_corpus(PhantomSpec(depth=2, height=32, width=32, radius_max=6), 1, 0)[0]
            path = write_bundle(record, tmp_path / "data") / "meta.json"
            path.write_text('{"patient_id": ' + deep + "}")
            args += ["--data", str(tmp_path / "data")]
            expected = f"error: {path}: JSON nested too deeply"
        assert main(args) == 1
        assert capsys.readouterr().err.splitlines() == [expected]


FOLD_FLAGS = ["--fold-index", "--fold-seed", "--folds", "--test-size", "--train-size", "--val-size"]
HELP = ["--help", "-h"]

# The CLI's option strings per subcommand (None: the top-level parser).
OPTION_STRINGS = {
    None: ["--emit-default-config", *HELP],
    "phantom": ["--config", "--depth", "--height", "--out", "--patients", "--seed", "--width", *HELP],
    "corrupt": ["--config", "--data", "--mode", "--out", "--seed", "--sigma2", *FOLD_FLAGS, *HELP],
    "oracle": ["--config", "--data", "--jobs", "--modes", "--out", "--repetitions", "--seed",
               "--sigma2-values", *FOLD_FLAGS, *HELP],
    "gridsearch": ["--betas", "--config", "--data", "--epochs", "--jobs", "--learning-rate", "--mode",
                   "--out", "--seeds", "--sigma2-values", *FOLD_FLAGS, *HELP],
    "gradcheck": ["--betas", "--config", "--eps", "--height", "--seed", "--tolerance", "--trials",
                  "--width", *HELP],
    "score": ["--config", "--data", "--out", "--pred", "--threshold", *HELP],
}


def test_option_strings_pinned():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    found = {None: parser, **subparsers.choices}
    assert sorted(found, key=str) == sorted(OPTION_STRINGS, key=str)
    for name, sub in found.items():
        options = sorted(s for action in sub._actions for s in action.option_strings)
        assert options == sorted(OPTION_STRINGS[name]), name


def _fresh_interpreter_env(**extra) -> dict:
    """This environment without the BLAS thread variables, plus `extra`,
    with this checkout's segnoise first on PYTHONPATH."""
    src = str(Path(segnoise.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in pool._BLAS_THREAD_VARS}
    return {**env, **extra,
            "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_importing_the_cli_loads_no_command_modules():
    env = _fresh_interpreter_env()
    code = ("import sys, segnoise.cli; "
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)))")
    heavy = ["segnoise.trainer", "segnoise.oracle", "multiprocessing", "numpy"]
    run = subprocess.run([sys.executable, "-c", code, *heavy], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_oracle_and_gridsearch_on_phantoms_never_import_bundleio(tmp_path):
    config = small_phantom_config(tmp_path)
    code = ("import sys; from segnoise import cli\n"
            "for command in ('oracle', 'gridsearch'):\n"
            "    assert cli.main([command, '--config', sys.argv[1], '--out', sys.argv[2] + command]) == 0\n"
            "    print(command, 'segnoise.bundleio' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code, str(config), f"{tmp_path}/"],
                         env=_fresh_interpreter_env(), capture_output=True, text=True, check=True, timeout=120)
    assert [line for line in run.stdout.splitlines() if line.endswith(("True", "False"))] == [
        "oracle False", "gridsearch False"]


@pytest.mark.parametrize("reader", ["config", "meta"])
def test_json_input_is_utf8_in_an_ascii_locale(tmp_path, reader):
    # JSON is UTF-8 whatever the locale: a config's output_dir and a
    # meta.json field written in UTF-8 decode to the same text in a
    # process whose locale encoding is ASCII.
    text = "r\u00e9sultats"
    if reader == "config":
        (tmp_path / "cfg.json").write_bytes(json.dumps({"output_dir": text}, ensure_ascii=False).encode())
        code = "from segnoise import config; print(ascii(config.load_config('cfg.json')['output_dir']))"
    else:
        (record,) = generate_corpus(PhantomSpec(depth=2, height=32, width=32, margin=4), 1, 7)
        bundle = write_bundle(record, tmp_path / "bundles")
        meta = json.loads((bundle / "meta.json").read_bytes())
        (bundle / "meta.json").write_bytes(json.dumps({**meta, "note": text}, ensure_ascii=False).encode())
        code = ("from segnoise import bundleio; (record,) = bundleio.load_dataset('bundles'); "
                "print(ascii(bundleio._read_meta(bundleio.index_bundles('bundles')[record.patient_id])[0]['note']))")
    env = _fresh_interpreter_env(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    run = subprocess.run([sys.executable, "-c", "import locale; assert locale.getpreferredencoding() != 'UTF-8'; "
                          + code], env=env, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == ascii(text)


needs_openblas = pytest.mark.skipif(pool._openblas_threads() is None,
                                    reason="numpy's bundled OpenBLAS not found")
TINY_GRADCHECK = ["gradcheck", "--trials", "1", "--height", "4", "--width", "4"]


def _cli_then_blas_threads(**thread_env) -> int:
    """OpenBLAS's thread count in a fresh interpreter after `cli.main`
    ran a tiny gradcheck, with only `thread_env` of the BLAS thread
    variables set."""
    env = _fresh_interpreter_env(**thread_env)
    code = ("import sys; from segnoise import cli; assert cli.main(sys.argv[1:]) == 0; "
            "from segnoise import pool; print('threads', pool._openblas_threads()[0]())")
    run = subprocess.run([sys.executable, "-c", code, *TINY_GRADCHECK], env=env,
                         capture_output=True, text=True, check=True)
    return int(run.stdout.split()[-1])


@needs_openblas
def test_cli_starts_openblas_on_one_thread():
    assert _cli_then_blas_threads() == 1


@needs_openblas
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS caps its threads at the core count")
def test_cli_keeps_the_users_blas_thread_count():
    assert _cli_then_blas_threads(OPENBLAS_NUM_THREADS="2") == 2


def test_cli_leaves_the_environment_alone_once_numpy_is_loaded(monkeypatch, capsys):
    for name in pool._BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    before = dict(os.environ)
    assert main(TINY_GRADCHECK) == 0
    assert dict(os.environ) == before


class TestPhantomCmd:
    def test_writes_bundles(self, tmp_path, capsys):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "corpus"
        assert main(["phantom", "--config", str(config), "--out", str(out)]) == 0
        records = load_dataset(out)
        assert len(records) == 6
        assert records[0].shape == (3, 48, 48)

    def test_byte_identical_reruns(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["phantom", "--config", str(config), "--out", str(out_a)]) == 0
        assert main(["phantom", "--config", str(config), "--out", str(out_b)]) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_invalid_phantom_spec_fails_with_message(self, tmp_path, capsys):
        config = small_phantom_config(tmp_path)
        rc = main(
            ["phantom", "--config", str(config), "--out", str(tmp_path / "x"),
             "--height", "20", "--width", "20"]
        )
        assert rc == 1
        assert "too large" in capsys.readouterr().err

    def test_flags_merge_over_phantom_values_from_the_file(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "corpus"
        assert main(["phantom", "--config", str(config), "--out", str(out), "--patients", "2"]) == 0
        records = load_dataset(out)
        assert [r.shape for r in records] == [(3, 48, 48)] * 2

    def test_unsafe_modality_name_writes_nothing_outside_out(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"data": {"phantom": {"patients": 2, "depth": 2, "modalities": ["m0", "../../escaped_mod"]}}}
        ))
        out = tmp_path / "X" / "a"
        assert main(["phantom", "--config", str(config), "--out", str(out)]) == 1
        assert "not a safe file name" in capsys.readouterr().err
        assert [p.relative_to(tmp_path / "X").as_posix() for p in (tmp_path / "X").rglob("*")] == ["a"]
        assert not any(out.iterdir())

    def test_output_dir_from_env(self, tmp_path, monkeypatch, capsys):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "envout"
        monkeypatch.setenv("SEGNOISE_OUTDIR", str(out))
        assert main(["phantom", "--config", str(config)]) == 0
        assert out.is_dir() and any(out.iterdir())

    def test_no_output_dir_anywhere_fails(self, tmp_path, monkeypatch, capsys):
        config = small_phantom_config(tmp_path)
        monkeypatch.delenv("SEGNOISE_OUTDIR", raising=False)
        assert main(["phantom", "--config", str(config)]) == 1
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["the-file", "under-the-file"])
    def test_out_at_or_under_a_file_is_one_error_line(self, tmp_path, capsys, below):
        config = small_phantom_config(tmp_path)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / below if below else afile
        assert main(["phantom", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: output directory {out} is, or lies under, a file"]
        assert afile.read_text() == "kept"


@pytest.mark.parametrize("command, taken, kind", [
    (["oracle"], "oracle_scores.csv", "dir"),
    (["corrupt"], "corrupted/phantom-000", "file"),
], ids=["oracle-csv-is-a-dir", "corrupt-bundle-is-a-file"])
def test_an_output_path_taken_by_the_other_kind_is_one_error_line(tmp_path, capsys, command, taken, kind):
    config = small_phantom_config(tmp_path)
    out = tmp_path / "out"
    (out / taken).parent.mkdir(parents=True)
    if kind == "dir":
        (out / taken).mkdir()
    else:
        (out / taken).write_text("kept")
    assert main([*command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(out / taken) in err[0]
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]


class TestCorruptCmd:
    def test_sigma_zero_masks_identical(self, tmp_path):
        config = small_phantom_config(tmp_path)
        src = tmp_path / "src"
        out = tmp_path / "out"
        assert main(["phantom", "--config", str(config), "--out", str(src)]) == 0
        assert main(
            ["corrupt", "--config", str(config), "--data", str(src), "--out", str(out),
             "--sigma2", "0"]
        ) == 0
        originals = {r.patient_id: r for r in load_dataset(src)}
        for rec in load_dataset(out / "corrupted"):
            assert np.array_equal(rec.mask, originals[rec.patient_id].mask)

    def test_dilate_report_mean_delta_above_one(self, tmp_path, capsys):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["corrupt", "--config", str(config), "--out", str(out),
             "--mode", "dilate", "--sigma2", "3"]
        ) == 0
        report = (out / "corruption_report.csv").read_text().splitlines()
        deltas = [float(row.split(",")[7]) for row in report[1:] if row.split(",")[7]]
        assert np.mean(deltas) > 1.0

    def test_test_subset_untouched_and_reruns_identical(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                ["corrupt", "--config", str(config), "--out", str(out),
                 "--mode", "random", "--sigma2", "4"]
            ) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)

    def test_input_bundles_never_mutated(self, tmp_path):
        config = small_phantom_config(tmp_path)
        src = tmp_path / "src"
        assert main(["phantom", "--config", str(config), "--out", str(src)]) == 0
        before = tree_bytes(src)
        assert main(
            ["corrupt", "--config", str(config), "--data", str(src),
             "--out", str(tmp_path / "out"), "--mode", "dilate", "--sigma2", "5"]
        ) == 0
        assert tree_bytes(src) == before


def _nan_at(raw: Path, index: int) -> None:
    values = np.fromfile(raw, dtype="<f4")
    values[index] = np.nan
    values.tofile(raw)


class TestStreamedCorrupt:
    """`corrupt --data` reads, corrupts and writes one patient at a time."""

    @staticmethod
    def corpus(tmp_path):
        config = small_phantom_config(tmp_path)
        src = tmp_path / "src"
        assert main(["phantom", "--config", str(config), "--out", str(src)]) == 0
        return config, src

    @staticmethod
    def corrupt(config, out, *extra):
        return main(["corrupt", "--config", str(config), "--out", str(out),
                     "--mode", "random", "--sigma2", "4", *extra])

    def test_bundle_corpus_writes_what_the_phantom_source_writes(self, tmp_path):
        config, src = self.corpus(tmp_path)
        assert self.corrupt(config, tmp_path / "phantom") == 0
        assert self.corrupt(config, tmp_path / "streamed", "--data", str(src)) == 0
        assert tree_bytes(tmp_path / "streamed") == tree_bytes(tmp_path / "phantom")
        assert len(index_bundles(tmp_path / "streamed" / "corrupted")) == 6

    def test_nan_in_the_last_patient_fails_with_the_file_named(self, tmp_path, capsys):
        config, src = self.corpus(tmp_path)
        last = sorted(index_bundles(src).items())[-1][1]
        _nan_at(last / "m1.raw", -1)
        out = tmp_path / "out"
        assert self.corrupt(config, out, "--data", str(src)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{last / 'm1.raw'} contains non-finite" in err
        assert not (out / "corruption_report.csv").exists()
        listed = index_bundles(out / "corrupted")
        assert last.name not in listed and len(listed) == 5
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    def test_duplicate_ids_fail_before_anything_is_written(self, tmp_path, capsys):
        config, src = self.corpus(tmp_path)
        first, second = sorted(index_bundles(src).values())[:2]
        meta = json.loads((second / "meta.json").read_text())
        meta["patient_id"] = first.name
        (second / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert self.corrupt(config, out, "--data", str(src)) == 1
        assert "is used by both" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_bad_bundle_outside_the_split_is_rejected(self, tmp_path, capsys):
        config, src = self.corpus(tmp_path)
        flags = ["--train-size", "1", "--val-size", "1", "--test-size", "1"]
        assert self.corrupt(config, tmp_path / "ok", "--data", str(src), *flags) == 0
        written = set(index_bundles(tmp_path / "ok" / "corrupted"))
        outside = sorted(set(index_bundles(src)) - written)
        assert len(outside) == 3
        _nan_at(src / outside[0] / "m0.raw", 0)
        out = tmp_path / "out"
        assert self.corrupt(config, out, "--data", str(src), *flags) == 1
        assert "non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_refuses_to_overwrite_its_input(self, tmp_path, capsys):
        config, src = self.corpus(tmp_path)
        before = tree_bytes(src)
        assert self.corrupt(config, tmp_path / "run", "--data", str(src)) == 0
        inputs = tmp_path / "run" / "corrupted"
        again = tree_bytes(inputs)
        assert self.corrupt(config, tmp_path / "run", "--data", str(inputs)) == 1
        assert "overwrite its input" in capsys.readouterr().err
        assert tree_bytes(inputs) == again and tree_bytes(src) == before

    def test_holds_one_patient_at_a_time(self, tmp_path):
        spec = PhantomSpec(depth=16, height=128, width=128, modalities=("t1", "t1ce", "t2", "flair"))
        src = tmp_path / "src"
        for record in generate_corpus(spec, count=4, seed=3):
            write_bundle(record, src)
        mask = 16 * 128 * 128  # one uint8 mask
        buffer = min(bundleio.BLOCK_BYTES, 4 * mask)  # float32 frames
        argv = ["corrupt", "--data", str(src), "--out", str(tmp_path / "out"), "--folds", "1",
                "--train-size", "3", "--val-size", "1", "--test-size", "0",
                "--mode", "random", "--sigma2", "4"]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Twice one mask, plus the block buffer and its finiteness flags
        # (a quarter of it); the whole corpus is 4 x 4.25 MiB.
        assert peak <= 2 * mask + buffer + buffer // 4


class TestOnePatientAtATime:
    @pytest.mark.parametrize("command, generated", [
        (["phantom"], 6),
        (["corrupt", "--mode", "random", "--sigma2", "4"], 6),
        (["gridsearch"], 5),  # 3 train and 2 test patients; the val patient is never read
        # Only the split's 3 patients are generated; the others' masks are drawn alone.
        (["corrupt", "--train-size", "1", "--val-size", "1", "--test-size", "1"], 3),
    ])
    def test_at_most_one_record_is_alive(self, tmp_path, monkeypatch, command, generated):
        records = []
        most_alive = 0
        original = phantom.generate_phantom

        def tracked(*args, **kwargs):
            nonlocal most_alive
            record = original(*args, **kwargs)
            records.append(weakref.ref(record))
            most_alive = max(most_alive, sum(ref() is not None for ref in records))
            return record

        monkeypatch.setattr(phantom, "generate_phantom", tracked)
        config = small_phantom_config(tmp_path)
        assert main([command[0], "--config", str(config), "--out", str(tmp_path / "out"), *command[1:]]) == 0
        assert len(records) == generated
        assert most_alive == 1


def test_fold_plans_follow_patient_ids_not_directory_names(tmp_path):
    config, src = TestStreamedCorrupt.corpus(tmp_path)
    renamed = tmp_path / "renamed"
    shutil.copytree(src, renamed)
    ids = sorted(index_bundles(src))
    for i, pid in enumerate(ids):
        (renamed / pid).rename(renamed / f"case-{len(ids) - i}")
    assert list(index_bundles(renamed)) == ids[::-1]
    plans, outputs = [], []
    for data in (src, renamed):
        loaded = cfgmod.load_config(config, {"data": {"path": str(data)}})
        plans.append(cfgmod.foldplan_from(loaded, cfgmod.source_from(loaded).ids))
        out = tmp_path / f"oracle-{data.name}"
        assert main(["oracle", "--config", str(config), "--data", str(data), "--out", str(out)]) == 0
        outputs.append(tree_bytes(out))
    assert plans[0] == plans[1]
    assert outputs[0] == outputs[1]


class TestOracleCmd:
    def test_flat_curves_at_sigma_zero(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["oracle", "--config", str(config), "--out", str(out), "--sigma2-values", "0"]
        ) == 0
        summary = (out / "oracle_summary.csv").read_text().splitlines()
        for row in summary[1:]:
            assert float(row.split(",")[3]) == 1.0

    def test_reruns_and_jobs_byte_identical(self, tmp_path):
        config = small_phantom_config(tmp_path)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        for out, jobs in zip(outs, ("1", "1", "4")):
            assert main(
                ["oracle", "--config", str(config), "--out", str(out), "--jobs", jobs]
            ) == 0
        assert tree_bytes(outs[0]) == tree_bytes(outs[1])
        assert tree_bytes(outs[0]) == tree_bytes(outs[2])

    @pytest.mark.parametrize("sweep, leaf", [
        ({"modes": ["dilate"], "sigma2_values": [0, 2, 2], "repetitions": 3}, "sweep.sigma2_values"),
        ({"modes": ["erode", "dilate", "erode"]}, "sweep.modes"),
    ])
    def test_a_repeated_sweep_value_is_one_error(self, tmp_path, capsys, sweep, leaf):
        # Two points under one (mode, sigma2) key would be pooled into
        # one summary row.
        out = tmp_path / "out"
        config = small_phantom_config(tmp_path, sweep=sweep)
        assert main(["oracle", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: config {leaf} must not repeat a value"]
        assert not out.exists()

    def test_svg_files_written(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(config), "--out", str(out)]) == 0
        for metric in ("dice", "precision", "recall"):
            assert (out / f"oracle_{metric}.svg").is_file()

    def test_data_reads_masks_only(self, tmp_path, monkeypatch):
        config, src = TestStreamedCorrupt.corpus(tmp_path)
        assert main(["oracle", "--config", str(config), "--out", str(tmp_path / "phantom")]) == 0

        def refuse(root):
            raise AssertionError("oracle loaded the whole dataset")

        monkeypatch.setattr(bundleio, "load_dataset", refuse)
        out = tmp_path / "data"
        assert main(["oracle", "--config", str(config), "--data", str(src), "--out", str(out)]) == 0
        assert tree_bytes(out) == tree_bytes(tmp_path / "phantom")

    @pytest.mark.parametrize("fault", ["nan-intensity", "short-raw", "duplicate-ids"])
    def test_data_rejects_what_load_dataset_rejects(self, tmp_path, fault, capsys):
        config, src = TestStreamedCorrupt.corpus(tmp_path)
        first, second = sorted(index_bundles(src).values())[:2]
        if fault == "nan-intensity":
            _nan_at(second / "m0.raw", 3)
        elif fault == "short-raw":
            (second / "m1.raw").write_bytes((second / "m1.raw").read_bytes()[:-4])
        else:
            meta = json.loads((second / "meta.json").read_text())
            meta["patient_id"] = first.name
            (second / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(Exception) as from_dataset:
            load_dataset(src)
        argv = ["oracle", "--config", str(config), "--data", str(src), "--out", str(tmp_path / "out")]
        args = build_parser().parse_args(argv)
        with pytest.raises(Exception) as from_oracle:
            args.func(args, cfgmod.load_config(args.config, _config_overrides(args)))
        assert type(from_oracle.value) is type(from_dataset.value)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert list((tmp_path / "out").iterdir()) == []


class TestGridsearchCmd:
    def test_runs_and_is_deterministic(self, tmp_path):
        config = small_phantom_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((out_a, "1"), (out_b, "4")):
            assert main(
                ["gridsearch", "--config", str(config), "--out", str(out), "--jobs", jobs]
            ) == 0
        assert tree_bytes(out_a) == tree_bytes(out_b)
        lines = (out_a / "grid_scores.csv").read_text().splitlines()
        assert lines[0] == "beta,sigma2,seed,test_dice,test_precision,test_recall"
        assert len(lines) == 1 + 2 * 2  # betas x seeds

    def test_a_beta_whose_square_overflows_is_one_error(self, tmp_path, capsys):
        # The descent squares each beta as a float: 1e200 ** 2 overflows.
        out = tmp_path / "out"
        argv = ["gridsearch", "--config", str(small_phantom_config(tmp_path)), "--out", str(out),
                "--betas", "1e200", "--epochs", "1", "--seeds", "1", "--sigma2-values", "0"]
        assert main(argv) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: beta must be finite and >= 0, with a finite square"]
        assert not (out / "grid_scores.csv").exists()

    def test_a_diverged_descent_is_one_error(self, tmp_path, capsys):
        # The initial weights, 1e308 times normal draws, overflow.
        config = small_phantom_config(tmp_path, train={"init_scale": 1e308, "epochs": 2, "seed": 2},
                                      grid={"betas": [1.0], "sigma2_values": [0.0], "seeds": 1})
        out = tmp_path / "out"
        assert main(["gridsearch", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: training diverged: non-finite loss at epoch 0; lower train.learning_rate or train.init_scale"]
        assert not (out / "grid_scores.csv").exists()

    @pytest.mark.parametrize("flag, values, axis", [
        ("--betas", ["0.6", "1", "0.6"], "betas"), ("--sigma2-values", ["2", "2.0"], "sigma2_values")])
    def test_a_repeated_grid_value_is_one_error(self, tmp_path, capsys, flag, values, axis):
        out = tmp_path / "out"
        argv = ["gridsearch", "--config", str(small_phantom_config(tmp_path)), "--out", str(out)]
        assert main([*argv, flag, *values]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {axis} must not repeat a value"]
        assert not (out / "grid_scores.csv").exists()

    @staticmethod
    def bundles(tmp_path):
        """The small phantom corpus as bundles, the gridsearch argv on it,
        and its split."""
        config, src = TestStreamedCorrupt.corpus(tmp_path)
        loaded = cfgmod.load_config(config)
        split = cfgmod.foldplan_from(loaded, cfgmod.source_from(loaded).ids).folds[0]
        return src, ["gridsearch", "--config", str(config), "--data", str(src)], split

    def test_data_reads_only_the_first_modality(self, tmp_path, capsys):
        # The features read m0 alone, so a NaN in m1 of a train and a test
        # patient changes nothing, and a NaN in m0 is one error line.
        src, argv, split = self.bundles(tmp_path)
        assert main([*argv, "--out", str(tmp_path / "clean")]) == 0
        for pid in (split.train_ids[0], split.test_ids[0]):
            _nan_at(src / pid / "m1.raw", 0)
        assert main([*argv, "--out", str(tmp_path / "m1")]) == 0
        assert tree_bytes(tmp_path / "m1") == tree_bytes(tmp_path / "clean")
        capsys.readouterr()
        bad = src / split.test_ids[0] / "m0.raw"
        _nan_at(bad, -1)
        assert main([*argv, "--out", str(tmp_path / "m0")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {bad} contains non-finite intensities"]
        assert not (tmp_path / "m0" / "grid_scores.csv").exists()

    def test_data_checks_the_size_of_a_modality_it_does_not_read(self, tmp_path, capsys):
        src, argv, split = self.bundles(tmp_path)
        raw = src / split.test_ids[0] / "m1.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
        assert main([*argv, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: shape mismatch for m1.raw")
        assert not (tmp_path / "out" / "grid_scores.csv").exists()


class TestGradcheckCmd:
    def test_defaults_pass(self, capsys):
        rc = main(["gradcheck", "--trials", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_tiny_eps_warns_but_reports(self, capsys):
        rc = main(["gradcheck", "--trials", "2", "--eps", "1e-12", "--tolerance", "1e9"])
        captured = capsys.readouterr()
        assert "cancellation" in captured.err
        assert "max_rel_err" in captured.out
        assert rc == 0

    @pytest.mark.parametrize("tolerance", ["0", "-1"])
    def test_a_tolerance_of_zero_or_less_is_one_error(self, capsys, tolerance):
        assert main(["gradcheck", "--tolerance", tolerance, "--trials", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: config gradcheck.tolerance: must be > 0\n"
        assert captured.out == ""

    def test_beta_zero_included(self, capsys):
        rc = main(["gradcheck", "--trials", "3", "--betas", "0"])
        assert rc == 0
        assert "beta=0" in capsys.readouterr().out


class TestScoreCmd:
    def test_scores_prediction_bundles(self, tmp_path):
        config = small_phantom_config(tmp_path)
        src = tmp_path / "src"
        assert main(["phantom", "--config", str(config), "--out", str(src)]) == 0
        records = load_dataset(src)
        pred_dir = tmp_path / "preds"
        for rec in records[:2]:
            write_prediction(rec.patient_id, rec.mask.astype(np.float64), pred_dir)
        out = tmp_path / "out"
        assert main(
            ["score", "--pred", str(pred_dir), "--data", str(src), "--out", str(out)]
        ) == 0
        lines = (out / "scores.csv").read_text().splitlines()
        assert lines[0] == "patient_id,metric,value"
        values = {
            (row.split(",")[0], row.split(",")[1]): float(row.split(",")[2])
            for row in lines[1:]
        }
        # Predictions equal the masks, so every score is exactly 1.
        for (pid, metric), value in values.items():
            assert value == 1.0

    def test_unmatched_prediction_fails(self, tmp_path, capsys):
        config = small_phantom_config(tmp_path)
        src = tmp_path / "src"
        assert main(["phantom", "--config", str(config), "--out", str(src)]) == 0
        pred_dir = tmp_path / "preds"
        write_prediction("stranger", np.zeros((3, 48, 48)), pred_dir)
        rc = main(["score", "--pred", str(pred_dir), "--data", str(src), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == "error: prediction 'stranger' has no matching patient bundle\n"


class TestStreamedScore:
    """`score` holds one mask and one block of prediction frames at a time."""

    SHAPE = (128, 64, 64)

    @classmethod
    def corpus(cls, tmp_path, predicted=("a", "b", "c", "d")):
        data, preds = tmp_path / "data", tmp_path / "preds"
        rng = np.random.default_rng(0)
        for pid in ("a", "b", "c", "d"):
            mask = (rng.random(cls.SHAPE) < 0.3).astype(np.uint8)
            grids = {"t1": rng.normal(size=cls.SHAPE).astype(np.float32)}
            write_bundle(PatientRecord(volume=MultiModalVolume(patient_id=pid, modalities=grids),
                                       mask=mask), data)
        for pid in predicted:
            write_prediction(pid, rng.random(cls.SHAPE), preds)
        return data, preds

    @staticmethod
    def score(data, preds, out):
        args = build_parser().parse_args(
            ["score", "--pred", str(preds), "--data", str(data), "--out", str(out)])
        return args.func(args, cfgmod.load_config(None, _config_overrides(args)))

    def test_holds_one_mask_and_one_block(self, tmp_path, monkeypatch):
        data, preds = self.corpus(tmp_path)
        frame = self.SHAPE[1] * self.SHAPE[2]
        block = 2 * 4 * frame  # two float32 frames
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", block)
        mask = int(np.prod(self.SHAPE))  # one uint8 mask
        tracemalloc.start()
        try:
            assert self.score(data, preds, tmp_path / "out") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One mask, one block and its finiteness flags (a quarter of it),
        # a frame's temporaries (the float64 frame, p * t and bool frames:
        # under four float64 frames), numpy's reduction buffer of
        # getbufsize() float64s, and as much again for the parser, config
        # and rows. A second mask would not fit.
        reduction = 8 * np.getbufsize()
        assert peak <= mask + block + block // 4 + 4 * 8 * frame + 2 * reduction

    @pytest.mark.parametrize("bad", [np.nan, 1.5])
    def test_bad_value_in_the_last_block_names_the_bundle(self, tmp_path, monkeypatch, bad):
        data, preds = self.corpus(tmp_path)
        last = preds / "d"
        values = np.fromfile(last / "pred.raw", dtype="<f4")
        values[-1] = bad
        values.tofile(last / "pred.raw")
        monkeypatch.setattr(bundleio, "BLOCK_BYTES", 8 * 4 * self.SHAPE[1] * self.SHAPE[2])
        with pytest.raises(ValueError, match=f"prediction in {re.escape(str(last))} must be finite"):
            self.score(data, preds, tmp_path / "out")
        assert not (tmp_path / "out" / "scores.csv").exists()

    @pytest.mark.parametrize("raw, index, value, dtype", [("mask.raw", 5, 2, "u1"),
                                                          ("t1.raw", -1, np.nan, "<f4")],
                             ids=["non-binary-mask", "nan-intensity"])
    def test_bundle_without_a_prediction_is_still_checked(self, tmp_path, raw, index, value, dtype):
        data, preds = self.corpus(tmp_path, predicted=("a", "c"))
        values = np.fromfile(data / "b" / raw, dtype=dtype)
        values[index] = value
        values.tofile(data / "b" / raw)
        with pytest.raises(ValueError, match="mask volume values|non-finite"):
            self.score(data, preds, tmp_path / "out")
        assert not (tmp_path / "out" / "scores.csv").exists()

    def test_prediction_of_another_shape_rejected(self, tmp_path):
        data, preds = self.corpus(tmp_path, predicted=("a",))
        # As many voxels as the mask, in frames of another shape.
        write_prediction("b", np.full((128, 32, 128), 0.5), preds)
        with pytest.raises(ValueError, match=r"'b' has shape \(128, 32, 128\), its mask \(128, 64, 64\)"):
            self.score(data, preds, tmp_path / "out")
        assert not (tmp_path / "out" / "scores.csv").exists()
