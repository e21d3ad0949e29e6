"""segnoise benchmark: the real CLI on four workloads, plus a traced replay.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run it from the root of a source checkout; it puts `src/` on the
children's PYTHONPATH and builds nothing else. Each workload runs in a
closed loop: one `segnoise` command at a time, started as a child of
this process, with at most two pool workers (the benchmark was tuned
on a two-core host). Every command's outputs are checked. The seed derives the
phantom, fold, noise and sweep seeds; the program only receives the
generated configs and corpora.

Workloads (the reasons are also in BENCHMARK.json):
    grid-pool     gridsearch --jobs 2, all six default betas, one
                  (sigma2, seed) slice, reduced epochs. Trainer descent
                  dominates; this is where BLAS threads in every pool
                  worker fight over the cores.
    grid-serial   the same inputs at --jobs 1: the plain single-process
                  baseline, which bypasses the pool.
    oracle-pool   oracle --jobs 2 on the default sweep with more
                  repetitions: noise, morphology and scoring on 64x64
                  frames, where per-frame overhead dominates; no BLAS.
    brats-volume  corrupt --data (random mode) then score, over
                  155x240x240 phantom bundles with four modalities;
                  the only workload that reads and writes bundles.
Left out: `phantom`, whose cost is what `setup_s` measures, and
`gradcheck`, a verification tool whose run time nobody waits on.

End-to-end metrics (--trace 0), medians over the commands of one run:
    wall_s       wall time of the workload's command(s)
    setup_s      a child that imports segnoise, builds the corpus
                 (phantom generation or load_dataset) and exits
    cpu_s        user + system CPU of the command's process tree
    peak_rss_mb  peak RSS of the largest process in that tree
`os.wait4` on each command's own process returns that process's usage
plus that of the workers it reaped, so every number belongs to one
command. fail_ratio, the share of attempted runs whose output check
failed, is `failed / attempted` in the result line. It is not a metric
of BENCHMARK.json because it is 0 on a healthy tree.

Per-layer metrics (--trace 1) come from the replay: each of the
workload's commands runs once more, at --jobs 1, in a child.py process
that calls `segnoise.cli.main` with spans around segnoise's functions.
Each metric moves the end-to-end metric named here, on the named
workloads:
    phantom.generate_s          setup_s, all
    bundleio.{write_s,read_s,bytes}   wall_s and peak_rss_mb, brats-volume
    volume.zscore_s             wall_s, grid-*
    noise.{corrupt_s,rng_s,frames}    wall_s, oracle-pool and brats-volume
    morphology.{passes,pass_us,size_change_s}  wall_s, oracle-pool, brats-volume
    metrics.{score_s,voxels}    wall_s, oracle-pool and brats-volume
    oracle.{cell_ms,cells}      wall_s, oracle-pool
    trainer.{features_s,epoch_ms,epochs,predict_s}  wall_s and cpu_s, grid-*
                                (epoch_ms: `_descend` time / epochs)
    pool.overhead_s             wall_s and cpu_s, grid-pool and oracle-pool:
                                wall_s - start-up - replay compute / jobs,
                                where start-up is the replay process's wall
                                time outside the command; 0 without a pool
    cli.write_s                 wall_s, all (`write_outputs`, the report CSV)
    trace.coverage              top-level span time / in-process replay wall
    trace.overhead_s            replay process wall - untraced --jobs 1 wall
                                (the median wall_s, or on a pool workload
                                the one untimed --jobs 1 command)
A layer that a workload does not run reports 0.

Configs, corpora and outputs live in `.perfbench/` under the checkout
and are removed at the end of the run; the span files
`.perfbench/trace-<workload>-seed<n>-<command>.jsonl` and a result file
with the run facts and every command's numbers are kept.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"
DEFAULT_SEED = 0
POOL_JOBS = 2
MIN_COMMANDS = 3
SETUP_REPEATS = 5

# Reduced from the default 200 so one run holds several gridsearch
# commands; every epoch does the same work as at the default.
GRID_EPOCHS = 30
GRID_SIGMA2 = (3.0, 4.0, 5.0)
# Raised from the default 20 so one oracle command lasts about 4 s.
ORACLE_REPETITIONS = 30
BRATS_PATIENTS = 3
BRATS_PHANTOM = {
    "patients": BRATS_PATIENTS, "depth": 155, "height": 240, "width": 240,
    "radius_min": 8.0, "radius_max": 30.0, "margin": 40,
    "modalities": ["t1", "t1ce", "t2", "flair"],
}
THRESHOLD = 0.5  # the default score.threshold


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # grid | oracle | brats
    jobs: int
    outputs: tuple[str, ...]  # canonical CSVs, checked on every command


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-pool", "grid", POOL_JOBS, ("grid_scores.csv",)),
        Workload("grid-serial", "grid", 1, ("grid_scores.csv",)),
        Workload("oracle-pool", "oracle", POOL_JOBS, ("oracle_scores.csv", "oracle_summary.csv")),
        Workload("brats-volume", "brats", 1, ("corruption_report.csv", "scores.csv")),
    )
}


def derive(seed: int, label: str) -> int:
    """A 31-bit seed for one input, derived from the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_measured(argv: list[str], log: Path) -> tuple[Sample, str]:
    """Run one command to completion; time and rusage belong to it alone."""
    with open(log, "w") as err, open(log.with_suffix(".out"), "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if proc.returncode != 0:
        sample.problems.append(f"{' '.join(argv[2:4])} exited {proc.returncode}: "
                               f"{log.read_text().strip()[-400:]}")
    return sample, log.with_suffix(".out").read_text()


def run_child(args: list[str], log: Path) -> tuple[Sample, dict]:
    sample, stdout = run_measured([sys.executable, str(BENCH / "child.py"), *args], log)
    if sample.problems:
        raise RuntimeError(f"child.py {args[0]} failed: {sample.problems[0]}")
    return sample, json.loads(stdout.strip().splitlines()[-1])


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "segnoise.cli", *args]


def write_json(path: Path, payload) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


# ---------------------------------------------------------------- checks


def _is_int(text: str) -> bool:
    return text.lstrip("-").isdigit()


def compare_csv(name: str, got: str, ref: str) -> list[str]:
    """Counts and labels exactly, floats within 1e-9 relative."""
    got_rows = list(csv.reader(io.StringIO(got)))
    ref_rows = list(csv.reader(io.StringIO(ref)))
    if len(got_rows) != len(ref_rows):
        return [f"{name}: {len(got_rows)} rows, reference has {len(ref_rows)}"]
    for line, (row, ref_row) in enumerate(zip(got_rows, ref_rows), start=1):
        if len(row) != len(ref_row):
            return [f"{name}:{line}: {len(row)} fields, reference has {len(ref_row)}"]
        for cell, ref_cell in zip(row, ref_row):
            if cell == ref_cell:
                continue
            try:
                close = not (_is_int(cell) and _is_int(ref_cell)) and math.isclose(
                    float(cell), float(ref_cell), rel_tol=1e-9, abs_tol=0.0)
            except ValueError:
                close = False
            if not close:
                return [f"{name}:{line}: {cell!r} != reference {ref_cell!r}"]
    return []


def oracle_invariants(text: str) -> list[str]:
    """Erosion never lowers precision and dilation never lowers recall."""
    problems = []
    for row in csv.DictReader(io.StringIO(text)):
        pinned = (row["mode"], row["metric"]) in (("erode", "precision"), ("dilate", "recall"))
        if pinned and float(row["value"]) != 1.0:
            problems.append(f"oracle_scores.csv: {row['mode']} {row['metric']} = {row['value']}")
    return problems


def delta_invariants(text: str) -> list[str]:
    """delta_s follows each row's op: dilate >= 1, erode <= 1, none == 1."""
    problems = []
    for row in csv.DictReader(io.StringIO(text)):
        if row["delta_s"] == "":
            continue
        delta, op = float(row["delta_s"]), row["op"]
        if (op == "dilate" and delta < 1) or (op == "erode" and delta > 1) or (op == "none" and delta != 1):
            problems.append(f"corruption_report.csv: {row['patient_id']} frame {row['frame']} "
                            f"op {op} delta_s {delta}")
    return problems


def integer_hard_dice(bundles: Path, preds: Path) -> dict[str, float]:
    """Hard dice per patient from integer voxel counts, read straight
    from the raw files, independent of segnoise.metrics."""
    dice = {}
    for pred_dir in sorted(p for p in preds.iterdir() if p.is_dir()):
        pid = json.loads((pred_dir / "meta.json").read_text())["patient_id"]
        hard = np.fromfile(pred_dir / "pred.raw", dtype="<f4") > THRESHOLD
        mask = np.fromfile(bundles / pid / "mask.raw", dtype=np.uint8) == 1
        tp = np.count_nonzero(hard & mask)
        dice[pid] = (2 * tp + 1) / (np.count_nonzero(hard) + np.count_nonzero(mask) + 1)
    return dice


def hard_dice_check(text: str, expected: dict[str, float]) -> list[str]:
    got = {row["patient_id"]: float(row["value"])
           for row in csv.DictReader(io.StringIO(text))
           if row["metric"] == "hard_dice" and row["patient_id"] != "ALL"}
    if set(got) != set(expected):
        return [f"scores.csv: patients {sorted(got)} != {sorted(expected)}"]
    return [f"scores.csv: {pid} hard_dice {got[pid]!r} != integer count {expected[pid]!r}"
            for pid in sorted(got) if not math.isclose(got[pid], expected[pid], rel_tol=1e-9)]


# ------------------------------------------------------------- workloads


class Run:
    """One benchmark run of one workload in its own temporary directory."""

    def __init__(self, workload: Workload, seed: int, run_dir: Path, record: bool):
        self.w = workload
        self.seed = seed
        self.dir = run_dir
        self.record = record
        self.config = run_dir / "config.json"
        self.bundles = run_dir / "bundles"
        self.preds = run_dir / "preds"
        self.first: dict[str, str] | None = None  # canonical CSVs of the first command
        self.hard_dice: dict[str, float] = {}
        self.setup_info: dict = {}
        self.log_index = 0

    def log(self, stem: str) -> Path:
        self.log_index += 1
        return self.dir / f"{self.log_index:03d}-{stem}.err"

    def prepare(self) -> None:
        phantom = {"seed": derive(self.seed, "phantom")}
        folds = {"seed": derive(self.seed, "folds")}
        if self.w.kind == "grid":
            sigma2 = GRID_SIGMA2[derive(self.seed, "sigma2") % len(GRID_SIGMA2)]
            config = {"data": {"phantom": phantom}, "folds": folds, "noise": {"mode": "dilate"},
                      "grid": {"sigma2_values": [sigma2], "seeds": 1},
                      "train": {"epochs": GRID_EPOCHS}}
        elif self.w.kind == "oracle":
            config = {"data": {"phantom": phantom}, "folds": folds,
                      "sweep": {"repetitions": ORACLE_REPETITIONS, "seed": derive(self.seed, "sweep")}}
        else:
            generate = {"data": {"phantom": {**BRATS_PHANTOM, **phantom}}}
            gen_path = write_json(self.dir / "generate.json", generate)
            _, self.setup_info = run_child(
                ["bundles", gen_path, str(self.bundles), str(self.preds),
                 str(derive(self.seed, "prediction"))], self.log("bundles"))
            self.hard_dice = integer_hard_dice(self.bundles, self.preds)
            config = {"data": {"path": str(self.bundles)},
                      "folds": {"n_folds": 1, "train": BRATS_PATIENTS, "val": 0, "test": 0, **folds},
                      "noise": {"mode": "random", "seed": derive(self.seed, "noise")}}
        write_json(self.config, config)

    def commands(self, out: Path, jobs: int) -> list[list[str]]:
        common = ["--config", str(self.config), "--out", str(out)]
        if self.w.kind == "grid":
            return [cli("gridsearch", *common, "--jobs", str(jobs))]
        if self.w.kind == "oracle":
            return [cli("oracle", *common, "--jobs", str(jobs))]
        return [cli("corrupt", *common),
                cli("score", *common, "--pred", str(self.preds), "--data", str(self.bundles))]

    def check(self, out: Path, label: str) -> list[str]:
        """Problems with one command's canonical outputs."""
        texts = {}
        for name in self.w.outputs:
            if not (out / name).is_file():
                return [f"{label}: missing {name}"]
            texts[name] = (out / name).read_text()
        problems = []
        if self.first is None:
            self.first = texts
            if self.seed == DEFAULT_SEED:
                problems += self.check_reference(texts)
        else:
            problems += [f"{label}: {name} differs from the run's first command"
                         for name in texts if texts[name] != self.first[name]]
        if self.w.kind == "oracle":
            problems += oracle_invariants(texts["oracle_scores.csv"])
        if self.w.kind == "brats":
            problems += delta_invariants(texts["corruption_report.csv"])
            problems += hard_dice_check(texts["scores.csv"], self.hard_dice)
        return problems

    def check_reference(self, texts: dict[str, str]) -> list[str]:
        ref_dir = REFERENCE / self.w.kind
        if self.record:
            ref_dir.mkdir(parents=True, exist_ok=True)
            for name, text in texts.items():
                (ref_dir / name).write_text(text)
            return []
        problems = []
        for name, text in texts.items():
            ref = ref_dir / name
            if not ref.is_file():
                problems.append(f"no reference output {ref.relative_to(BENCH)}")
            else:
                problems += compare_csv(name, text, ref.read_text())
        return problems

    def execute(self, jobs: int, index: int) -> Sample:
        out = self.dir / f"out-{index}"
        total = Sample(0.0, 0.0, 0.0)
        for argv in self.commands(out, jobs):
            sample, _ = run_measured(argv, self.log(argv[3]))
            total.wall_s += sample.wall_s
            total.cpu_s += sample.cpu_s
            total.peak_rss_mb = max(total.peak_rss_mb, sample.peak_rss_mb)
            total.problems += sample.problems
            if sample.problems:
                break
        if not total.problems:
            total.problems += self.check(out, f"command {index}")
        shutil.rmtree(out, ignore_errors=True)
        return total

    def loop(self, seconds: float) -> list[Sample]:
        """Closed loop: start the next command only while it should end
        within `seconds`, and run at least MIN_COMMANDS."""
        samples: list[Sample] = []
        start = time.perf_counter()
        while len(samples) < MIN_COMMANDS or (
            time.perf_counter() - start + samples[-1].wall_s <= seconds
        ):
            samples.append(self.execute(self.w.jobs, len(samples)))
        return samples

    def setup_s(self) -> tuple[float, dict]:
        times = []
        for _ in range(SETUP_REPEATS):
            sample, info = run_child(["corpus", str(self.config)], self.log("corpus"))
            times.append(sample.wall_s)
        return statistics.median(times), info

    def replay(self) -> tuple[dict, list[str]]:
        """Run each of the workload's commands once more, at --jobs 1,
        in a child that calls `segnoise.cli.main` with spans; return the
        per-layer numbers and any check problems."""
        out = self.dir / "replay"
        parts = []
        for argv in self.commands(out, 1):
            trace_path = WORK / f"trace-{self.w.name}-seed{self.seed}-{argv[3]}.jsonl"
            sample, result = run_child(["replay", str(trace_path), *argv[3:]], self.log("replay"))
            # The command's share of the child's wall time, start-up
            # included, as in the CLI's wall_s.
            result["process_s"] = sample.wall_s - result.pop("post_s")
            parts.append(result)
        bundle_bytes = 0
        if self.w.kind == "brats":
            # Each of `corrupt` and `score` reads the corpus; `score` also
            # reads the predictions; `corrupt` writes the corrupted bundles.
            bundle_bytes = (2 * dir_bytes(self.bundles) + dir_bytes(self.preds)
                            + dir_bytes(out / "corrupted"))
        layers = replay_layers(parts, bundle_bytes)
        if self.first is None:
            return layers, ["replay: no CLI command succeeded to compare with"]
        problems = [f"replay: {name} differs from the CLI's"
                    for name in self.w.outputs
                    if (out / name).read_text() != self.first[name]]
        return layers, problems


def dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def replay_layers(parts: list[dict], bundle_bytes: int) -> dict:
    """Per-layer metrics from the replay children's span totals."""
    totals: dict[str, float] = {}
    counts: dict[str, float] = {}
    for part in parts:
        for name, value in part["totals"].items():
            totals[name] = totals.get(name, 0.0) + value
        for name, value in part["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
    epochs = counts.get("trainer.epochs", 0)
    cells = counts.get("oracle.cells", 0)
    return {
        "phantom.generate_s": totals.get("phantom.generate", 0.0),
        "bundleio.write_s": totals.get("bundleio.write", 0.0),
        "bundleio.read_s": totals.get("bundleio.read", 0.0),
        "bundleio.bytes": bundle_bytes,
        "volume.zscore_s": totals.get("volume.zscore", 0.0),
        "noise.corrupt_s": totals.get("noise.corrupt", 0.0),
        "noise.rng_s": sum(part["rng_s"] for part in parts),
        "noise.frames": counts.get("noise.frames", 0),
        "morphology.passes": counts.get("morphology.passes", 0),
        "morphology.pass_us": next((p["pass_us"] for p in parts if p["pass_us"] is not None), 0.0),
        "morphology.size_change_s": totals.get("morphology.size_change", 0.0),
        "metrics.score_s": totals.get("metrics.score", 0.0),
        "metrics.voxels": counts.get("metrics.voxels", 0),
        "oracle.cell_ms": 1000.0 * totals.get("oracle.cell", 0.0) / cells if cells else 0.0,
        "oracle.cells": cells,
        "trainer.features_s": totals.get("trainer.features", 0.0),
        "trainer.epoch_ms": 1000.0 * totals.get("trainer.descend", 0.0) / epochs if epochs else 0.0,
        "trainer.epochs": epochs,
        "trainer.predict_s": totals.get("trainer.predict", 0.0),
        "cli.write_s": totals.get("cli.write", 0.0),
        "trace.coverage": sum(p["top_level_s"] for p in parts) / sum(p["traced_wall_s"] for p in parts),
        # Wall time of the traced commands' processes, and the part of
        # it spent outside the commands (interpreter start-up, imports).
        "process_s": sum(p["process_s"] for p in parts),
        "startup_s": sum(p["process_s"] - p["traced_wall_s"] for p in parts),
    }


# ---------------------------------------------------------------- facts


def llc_bytes() -> int | None:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KMG")) * scale
    return sizes[max(sizes)] if sizes else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_facts(seed: int, corpus_bytes: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if re.search(r"THREAD|^(OMP|OPENBLAS|GOTO|MKL|BLIS|VECLIB)_", k)},
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "corpus_bytes": corpus_bytes,
        "llc_bytes": llc_bytes(),
    }


# ------------------------------------------------------------------ run


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 record: bool = False) -> tuple[dict, dict, list[Sample]]:
    """Returns (metric values, run facts, per-command samples)."""
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        run = Run(workload, seed, run_dir, record)
        run.prepare()
        setup_s, corpus = run.setup_s()
        samples = run.loop(seconds / 2 if trace else seconds)
        timed = [s for s in samples if not s.problems] or samples
        wall_s = statistics.median(s.wall_s for s in timed)
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "cpu_s": statistics.median(s.cpu_s for s in timed),
            "peak_rss_mb": statistics.median(s.peak_rss_mb for s in timed),
        }
        serial_wall_s = wall_s
        if workload.jobs > 1:
            # Untimed: the pool must reproduce the serial CSVs byte for
            # byte. The replay runs at --jobs 1, so this is also the
            # untraced time that the traced one is compared with.
            serial = run.execute(1, len(samples))
            serial.problems = [f"--jobs 1: {p}" for p in serial.problems]
            samples.append(serial)
            serial_wall_s = serial.wall_s
        if trace:
            values, problems = run.replay()
            samples.append(Sample(values["process_s"], 0.0, 0.0, problems))
            if workload.kind == "brats":
                values["phantom.generate_s"] = run.setup_info["generate_s"]
            # The pool's cost beyond a perfect split of the traced serial
            # compute over the workers; start-up is paid once either way.
            compute_s = values["process_s"] - values["startup_s"]
            values["pool.overhead_s"] = (
                wall_s - values["startup_s"] - compute_s / workload.jobs if workload.jobs > 1 else 0.0
            )
            values["trace.overhead_s"] = values["process_s"] - serial_wall_s
        facts = run_facts(seed, corpus["corpus_bytes"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return values, facts, samples


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="write the default seed's canonical CSVs as the reference")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "segnoise" / "cli.py").is_file():
        print(f"error: no segnoise source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.record_reference and args.seed != DEFAULT_SEED:
        parser.error("--record-reference needs the default seed")

    if args.workload == "all":
        for name in WORKLOADS:
            for trace in (0, 1):
                values, _, samples = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(trace))
                failed = sum(1 for s in samples if s.problems)
                rows = [("fail_ratio", failed / len(samples), "ratio")] if not trace else []
                metrics = spec["per_layer" if trace else "end_to_end"]
                rows += [(m["name"], values[m["name"]], m["unit"]) for m in metrics]
                for metric, value, unit in rows:
                    print(f"{name:<13} {metric:<26} {value:>16.6g} {unit}")
        return 0

    workload = WORKLOADS[args.workload]
    values, facts, samples = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                          args.record_reference)
    failed = [s for s in samples if s.problems]
    for s in failed:
        print(f"check failed: {'; '.join(s.problems[:5])}", file=sys.stderr)
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    write_json(WORK / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", {
        "workload": workload.name, "facts": facts, "result": result,
        "fail_ratio": len(failed) / len(samples),
        "commands": [s.__dict__ for s in samples],
    })
    print(json.dumps({"facts": facts}))
    print(f"fail_ratio {len(failed) / len(samples):g} ({len(failed)} of {len(samples)})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
