"""The program-side half of the benchmark, run as a child process.

    child.py corpus CONFIG
        Build the configured corpus once (phantom generation or
        `load_dataset`) and print its size. Its wall time is `setup_s`.
    child.py bundles GEN_CONFIG BUNDLES PREDS SEED
        Write BraTS-size phantom bundles and float32 prediction bundles.
    child.py replay TRACE_JSONL ARG...
        Run one `segnoise ARG...` command in-process through
        `segnoise.cli.main`, with spans around segnoise's functions
        (including the bindings that cli.py and the other modules
        imported), write the spans to TRACE_JSONL and print span totals
        and counts. The command writes the same files as the CLI run.

Each subcommand prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

from segnoise import bundleio, metrics, morphology, noise, oracle, phantom, trainer, volume
from segnoise import config as cfgmod
from tracer import Tracer


def _corpus_bytes(records) -> int:
    return sum(
        r.mask.nbytes + sum(grid.nbytes for grid in r.volume.modalities.values())
        for r in records
    )


def cmd_corpus(config_path: str) -> dict:
    records = cfgmod.records_from(cfgmod.load_config(config_path))
    return {"patients": len(records), "corpus_bytes": _corpus_bytes(records)}


def cmd_bundles(gen_config: str, bundles: str, preds: str, seed: int) -> dict:
    t0 = time.perf_counter()
    records = cfgmod.records_from(cfgmod.load_config(gen_config))
    t1 = time.perf_counter()
    rng = np.random.default_rng(seed)
    shift = tuple(int(s) for s in rng.integers(1, 4, size=2))
    for record in records:
        bundleio.write_bundle(record, bundles)
        # A prediction that is a shifted copy of the mask plus jitter:
        # values above the 0.5 threshold exactly on the shifted mask.
        shifted = np.roll(record.mask, shift, axis=(1, 2))
        jitter = 0.2 * rng.random(shifted.shape, dtype=np.float32)
        bundleio.write_prediction(record.patient_id, np.where(shifted == 1, 0.75 + jitter, jitter), preds)
    return {"generate_s": t1 - t0, "write_s": time.perf_counter() - t1,
            "patients": len(records), "corpus_bytes": _corpus_bytes(records)}


def _instrument(tracer: Tracer, rng_keys: list, frames: list) -> None:
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "segnoise"]

    def on_corrupt(result, mask, mode, sigma2, seed, patient_id):
        outcomes = result[1]
        tracer.count("noise.frames", len(outcomes))
        tracer.count("morphology.passes", sum(o.k for o in outcomes))
        rng_keys.append((seed, patient_id, len(outcomes), sigma2))
        if not frames:
            frames.extend(f for f in mask if f.any())

    def on_score(result, p, *rest):
        tracer.count("metrics.voxels", np.size(p))

    def on_descend(result, *args):
        tracer.count("trainer.epochs", len(result[1]))

    def on_cell(result, *args):
        tracer.count("oracle.cells")

    for function, name, observe in (
        (phantom.generate_corpus, "phantom.generate", None),
        (bundleio.load_dataset, "bundleio.read", None),
        (bundleio.load_prediction, "bundleio.read", None),
        (bundleio.write_bundle, "bundleio.write", None),
        (volume.zscore_normalize, "volume.zscore", None),
        (trainer.extract_features, "trainer.features", None),
        # The gridsearch trains through `_descend` on features it
        # extracted once; `train` is only the single-model entry point.
        (trainer._descend, "trainer.descend", on_descend),
        (trainer.predict, "trainer.predict", None),
        (noise.corrupt_mask_volume, "noise.corrupt", on_corrupt),
        (morphology.size_change, "morphology.size_change", None),
        (metrics.score_volumewise, "metrics.score", on_score),
        (metrics.soft_metrics, "metrics.score", on_score),
        (metrics.hard_metrics, "metrics.score", on_score),
        (oracle.simulate_noise_robust, "oracle.cell", on_cell),
    ):
        tracer.instrument(modules, function, name, observe)
    # `score` writes its small CSV inline, so on brats-volume this span
    # covers corruption_report.csv only.
    for cls, method in (
        (trainer.GridResult, "write_outputs"),
        (oracle.SweepResult, "write_outputs"),
        (noise.CorruptionReport, "to_csv"),
    ):
        tracer.instrument([cls], vars(cls)[method], "cli.write")


def _pass_us(frame: np.ndarray, repeats: int) -> float:
    """Median microseconds of one radius-1 dilate or erode pass."""
    times = []
    for _ in range(repeats):
        for op in (morphology.dilate, morphology.erode):
            t0 = time.perf_counter()
            op(frame, 1)
            times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e6


def _rng_s(keys: list) -> float:
    """Seconds to draw every frame's scale again over the same keys."""
    t0 = time.perf_counter()
    for seed, patient_id, n_frames, sigma2 in keys:
        for index in range(n_frames):
            noise.sample_scale(noise.frame_rng(seed, patient_id, index), sigma2)
    return time.perf_counter() - t0


def cmd_replay(trace_path: str, cli_args: list[str]) -> dict:
    from segnoise import cli  # imported here so that `corpus` stays lean

    tracer = Tracer()
    rng_keys: list = []
    frames: list = []  # the non-empty mask frames of the first corrupted volume
    _instrument(tracer, rng_keys, frames)
    try:
        t0 = time.perf_counter()
        status = cli.main(cli_args)
        t1 = time.perf_counter()
    finally:
        tracer.restore()
    if status != 0:
        raise SystemExit(f"segnoise {cli_args[0]} exited {status}")
    tracer.write_jsonl(trace_path)
    sample = np.array(frames[0]) if frames else None
    result = {
        "traced_wall_s": t1 - t0,
        "top_level_s": tracer.top_level_s(),
        "totals": {name: entry["total_s"] for name, entry in tracer.summary().items()},
        "counts": dict(tracer.counts),
        "rng_s": _rng_s(rng_keys),
        "pass_us": None if sample is None else _pass_us(sample, 200 if sample.size < 10_000 else 50),
    }
    # Time spent after the command returned, so that the caller can take
    # the command's share of this process's wall time.
    result["post_s"] = time.perf_counter() - t1
    return result


def main(argv: list[str]) -> int:
    command, *rest = argv
    if command == "corpus":
        result = cmd_corpus(*rest)
    elif command == "bundles":
        gen_config, bundles, preds, seed = rest
        result = cmd_bundles(gen_config, bundles, preds, int(seed))
    elif command == "replay":
        trace_path, *cli_args = rest
        result = cmd_replay(trace_path, cli_args)
    else:
        raise SystemExit(f"unknown child command {command!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
