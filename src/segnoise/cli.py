"""Experiment runner.

Subcommands:
    phantom     generate a synthetic bundle corpus on disk
    corrupt     apply biased noise to train/val masks of a dataset
    oracle      noise-robust oracle sweep (CSV + SVG curves)
    gridsearch  beta x sigma2 bias-cancellation grid (CSV + heatmap)
    gradcheck   analytic-vs-numeric gradient verification
    score       score prediction bundles against ground-truth masks

Every command reads an optional JSON config (--config); flags override
file values. `segnoise --emit-default-config` prints the full default
tree. Outputs are byte-reproducible from config + seeds, and --jobs N
never changes results, only wall time: a sweep starts up to N workers
once the work it has left would pay for them, and otherwise runs in
this process (`pool.map_cells`). Each command imports the
modules it runs when it starts, so none pays for the others' imports;
importing this module loads no numpy. No command uses a second BLAS
thread, so `main` has numpy's OpenBLAS start with one (see `pool`).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import config as cfgmod
from . import pool
from .atomic import csv_text, write_text
from .specs import NoiseMode


def _resolve_out(args_out, config) -> Path:
    out = args_out or config.get("output_dir") or os.environ.get(cfgmod.OUTPUT_DIR_ENV)
    if not out:
        raise cfgmod.ConfigError(
            "no output directory: pass --out, set output_dir in the config, "
            f"or set ${cfgmod.OUTPUT_DIR_ENV}"
        )
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ValueError(f"output directory {path} is, or lies under, a file") from exc
    return path


def cmd_phantom(args, config) -> int:
    """Write each phantom's `payloads` as soon as it is generated, so that one is held."""
    from .bundleio import write_patient

    if config["data"]["phantom"] is None:
        raise cfgmod.ConfigError("phantom generation needs data.phantom in the config")
    out = _resolve_out(args.out, config)
    source = cfgmod.source_from(config)
    for pid in source.ids:
        write_patient(pid, *source.payloads(pid), out)
    print(f"wrote {len(source.ids)} phantom bundles to {out}")
    return 0


def cmd_corrupt(args, config) -> int:
    """Corrupt one fold's train/val masks and write every split patient
    under corrupted/ from its `payloads`, one patient at a time: a
    phantom's grids, or a bundle's payloads copied through the checked
    block reader. Patients outside the split are only checked (`mask`)."""
    from .bundleio import write_patient
    from .noise import CorruptionReport, corrupt_patient

    out = _resolve_out(args.out, config)
    bundle_dir = out / "corrupted"
    source = cfgmod.source_from(config)
    root = config["data"]["path"]
    if root is not None and bundle_dir.resolve() == Path(root).resolve():
        raise ValueError(f"corrupt would overwrite its input bundles in {root}")
    split = cfgmod.foldplan_from(config, source.ids).folds[config["folds"]["fold_index"]]
    spec = cfgmod.noise_spec_from(config)
    for pid in sorted(set(source.ids) - set(split.all_ids)):
        source.mask(pid)

    rows = []
    for pid in sorted(split.all_ids):
        modalities, mask = source.payloads(pid)
        mask, patient_rows = corrupt_patient(mask, pid, split, spec)
        write_patient(pid, modalities, mask, bundle_dir)
        rows += patient_rows
        del modalities, mask  # before the next patient is read
    report = CorruptionReport(records=tuple(rows))
    report.to_csv(out / "corruption_report.csv")
    mean_delta = report.mean_delta_s()
    delta_text = "undefined" if mean_delta is None else format(mean_delta, ".4f")
    print(
        f"corrupted {len(split.train_ids) + len(split.val_ids)} train/val patients "
        f"(mode={spec.mode.value}, sigma2={spec.sigma2:g}); mean delta_s={delta_text}; "
        f"outputs in {out}"
    )
    return 0


def cmd_oracle(args, config) -> int:
    """The oracle sweep on masks alone: a bundle's after every check but
    with no intensities kept, a phantom's without its modalities."""
    from .oracle import run_sweep

    out = _resolve_out(args.out, config)
    source = cfgmod.source_from(config)
    masks = {pid: source.mask(pid) for pid in source.ids}
    plan = cfgmod.foldplan_from(config, source.ids)
    sweep = cfgmod.sweep_config_from(config)
    result = run_sweep(masks, plan, sweep, jobs=args.jobs)
    written = result.write_outputs(out)
    print(f"oracle sweep: {result.scores[..., 0, :].size} cells; wrote {len(written)} files to {out}")
    return 0


def cmd_gridsearch(args, config) -> int:
    """A descent that diverges, in this process or a worker, is one error line."""
    from .trainer import TrainingDiverged, beta_gridsearch

    out = _resolve_out(args.out, config)
    source = cfgmod.source_from(config)
    plan = cfgmod.foldplan_from(config, source.ids)
    split = plan.folds[config["folds"]["fold_index"]]
    try:
        grid = beta_gridsearch(
            source, split, betas=config["grid"]["betas"], mode=NoiseMode(config["noise"]["mode"]),
            sigma2_values=config["grid"]["sigma2_values"], seeds=range(config["grid"]["seeds"]),
            base_config=cfgmod.train_config_from(config), threshold=config["score"]["threshold"],
            jobs=args.jobs)
    except TrainingDiverged as exc:
        raise ValueError(f"{exc}; lower train.learning_rate or train.init_scale") from exc
    written = grid.write_outputs(out)
    print(f"gridsearch: {grid.scores[:, :, 0].size} cells; wrote {len(written)} files to {out}")
    return 0


def cmd_gradcheck(args, config) -> int:
    import numpy as np

    from .metrics import finite_difference_grad_loss, grad_loss

    gc = config["gradcheck"]
    if gc["eps"] < 1e-8:
        print(
            f"warning: eps={gc['eps']:g} sits near the float cancellation floor; "
            "finite differences may be dominated by rounding",
            file=sys.stderr,
        )
    rng = np.random.default_rng(gc["seed"])
    shape = (gc["height"], gc["width"])
    worst = 0.0
    for beta in gc["betas"]:
        max_rel = 0.0
        for _ in range(gc["trials"]):
            p = rng.uniform(0.05, 0.95, size=shape)
            t = (rng.random(shape) < 0.5).astype(np.float64)
            analytic = grad_loss(p, t, beta)
            numeric = finite_difference_grad_loss(p, t, beta, eps=gc["eps"])
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-12)
            max_rel = max(max_rel, float(rel.max()))
        status = "PASS" if max_rel < gc["tolerance"] else "FAIL"
        print(f"beta={beta:g}: max_rel_err={max_rel:.3e} [{status}]")
        worst = max(worst, max_rel)
    print(f"gradcheck {'PASS' if worst < gc['tolerance'] else 'FAIL'}: "
          f"worst={worst:.3e} tolerance={gc['tolerance']:g}")
    return 0 if worst < gc["tolerance"] else 1


def cmd_score(args, config) -> int:
    """Score each prediction bundle, in directory order, against its
    patient's mask. One mask and one block of prediction frames are held
    at a time, and each prediction value is checked once, as it is read.
    Every ground-truth bundle gets the checks that `load_dataset` makes,
    also those with no prediction, which are checked last."""
    import numpy as np

    from .bundleio import index_bundles, open_prediction
    from .metrics import ScoreTriple, score_blocks

    out = _resolve_out(args.out, config)
    threshold = config["score"]["threshold"]
    patients = cfgmod.bundle_source(args.data)
    predictions = index_bundles(args.pred, "prediction")
    for pid in predictions:
        if pid not in patients.ids:
            raise ValueError(f"prediction {pid!r} has no matching patient bundle")

    rows = []
    collected: dict[str, list[float]] = {}
    for pid, bundle in predictions.items():
        mask = patients.mask(pid)
        shape, blocks = open_prediction(bundle)[1:]
        if shape != mask.shape:
            raise ValueError(f"prediction {pid!r} has shape {shape}, its mask {mask.shape}")
        scores = score_blocks(blocks, mask, threshold)
        for name, value in (
            *((f"soft_{m}", v) for m, v in zip(ScoreTriple._fields, scores.soft)),
            *((f"hard_{m}", v) for m, v in zip(ScoreTriple._fields, scores.hard)),
            ("framewise_soft_dice", scores.framewise_dice),
        ):
            rows.append((pid, name, value))
            collected.setdefault(name, []).append(value)
        del mask  # so that only one mask is held while the next loads
    for pid in patients.ids:
        if pid not in predictions:
            patients.mask(pid)
    for name in sorted(collected):
        rows.append(("ALL", name, float(np.mean(collected[name]))))

    write_text(out / "scores.csv", csv_text(("patient_id", "metric", "value"), rows))
    print(f"scored {len(collected['framewise_soft_dice'])} patients (volume-wise); wrote {out / 'scores.csv'}")
    return 0


_FOLD_FLAGS = {
    "--folds": "folds.n_folds",
    "--train-size": "folds.train",
    "--val-size": "folds.val",
    "--test-size": "folds.test",
    "--fold-seed": "folds.seed",
    "--fold-index": "folds.fold_index",
}

# Per subcommand, each flag that overrides a config leaf and the leaf's
# dotted path. A flag's type and nargs come from the leaf's default.
CONFIG_FLAGS: dict[str, dict[str, str]] = {
    "phantom": {f"--{key}": f"data.phantom.{key}" for key in ("patients", "seed", "depth", "height", "width")},
    "corrupt": {**_FOLD_FLAGS, "--data": "data.path", "--mode": "noise.mode",
                "--sigma2": "noise.sigma2", "--seed": "noise.seed"},
    "oracle": {**_FOLD_FLAGS, "--data": "data.path", "--modes": "sweep.modes",
               "--sigma2-values": "sweep.sigma2_values", "--repetitions": "sweep.repetitions",
               "--seed": "sweep.seed"},
    "gridsearch": {**_FOLD_FLAGS, "--data": "data.path", "--mode": "noise.mode", "--betas": "grid.betas",
                   "--sigma2-values": "grid.sigma2_values", "--seeds": "grid.seeds",
                   "--epochs": "train.epochs", "--learning-rate": "train.learning_rate"},
    "gradcheck": {f"--{key}": f"gradcheck.{key}"
                  for key in ("height", "width", "trials", "eps", "betas", "tolerance", "seed")},
    "score": {"--threshold": "score.threshold"},
}

_MODE_CHOICES = {"choices": [m.value for m in NoiseMode]}
_FLAG_EXTRAS = {
    "--folds": {"help": "number of folds"},
    "--data": {"help": "bundle directory (overrides phantom source)"},
    "--mode": _MODE_CHOICES,
    "--modes": _MODE_CHOICES,
    "--seeds": {"help": "number of corruption seeds per cell"},
}


def _flag_kwargs(path: str) -> dict:
    default = cfgmod.value_at(cfgmod.DEFAULT_CONFIG, path)
    if isinstance(default, list):
        return {"nargs": "+", "type": type(default[0])}
    return {"type": type(default) if default is not None else str}


def _config_overrides(args) -> dict:
    """The config flags given on the command line, as a partial config tree."""
    tree: dict = {}
    for path in CONFIG_FLAGS[args.command].values():
        value = getattr(args, path)
        if value is not None:
            *sections, leaf = path.split(".")
            node = tree
            for key in sections:
                node = node.setdefault(key, {})
            node[leaf] = value
    return tree


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segnoise",
        description="Biased annotator-noise simulation and f-beta loss experiments.",
    )
    parser.add_argument(
        "--emit-default-config",
        action="store_true",
        help="print the default JSON config and exit",
    )
    sub = parser.add_subparsers(dest="command")

    def add(name, func, help_text, out=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override its values")
        if out:
            p.add_argument("--out", help=f"output directory (default: config/${cfgmod.OUTPUT_DIR_ENV})")
        for flag, path in CONFIG_FLAGS[name].items():
            p.add_argument(flag, dest=path, **_flag_kwargs(path), **_FLAG_EXTRAS.get(flag, {}))
        p.set_defaults(func=func)
        return p

    add("phantom", cmd_phantom, "generate a synthetic bundle corpus")
    add("corrupt", cmd_corrupt, "corrupt train/val masks of one fold")
    add("oracle", cmd_oracle, "noise-robust oracle sweep").add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes at most (>= 1), started once the points left pay for them")
    add("gridsearch", cmd_gridsearch, "beta x sigma2 bias-cancellation grid").add_argument(
        "--jobs", type=_jobs, default=1,
        help="worker processes at most (>= 1), started once the cells left pay for them; "
             "one (sigma2, seed) cell and all its betas at a time")
    add("gradcheck", cmd_gradcheck, "verify analytic gradients numerically", out=False)
    p = add("score", cmd_score, "score prediction bundles against masks")
    p.add_argument("--pred", required=True, help="directory of prediction bundles")
    p.add_argument("--data", required=True, help="directory of ground-truth bundles")
    return parser


def main(argv=None) -> int:
    pool.start_blas_on_one_thread()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.emit_default_config:
        sys.stdout.write(cfgmod.default_config_json())
        return 0
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args, cfgmod.load_config(args.config, _config_overrides(args)))
    except (cfgmod.ConfigError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
