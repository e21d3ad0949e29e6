"""Biased annotator-noise simulation and f-beta loss experiments for
binary segmentation masks.

The public names below load their module on first use (PEP 562), so
that importing one module, or running one command, does not import the
rest of the package.
"""

import importlib

_MODULES = {
    "bundleio": ("import_nifti", "load_dataset", "load_masks", "load_patient", "read_nifti",
                 "write_bundle"),
    "folds": ("DatasetSplit", "FoldPlan", "make_folds"),
    "metrics": ("ScoreTriple", "aggregate_framewise", "f_beta", "grad_loss", "hard_metrics",
                "loss", "score_volumewise", "soft_dice", "soft_metrics", "soft_precision",
                "soft_recall"),
    "morphology": ("STRUCTURING_ELEMENT", "SizeChange", "dilate", "erode", "mask_area",
                   "size_change"),
    "noise": ("CorruptionReport", "corrupt_dataset", "corrupt_frame", "corrupt_mask_volume",
              "sample_scale"),
    "oracle": ("SweepResult", "run_sweep", "simulate_noise_robust"),
    "phantom": ("generate_corpus", "generate_phantom"),
    "specs": ("NoiseMode", "NoiseSpec", "PhantomSpec", "SweepConfig", "TrainConfig"),
    "trainer": ("GridResult", "LinearSegmenter", "TrainingDiverged", "beta_gridsearch",
                "extract_features", "predict", "train"),
    "volume": ("MultiModalVolume", "PatientRecord", "binarize_labels", "normalize_record",
               "zscore_normalize"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
