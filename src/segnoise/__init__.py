"""Biased annotator-noise simulation and f-beta loss experiments for
binary segmentation masks."""

from .bundleio import import_nifti, load_dataset, load_masks, load_patient, read_nifti, write_bundle
from .folds import DatasetSplit, FoldPlan, make_folds
from .metrics import (
    ScoreTriple,
    aggregate_framewise,
    f_beta,
    grad_loss,
    hard_metrics,
    loss,
    score_frames,
    score_volumewise,
    soft_dice,
    soft_metrics,
    soft_precision,
    soft_recall,
)
from .morphology import STRUCTURING_ELEMENT, SizeChange, dilate, erode, mask_area, size_change
from .noise import (
    CorruptionReport,
    NoiseMode,
    NoiseSpec,
    corrupt_dataset,
    corrupt_frame,
    corrupt_mask_volume,
    sample_scale,
)
from .oracle import SweepConfig, SweepResult, run_sweep, simulate_noise_robust
from .phantom import PhantomSpec, generate_corpus, generate_phantom
from .trainer import (
    GridResult,
    LinearSegmenter,
    TrainConfig,
    TrainingDiverged,
    beta_gridsearch,
    extract_features,
    predict,
    train,
)
from .volume import (
    MultiModalVolume,
    PatientRecord,
    binarize_labels,
    normalize_record,
    zscore_normalize,
)

__version__ = "0.1.0"

__all__ = [
    "CorruptionReport",
    "DatasetSplit",
    "FoldPlan",
    "GridResult",
    "LinearSegmenter",
    "MultiModalVolume",
    "NoiseMode",
    "NoiseSpec",
    "PatientRecord",
    "PhantomSpec",
    "STRUCTURING_ELEMENT",
    "ScoreTriple",
    "SizeChange",
    "SweepConfig",
    "SweepResult",
    "TrainConfig",
    "TrainingDiverged",
    "aggregate_framewise",
    "beta_gridsearch",
    "binarize_labels",
    "corrupt_dataset",
    "corrupt_frame",
    "corrupt_mask_volume",
    "dilate",
    "erode",
    "extract_features",
    "f_beta",
    "generate_corpus",
    "generate_phantom",
    "grad_loss",
    "hard_metrics",
    "import_nifti",
    "load_dataset",
    "load_masks",
    "load_patient",
    "loss",
    "make_folds",
    "mask_area",
    "normalize_record",
    "predict",
    "read_nifti",
    "run_sweep",
    "sample_scale",
    "score_frames",
    "score_volumewise",
    "simulate_noise_robust",
    "size_change",
    "soft_dice",
    "soft_metrics",
    "soft_precision",
    "soft_recall",
    "train",
    "write_bundle",
    "zscore_normalize",
]
