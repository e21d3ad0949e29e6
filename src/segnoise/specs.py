"""The parameter types that the config builds and range-checks.

`PhantomSpec`, `NoiseSpec`, `SweepConfig` and `TrainConfig` give the
defaults of their config sections and check their values on
construction; `NoiseMode` names the corruption modes. They live here,
apart from the code that uses them, so that reading a config imports no
more than the standard library. `phantom`, `noise`, `oracle` and
`trainer` re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def check_beta(beta) -> float:
    """`beta` as a float, if it is >= 0 and its square, which the f-beta
    algebra takes, is finite (beta up to about 1.34e154)."""
    b = float(beta)
    if b < 0.0 or not math.isfinite(b * b):
        raise ValueError("beta must be finite and >= 0, with a finite square")
    return b


def check_sigma2(sigma2, name: str = "sigma2") -> float:
    """`sigma2` as a float, if it is a variance: finite and >= 0."""
    s = float(sigma2)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"{name} must be finite and >= 0")
    return s


def check_distinct(name: str, values: tuple) -> tuple:
    """`values`, unless one repeats: a sweep axis that repeats a value
    would pool the two points' results under one key."""
    if len(set(values)) < len(values):
        raise ValueError(f"{name} must not repeat a value")
    return values


def check_sigma2_values(values) -> tuple[float, ...]:
    """A sweep's sigma2 axis as floats: each a variance, none repeated."""
    return check_distinct("sigma2_values", tuple(
        check_sigma2(s, f"sigma2_values[{i}]") for i, s in enumerate(values)))


class NoiseMode(str, Enum):
    DILATE = "dilate"
    ERODE = "erode"
    RANDOM = "random"


@dataclass(frozen=True)
class NoiseSpec:
    """Corruption parameters; sampling is fixed once per (seed, frame)."""

    mode: NoiseMode
    sigma2: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "mode", NoiseMode(self.mode))
        check_sigma2(self.sigma2)
        if int(self.seed) < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class PhantomSpec:
    """Phantom geometry and intensities; its defaults are the config's."""

    depth: int = 6
    height: int = 64
    width: int = 64
    blobs_min: int = 1
    blobs_max: int = 3
    radius_min: float = 5.0
    radius_max: float = 10.0
    margin: int = 8
    background_mean: float = 0.0
    foreground_offset: float = 1.5
    noise_std: float = 1.0
    modalities: tuple[str, ...] = ("m0", "m1")

    def __post_init__(self):
        for name in ("depth", "height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.blobs_min < 0:
            raise ValueError(f"blobs_min must be >= 0, got {self.blobs_min}")
        if self.blobs_max < self.blobs_min:
            raise ValueError(f"blobs_max must be >= blobs_min ({self.blobs_min}), got {self.blobs_max}")
        if self.radius_min <= 0:
            raise ValueError(f"radius_min must be > 0, got {self.radius_min}")
        if self.radius_max < self.radius_min:
            raise ValueError(f"radius_max must be >= radius_min ({self.radius_min}), got {self.radius_max}")
        if self.margin < 0:
            raise ValueError(f"margin must be >= 0, got {self.margin}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        if not self.modalities:
            raise ValueError("modalities must name at least one modality")
        check_distinct("modalities", tuple(self.modalities))
        limit = min(self.height, self.width) - 1
        if 2 * (self.margin + self.radius_max) > limit:
            raise ValueError(
                f"radius_max {self.radius_max} too large for a "
                f"{self.height}x{self.width} frame with margin {self.margin}"
            )


@dataclass(frozen=True)
class SweepConfig:
    modes: tuple[NoiseMode, ...] = (NoiseMode.DILATE, NoiseMode.ERODE, NoiseMode.RANDOM)
    sigma2_values: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
    repetitions: int = 20
    seed: int = 123

    def __post_init__(self):
        modes = check_distinct("modes", tuple(NoiseMode(m) for m in self.modes))
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "sigma2_values", check_sigma2_values(self.sigma2_values))
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 4.0
    epochs: int = 200
    seed: int = 0
    init_scale: float = 0.0

    def __post_init__(self):
        # learning_rate 0 is allowed so a no-op descent stays expressible.
        if not math.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not math.isfinite(self.init_scale) or self.init_scale < 0:
            raise ValueError("init_scale must be finite and >= 0")
