"""Supervised window construction, chronological splitting, normalization,
and a synthetic diurnal traffic generator for tests and demos."""

import math
from dataclasses import dataclass

import numpy as np

from .cdr import SLOTS_PER_DAY, ActivitySeries

# Nov 1 2013 00:00 CET, origin of the 62-day Milan record
DEFAULT_T0_MS = 1_383_260_400_000


@dataclass(frozen=True)
class ScalerParams:
    """Min-max normalization fitted on the training slice only."""

    min: float
    max: float

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.min) / (self.max - self.min)

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * (self.max - self.min) + self.min


def fit_scaler(train_values: np.ndarray) -> ScalerParams:
    lo, hi = float(train_values.min()), float(train_values.max())
    if hi <= lo:
        raise ValueError("cannot fit scaler on a constant training slice")
    return ScalerParams(lo, hi)


@dataclass
class WindowSet:
    """Sliding input windows and next-step targets: inputs[i] holds the T
    values of the source series that precede targets[i]."""

    inputs: np.ndarray   # (n_windows, T)
    targets: np.ndarray  # (n_windows,)

    def __len__(self) -> int:
        return len(self.targets)


def windows_for_range(values: np.ndarray, window_len: int, start: int, stop: int) -> WindowSet:
    """Read-only views of the windows whose targets fall in [start, stop).

    Targets near a slice boundary draw their input history from the preceding
    slice; the earliest usable target index is `window_len`. The caller keeps
    max(start, window_len) < stop <= len(values).
    """
    start = max(start, window_len)
    return WindowSet(np.lib.stride_tricks.sliding_window_view(  # rows overlap in `values`
        values[start - window_len:stop - 1], window_len), values[start:stop])


@dataclass(frozen=True)
class SplitSpec:
    """Chronological head/middle/tail split: train, then validation, then test."""

    n_train: int
    n_val: int
    n_test: int

    @property
    def val_start(self) -> int:
        return self.n_train

    @property
    def test_start(self) -> int:
        return self.n_train + self.n_val


def split(n_total: int, train_frac: float) -> SplitSpec:
    """ceil(0.10*N) slots each for validation and test, and floor(frac*N)
    training slots, capped at the N - n_val - n_test slots before them;
    `train_frac` is in (0, 0.8].

    Reproduces the 8928-slot reference counts: 0.8 -> (7142, 893, 893),
    0.4 -> 3571 train, 0.1 -> 892 train.
    """
    n_val = n_test = math.ceil(0.10 * n_total)
    n_train = min(math.floor(train_frac * n_total), n_total - n_val - n_test)
    if n_train < 1:
        raise ValueError(f"split of {n_total} slots leaves an empty part")
    return SplitSpec(n_train, n_val, n_test)


def gen_synthetic(days: int, seed: int = 0) -> ActivitySeries:
    """Deterministic synthetic traffic: a rectified two-peak diurnal pattern
    (morning and evening busy hours), a weekly swell, and Gaussian noise,
    floored at zero."""
    rng = np.random.default_rng(seed)
    t = np.arange(days * SLOTS_PER_DAY)
    base = 20.0
    phase = 2 * np.pi * t / SLOTS_PER_DAY
    daily = 100.0 * np.maximum(0.0, np.sin(phase - 0.5) + 0.5 * np.sin(3 * phase - 0.3))
    weekly = 12.0 * np.sin(2 * np.pi * t / (7 * SLOTS_PER_DAY))
    noise = rng.normal(0.0, 2.0, size=t.shape)
    values = np.maximum(base + daily + weekly + noise, 0.0)
    return ActivitySeries(DEFAULT_T0_MS, values)
