"""Training loop, Adam optimizer, and evaluation shared by both neural models.

Mean absolute error is both the training loss and the reported metric; its
subgradient at zero error is taken as 0. Loss is computed on the normalized
scale; evaluation reports predictions and MAE on the original scale.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import ffnn, lstm
from .dataset import ScalerParams, WindowSet


BATCH_SIZE = 32
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; message carries the epoch index."""


@dataclass
class TrainConfig:
    epochs: int = 20
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class History:
    """Per-epoch (epoch, train_mae, val_mae, wall_ms) records."""

    rows: list = field(default_factory=list)

    def append(self, epoch: int, train_mae: float, val_mae: float, wall_ms: float):
        self.rows.append((epoch, train_mae, val_mae, wall_ms))

    def __len__(self):
        return len(self.rows)

    @property
    def final_val_mae(self) -> float:
        return self.rows[-1][2]

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("epoch,train_mae,val_mae,wall_ms\n")
            for epoch, tr, va, ms in self.rows:
                fh.write(f"{epoch},{tr:.17g},{va:.17g},{ms:.3f}\n")


def mae(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError(f"mae: need equal nonzero lengths, got {pred.shape} vs {truth.shape}")
    return float(np.mean(np.abs(pred - truth)))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, flat: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(flat), v=np.zeros_like(flat))


def adam_step(w: np.ndarray, g: np.ndarray, state: AdamState, lr: float) -> None:
    """One in-place Adam update with bias correction of the flat weights `w`."""
    if g.shape != w.shape:
        raise ValueError(f"adam_step: gradient shape {g.shape} != param {w.shape}")
    state.t += 1
    b1t = 1.0 - ADAM_BETA1 ** state.t
    b2t = 1.0 - ADAM_BETA2 ** state.t
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    w -= lr * (state.m / b1t) / (np.sqrt(state.v / b2t) + ADAM_EPS)


# kind -> (module with forward_batch/backward_batch,
#          initialiser(window_len, seed) of fresh parameters)
MODELS = {
    "lstm": (lstm, lambda window_len, seed: lstm.init_params(lstm.HIDDEN_UNITS, seed=seed)),
    "ffnn": (ffnn, lambda window_len, seed: ffnn.init_params(window_len, seed=seed)),
}


def _model(kind: str):
    if kind not in MODELS:
        raise ValueError(f"unknown model kind {kind!r}")
    return MODELS[kind]


def fit(kind: str, params, train_set: WindowSet, val_set: WindowSet,
        config: TrainConfig) -> History:
    """Train `params` in place for the configured epochs; returns the History.

    Mini-batch order is a per-epoch seeded permutation; batch gradients are
    averaged. Validation is a full deterministic pass after each epoch. An
    overflow or invalid value anywhere in an epoch raises TrainingDiverged.
    """
    model, _ = _model(kind)
    if len(train_set) == 0 or len(val_set) == 0:
        raise ValueError("train and validation sets must be nonempty")
    state = AdamState.for_params(params.flat)
    rng = np.random.default_rng(config.seed)
    history = History()
    for epoch in range(1, config.epochs + 1):
        start = time.perf_counter()
        order = rng.permutation(len(train_set))
        abs_err_sum = 0.0
        try:
            with np.errstate(over="raise", invalid="raise"):
                for lo in range(0, len(order), BATCH_SIZE):
                    idx = order[lo:lo + BATCH_SIZE]
                    xb, tb = train_set.inputs[idx], train_set.targets[idx]
                    y, cache = model.forward_batch(xb, params)
                    err = y - tb
                    if not np.all(np.isfinite(err)):
                        raise TrainingDiverged(f"non-finite loss in epoch {epoch}")
                    abs_err_sum += float(np.abs(err).sum())
                    grads = model.backward_batch(cache, np.sign(err) / len(idx), params)
                    adam_step(params.flat, grads.flat, state, config.learning_rate)
                val_mae = mae(model.forward_batch(val_set.inputs, params, cache=False)[0],
                              val_set.targets)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"training diverged ({exc}) in epoch {epoch}") from None
        history.append(epoch, abs_err_sum / len(order), val_mae,
                       (time.perf_counter() - start) * 1e3)
    return history


def train_model(kind: str, train_set: WindowSet, val_set: WindowSet,
                config: TrainConfig):
    """Initialize fresh parameters from the config seed and train them;
    returns (params, History)."""
    _, init = _model(kind)
    params = init(train_set.window_len, config.seed)
    history = fit(kind, params, train_set, val_set, config)
    return params, history


def evaluate(kind: str, params, test_set: WindowSet, values, scaler: ScalerParams):
    """Predictions for the normalized `test_set` windows, on the original
    scale, scored against `values`, the series the windows were cut from.
    Returns (predictions, test_mae)."""
    model, _ = _model(kind)
    preds = scaler.inverse(model.forward_batch(test_set.inputs, params, cache=False)[0])
    return preds, mae(preds, values[test_set.target_slots])
