"""Training loop, Adam optimizer, and evaluation shared by both neural models.

Mean absolute error is both the training loss and the reported metric; its
subgradient at zero error is taken as 0. Loss is computed on the normalized
scale; evaluation returns predictions on the original scale.
"""

import collections
import time
from dataclasses import dataclass

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


# one row of a training history; `fit` returns a list of them
Epoch = collections.namedtuple("Epoch", "epoch train_mae val_mae wall_ms")


def write_history(path: str, history: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(Epoch._fields) + "\n")
        for epoch, tr, va, ms in history:
            fh.write(f"{epoch},{tr:.17g},{va:.17g},{ms:.3f}\n")


def mae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(np.abs(pred - truth)))


def adam_step(w: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float) -> None:
    """Adam update number `t` (from 1, for the bias correction) of the flat
    weights `w` and their moment estimates `m` and `v`, all in place."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    w -= lr * (m / (1.0 - ADAM_BETA1 ** t)) / (np.sqrt(v / (1.0 - ADAM_BETA2 ** t)) + ADAM_EPS)


# kind -> (module with forward_batch/backward_batch,
#          initialiser(window_len, seed) of fresh parameters)
MODELS = {
    "lstm": (lstm, lambda window_len, seed: lstm.init_params(lstm.HIDDEN_UNITS, seed=seed)),
    "ffnn": (ffnn, lambda window_len, seed: ffnn.init_params(window_len, seed=seed)),
}


def fit(kind: str, params, train_set: WindowSet, val_set: WindowSet,
        config: TrainConfig) -> list:
    """Train `params` in place for the configured epochs; returns one Epoch per epoch.

    Mini-batch order is a per-epoch seeded permutation; batch gradients are
    averaged. Validation is a full deterministic pass after each epoch. An
    overflow or invalid value anywhere in an epoch raises TrainingDiverged.
    """
    model, _ = MODELS[kind]
    m, v, step = np.zeros_like(params.flat), np.zeros_like(params.flat), 0
    rng = np.random.default_rng(config.seed)
    history = []
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
                    grad = model.backward_batch(cache, np.sign(err) / len(idx), params)
                    step += 1
                    adam_step(params.flat, grad, m, v, step, config.learning_rate)
                val_mae = mae(model.forward_batch(val_set.inputs, params)[0], val_set.targets)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"training diverged ({exc}) in epoch {epoch}") from None
        history.append(Epoch(epoch, abs_err_sum / len(order), val_mae,
                             (time.perf_counter() - start) * 1e3))
    return history


def train_model(kind: str, train_set: WindowSet, val_set: WindowSet,
                config: TrainConfig):
    """Initialize fresh parameters from the config seed and train them;
    returns (params, history)."""
    _, init = MODELS[kind]
    params = init(train_set.inputs.shape[1], config.seed)
    history = fit(kind, params, train_set, val_set, config)
    return params, history


def evaluate(kind: str, params, test_set: WindowSet, scaler: ScalerParams) -> np.ndarray:
    """Predictions for the normalized `test_set` windows, on the original scale."""
    model, _ = MODELS[kind]
    return scaler.inverse(model.forward_batch(test_set.inputs, params)[0])
