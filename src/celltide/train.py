"""Training loop, Adam optimizer, and evaluation shared by both neural models,
and the kind table of every forecaster, `FORECASTERS`.

Mean absolute error is both the training loss and the reported metric; its
subgradient at zero error is taken as 0. Loss is computed on the normalized
scale; evaluation returns predictions on the original scale.
"""

import collections
import time
from dataclasses import dataclass

import numpy as np

from . import Failure, arima, dataset, ffnn, lstm, modelio
from .dataset import ScalerParams, WindowSet


BATCH_SIZE = 32
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class TrainingDiverged(Failure):
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


def _predict(model, inputs: np.ndarray, params) -> np.ndarray:
    """`model.forward_batch`'s outputs for `inputs`, in passes of exactly BATCH_SIZE windows so
    that no forecast depends on its column; copies of the last window fill the last pass."""
    rows = np.minimum(np.arange(-len(inputs) // BATCH_SIZE * -BATCH_SIZE), len(inputs) - 1)
    chunks = np.split(rows, range(BATCH_SIZE, len(rows), BATCH_SIZE))
    return np.concatenate([model.forward_batch(inputs[c], params)[0] for c in chunks])[:len(inputs)]


class Neural(collections.namedtuple("Neural", "kind module init")):
    """A neural row of the kind table: the module with forward_batch and backward_batch,
    and the initialiser(window_len, seed); the model is `train_model`'s (params, history)."""
    report_files = ("history.csv",)  # the files that `report` writes, by name

    @staticmethod
    def setup(data, args) -> None:
        """Print the split, fit the scaler and cut the training and validation windows."""
        spec = data.spec
        data.scaler = dataset.fit_scaler(data.values[:spec.n_train])
        print(f"split {spec.n_train}/{spec.n_val}/{spec.n_test}")
        # the library trusts each range below to hold a target: the window is checked first
        if args.window >= spec.n_train:
            raise ValueError(f"--window must be below the {spec.n_train} training slots, "
                             f"got {args.window}")
        data.normed, data.window = data.scaler.transform(data.values), args.window
        data.train_set = dataset.windows_for_range(data.normed, args.window, 0, spec.n_train)
        data.val_set = dataset.windows_for_range(data.normed, args.window, spec.val_start,
                                                 spec.test_start)
        data.config = TrainConfig(epochs=args.epochs, learning_rate=args.lr, seed=args.seed)

    def fit(self, data, map):
        params, history = train_model(self.kind, data.train_set, data.val_set, data.config)
        return (params, history), [f"final val MAE (normalized) {history[-1].val_mae:.6f}"]

    def forecast(self, model, data, lo, hi):
        windows = dataset.windows_for_range(data.normed, data.window, lo, hi)
        return evaluate(self.kind, model[0], windows, data.scaler)

    def dumps(self, model, data) -> str:
        """`type` (the row's kind), `hidden`, `T` (`--window`), `head` (always "sigmoid"),
        `scaler` (from `fit_scaler`), then `weights` in the module's WEIGHT_KEYS order."""
        params = model[0]
        return modelio.dumps({
            "type": self.kind,
            "hidden": params.hidden,
            "T": data.window,
            "head": "sigmoid",
            "scaler": {"min": data.scaler.min, "max": data.scaler.max},
            "weights": {k: params[k] for k in self.module.WEIGHT_KEYS},
        })

    def report(self, model, scores, out) -> dict:
        """The history to `out("history.csv")`, and its length after the scores."""
        write_history(out("history.csv"), model[1])
        return {**scores, "epochs": len(model[1])}


# the kind table, kind -> forecaster, in `compare`'s order
FORECASTERS = {
    "lstm": Neural("lstm", lstm,
                   lambda window_len, seed: lstm.init_params(lstm.HIDDEN_UNITS, seed=seed)),
    "ffnn": Neural("ffnn", ffnn,
                   lambda window_len, seed: ffnn.init_params(window_len, seed=seed)),
    "arima": arima.Forecaster(),
}


def fit(kind: str, params, train_set: WindowSet, val_set: WindowSet,
        config: TrainConfig) -> list:
    """Train `params` in place for the configured epochs; returns one Epoch per epoch.

    Mini-batch order is a per-epoch seeded permutation; batch gradients are
    averaged. Validation is a full deterministic pass after each epoch. An
    overflow or invalid value anywhere in an epoch raises TrainingDiverged.
    """
    model = FORECASTERS[kind].module
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
                    del cache  # freed before the next batch's forward pass makes its own
                    step += 1
                    adam_step(params.flat, grad, m, v, step, config.learning_rate)
                val_mae = mae(_predict(model, val_set.inputs, params), val_set.targets)
        except FloatingPointError as exc:
            raise TrainingDiverged(f"training diverged ({exc}) in epoch {epoch}") from None
        history.append(Epoch(epoch, abs_err_sum / len(order), val_mae,
                             (time.perf_counter() - start) * 1e3))
    return history


def train_model(kind: str, train_set: WindowSet, val_set: WindowSet,
                config: TrainConfig):
    """Initialize fresh parameters from the config seed and train them;
    returns (params, history)."""
    params = FORECASTERS[kind].init(train_set.inputs.shape[1], config.seed)
    return params, fit(kind, params, train_set, val_set, config)


def evaluate(kind: str, params, windows: WindowSet, scaler: ScalerParams) -> np.ndarray:
    """Predictions for the normalized `windows`, on the original scale."""
    return scaler.inverse(_predict(FORECASTERS[kind].module, windows.inputs, params))
