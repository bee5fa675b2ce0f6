"""Two-layer feed-forward baseline: T inputs -> 5 relu units -> 1 sigmoid unit.

The window is consumed as a flat vector, so unlike the recurrent model this
baseline has no built-in notion of time order. Every pass is batched over
windows, and the weights sit in one flat buffer like the LSTM's.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import FlatViews, ShapeError, pack_fields, sigmoid

WEIGHT_KEYS = ("W1", "b1", "W2", "b2")

HIDDEN_UNITS = 5


@dataclass
class FfnnParams:
    """Feed-forward weights; the fields are contiguous views of one flat
    float64 buffer `flat` in WEIGHT_KEYS order. Construction copies the given
    arrays into a fresh buffer."""

    kind: ClassVar[str] = "ffnn"

    W1: np.ndarray  # (5, T)
    b1: np.ndarray  # (5,)
    W2: np.ndarray  # (1, 5)
    b2: np.ndarray  # (1,)

    @staticmethod
    def layout(hidden: int, window_len: int) -> list:
        """(name, shape) of every weight in buffer order."""
        return [("W1", (hidden, window_len)), ("b1", (hidden,)),
                ("W2", (1, hidden)), ("b2", (1,))]

    def __post_init__(self):
        self.flat = pack_fields(self, self.layout(*np.shape(self.W1)))

    @property
    def window_len(self) -> int:
        return self.W1.shape[1]

    @property
    def hidden(self) -> int:
        return self.W1.shape[0]

    def weights(self) -> dict:
        return {k: getattr(self, k) for k in WEIGHT_KEYS}


def init_params(window_len: int, seed: int = 0) -> FfnnParams:
    """Glorot-uniform weights, zero biases; same PRNG scheme as the LSTM."""
    if window_len < 1:
        raise ValueError("window length must be >= 1")
    rng = np.random.default_rng(seed)
    lim1 = np.sqrt(6.0 / (window_len + HIDDEN_UNITS))
    lim2 = np.sqrt(6.0 / (HIDDEN_UNITS + 1))
    return FfnnParams(
        W1=rng.uniform(-lim1, lim1, size=(HIDDEN_UNITS, window_len)),
        b1=np.zeros(HIDDEN_UNITS),
        W2=rng.uniform(-lim2, lim2, size=(1, HIDDEN_UNITS)),
        b2=np.zeros(1))


def forward_batch(windows: np.ndarray, p: FfnnParams):
    """Predictions (B,) for a batch of flat windows (B, T)."""
    x = np.asarray(windows, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != p.window_len:
        raise ShapeError(f"expected (batch, {p.window_len}) windows, got {x.shape}")
    pre1 = x @ p.W1.T + p.b1
    h = np.maximum(pre1, 0.0)
    score = h @ p.W2.T + p.b2
    y = sigmoid(score).ravel()
    return y, {"x": x, "pre1": pre1, "h": h, "y": y}


def backward_batch(cache: dict, d_loss_d_yhat: np.ndarray, p: FfnnParams) -> dict:
    """Batch-summed gradients; relu subgradient at 0 is taken as 0. The
    returned arrays are views of one flat buffer in parameter layout, kept as
    the result's `flat`."""
    if cache["x"].shape[1] != p.window_len or cache["h"].shape[1] != p.hidden:
        raise ShapeError("cache does not match parameter shapes")
    d_y = np.asarray(d_loss_d_yhat, dtype=np.float64)
    y = cache["y"]
    if d_y.shape != y.shape:
        raise ShapeError(f"upstream gradient shape {d_y.shape} != predictions {y.shape}")
    d_score = d_y * y * (1.0 - y)
    grads = FlatViews(np.empty_like(p.flat), p.layout(p.hidden, p.window_len))
    np.matmul(d_score[None, :], cache["h"], out=grads["W2"])
    grads["b2"][0] = d_score.sum()
    d_h = d_score[:, None] * p.W2
    d_pre1 = d_h * (cache["pre1"] > 0.0)
    np.matmul(d_pre1.T, cache["x"], out=grads["W1"])
    np.sum(d_pre1, axis=0, out=grads["b1"])
    return grads
