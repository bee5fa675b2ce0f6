"""Two-layer feed-forward baseline: T inputs -> 5 relu units -> 1 sigmoid unit.

The window is consumed as a flat vector, so unlike the recurrent model this
baseline has no built-in notion of time order. Every pass is batched over
windows. `FfnnParams` holds the weights as named views of one flat buffer,
like the LSTM's, and `backward_batch` returns the gradient as the same type.
"""

import numpy as np

from .linalg import FlatViews, glorot_uniform, sigmoid

WEIGHT_KEYS = ("W1", "b1", "W2", "b2")

HIDDEN_UNITS = 5


class FfnnParams(FlatViews):
    """Feed-forward weights, or their gradient: views of one flat float64
    buffer in WEIGHT_KEYS order, W1 (hidden, T), b1 (hidden,), W2 (1, hidden)
    and b2 (1,)."""

    kind = "ffnn"
    WEIGHT_KEYS = WEIGHT_KEYS

    def __init__(self, hidden: int, window_len: int, flat: np.ndarray | None = None):
        super().__init__([("W1", (hidden, window_len)), ("b1", (hidden,)),
                          ("W2", (1, hidden)), ("b2", (1,))], flat)
        self.hidden, self.window_len = hidden, window_len


def init_params(window_len: int, seed: int = 0) -> FfnnParams:
    """Glorot-uniform weights drawn in the order W1, W2, zero biases; the
    same scheme as the LSTM's."""
    return glorot_uniform(FfnnParams(HIDDEN_UNITS, window_len), ("W1", "W2"), seed)


def forward_batch(windows: np.ndarray, p: FfnnParams, cache: bool = True):
    """Predictions (B,) for a batch of flat windows (B, T), and the cache for
    backward_batch. `cache` is accepted for the LSTM's signature and ignored:
    this cache is a few (B, 5) arrays."""
    x = np.asarray(windows, dtype=np.float64)
    pre1 = x @ p.W1.T + p.b1
    h = np.maximum(pre1, 0.0)
    score = h @ p.W2.T + p.b2
    y = sigmoid(score).ravel()
    return y, {"x": x, "pre1": pre1, "h": h, "y": y}


def backward_batch(cache: dict, d_loss_d_yhat: np.ndarray, p: FfnnParams) -> FfnnParams:
    """Batch-summed gradients as an FfnnParams over a fresh buffer; relu
    subgradient at 0 is taken as 0."""
    d_y = np.asarray(d_loss_d_yhat, dtype=np.float64)
    y = cache["y"]
    d_score = d_y * y * (1.0 - y)
    grads = FfnnParams(p.hidden, p.window_len, np.empty_like(p.flat))
    np.matmul(d_score[None, :], cache["h"], out=grads["W2"])
    grads["b2"][0] = d_score.sum()
    d_h = d_score[:, None] * p.W2
    d_pre1 = d_h * (cache["pre1"] > 0.0)
    np.matmul(d_pre1.T, cache["x"], out=grads["W1"])
    np.sum(d_pre1, axis=0, out=grads["b1"])
    return grads
