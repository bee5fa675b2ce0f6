"""Two-layer feed-forward baseline: T inputs -> 5 relu units -> 1 sigmoid unit.

The window is consumed as a flat vector, so unlike the recurrent model this
baseline has no built-in notion of time order. Every pass is batched over
windows. `FfnnParams` holds the weights as named views of one flat buffer,
like the LSTM's, and `backward_batch` returns the gradient as a new 1-D
array in that buffer's layout.
"""

import numpy as np

from .linalg import FlatViews, glorot_uniform, sigmoid

WEIGHT_KEYS = ("W1", "b1", "W2", "b2")

HIDDEN_UNITS = 5


class FfnnParams(FlatViews):
    """Feed-forward weights: views of one flat float64 buffer in WEIGHT_KEYS
    order, W1 (hidden, T), b1 (hidden,), W2 (1, hidden) and b2 (1,)."""

    def __init__(self, hidden: int, window_len: int):
        super().__init__([("W1", (hidden, window_len)), ("b1", (hidden,)),
                          ("W2", (1, hidden)), ("b2", (1,))])
        self.hidden = hidden


def init_params(window_len: int, seed: int = 0) -> FfnnParams:
    """Glorot-uniform weights drawn in the order W1, W2, zero biases; the
    same scheme as the LSTM's."""
    return glorot_uniform(FfnnParams(HIDDEN_UNITS, window_len), ("W1", "W2"), seed)


def forward_batch(windows: np.ndarray, p: FfnnParams):
    """Predictions (B,) for a batch of flat windows (B, T), and the cache for
    backward_batch."""
    pre1 = windows @ p.W1.T + p.b1
    h = np.maximum(pre1, 0.0)
    score = h @ p.W2.T + p.b2
    y = sigmoid(score).ravel()
    return y, {"x": windows, "pre1": pre1, "h": h, "y": y}


def backward_batch(cache: dict, d_loss_d_yhat: np.ndarray, p: FfnnParams) -> np.ndarray:
    """Batch-summed gradients as a new 1-D float64 array in the layout of
    `p.flat`; relu subgradient at 0 is taken as 0."""
    y = cache["y"]
    d_score = d_loss_d_yhat * y * (1.0 - y)
    d_h = d_score[:, None] * p.W2
    d_pre1 = d_h * (cache["pre1"] > 0.0)
    return np.concatenate(((d_pre1.T @ cache["x"]).ravel(), d_pre1.sum(axis=0),
                           (d_score[None, :] @ cache["h"]).ravel(), [d_score.sum()]))
