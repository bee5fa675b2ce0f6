"""Numeric pieces shared by both neural models: the sigmoid, Glorot-uniform
initialisation, and `FlatViews`, the one weight type: named views of one flat
float64 buffer. A gradient is a plain 1-D array in that buffer's layout."""

import math

import numpy as np


_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, computed as 0.5 + 0.5*tanh(x/2).

    tanh saturates instead of overflowing, so no branch on the sign of x is
    needed. Outputs are clamped into the open interval (0, 1): beyond |x| ~ 37
    the value rounds to exactly 0 or 1 in double precision, and gate values
    must stay strictly between fully-off and fully-on.
    """
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(out, out=out)
    return sigmoid_from_tanh(out)


def sigmoid_from_tanh(t: np.ndarray) -> np.ndarray:
    """tanh(x/2) into sigmoid(x), in place: `*0.5`, `+0.5`, clamp into (0, 1)."""
    t *= 0.5
    t += 0.5
    np.maximum(t, _SIG_LO, out=t)
    np.minimum(t, _SIG_HI, out=t)
    return t


class FlatViews:
    """Named C-contiguous views of a fresh zeroed 1-D float64 buffer `flat`,
    one attribute per (name, shape) entry of `layout`, laid out back to back
    in that order."""

    def __init__(self, layout):
        self.flat = np.zeros(sum(math.prod(shape) for _, shape in layout))
        at = 0
        for name, shape in layout:
            size = math.prod(shape)
            setattr(self, name, self.flat[at:at + size].reshape(shape))
            at += size


def glorot_uniform(views: FlatViews, keys, seed: int) -> FlatViews:
    """Fill the named 2-D views, in `keys` order, from one generator seeded
    with `seed`: uniform in +-sqrt(6 / (fan_in + fan_out)). Returns `views`."""
    rng = np.random.default_rng(seed)
    for k in keys:
        view = getattr(views, k)
        limit = np.sqrt(6.0 / sum(view.shape))
        view[...] = rng.uniform(-limit, limit, size=view.shape)
    return views
