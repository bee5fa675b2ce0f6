"""Numeric pieces shared by both neural models: the sigmoid, and weight
storage in one flat float64 buffer with named views of it."""

import math

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


_SIG_LO = np.nextafter(0.0, 1.0)
_SIG_HI = np.nextafter(1.0, 0.0)


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function, computed as 0.5 + 0.5*tanh(x/2).

    tanh saturates instead of overflowing, so no branch on the sign of x is
    needed. Outputs are clamped into the open interval (0, 1): beyond |x| ~ 37
    the value rounds to exactly 0 or 1 in double precision, and gate values
    must stay strictly between fully-off and fully-on.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.multiply(x, 0.5, out=np.empty_like(x))
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    np.maximum(out, _SIG_LO, out=out)
    np.minimum(out, _SIG_HI, out=out)
    return out


class FlatViews(dict):
    """Named C-contiguous views of the 1-D buffer `flat`, one per
    (name, shape) entry of `layout`, laid out back to back in that order."""

    def __init__(self, flat: np.ndarray, layout):
        super().__init__()
        at = 0
        for name, shape in layout:
            size = math.prod(shape)
            self[name] = flat[at:at + size].reshape(shape)
            at += size
        self.flat = flat


def pack_fields(obj, layout) -> np.ndarray:
    """Copy the named arrays of `obj` into one fresh flat buffer in `layout`
    order and rebind each attribute to its view; returns the buffer."""
    views = FlatViews(np.empty(sum(math.prod(shape) for _, shape in layout)), layout)
    for name, view in views.items():
        value = np.asarray(getattr(obj, name), dtype=np.float64)
        if value.shape != view.shape:
            raise ShapeError(f"{name} has shape {value.shape}, expected {view.shape}")
        view[...] = value
        setattr(obj, name, view)
    return views.flat
