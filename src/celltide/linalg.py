"""Dense matrix/vector helpers and activation functions shared by every model.

Matrices are 2-D float64 numpy arrays (row-major), vectors are 1-D float64
arrays. All operations are pure and shape-checked; the point is a small,
explicit surface rather than raw numpy broadcasting semantics leaking into
the model code.
"""

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ShapeError(f"expected a matrix, got ndim={a.ndim}")
    return a


def as_vector(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"expected a vector, got ndim={a.ndim}")
    return a


def matmul(a, b) -> np.ndarray:
    """Standard matrix product; raises ShapeError naming both shapes."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    return a @ b


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


def tanh_act(x) -> np.ndarray:
    return np.tanh(np.asarray(x, dtype=np.float64))


def relu(x) -> np.ndarray:
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def hadamard(a, b) -> np.ndarray:
    a, b = as_vector(a), as_vector(b)
    if a.shape != b.shape:
        raise ShapeError(f"hadamard: lengths differ {a.shape[0]} vs {b.shape[0]}")
    return a * b


def vec_add(a, b) -> np.ndarray:
    a, b = as_vector(a), as_vector(b)
    if a.shape != b.shape:
        raise ShapeError(f"vec_add: lengths differ {a.shape[0]} vs {b.shape[0]}")
    return a + b


def concat(a, b) -> np.ndarray:
    """[a, b] with a first; houses the recurrent [hidden, input] stacking."""
    return np.concatenate([as_vector(a), as_vector(b)])
