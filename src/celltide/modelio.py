"""Model-file JSON output: floats to 17 significant digits, and the one
file envelope both neural models share. No command reads a model file."""

import json

import numpy as np

from .dataset import ScalerParams


def dumps(obj) -> str:
    """JSON text with floats printed to 17 significant digits (round-trip exact)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {dumps(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_neural(params, window_len: int, scaler: ScalerParams) -> str:
    """A neural model file: `type`, `hidden`, `T`, `head` (always
    "sigmoid"), `scaler`, then `weights` in the model's WEIGHT_KEYS order.
    `hidden` and `T` must be positive ints and the scaler bounds finite
    numbers with min < max; otherwise a ValueError names the field."""
    for name, n in (("hidden", params.hidden), ("T", window_len)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"field {name!r} is {n!r}, not a positive int")
    for name, x in (("scaler.min", scaler.min), ("scaler.max", scaler.max)):
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not np.isfinite(x):
            raise ValueError(f"field {name!r} is {x!r}, not a finite number")
    if not scaler.min < scaler.max:
        raise ValueError(f"field 'scaler' has min {scaler.min!r} >= max {scaler.max!r}")
    return dumps({
        "type": params.kind,
        "hidden": params.hidden,
        "T": window_len,
        "head": "sigmoid",
        "scaler": {"min": scaler.min, "max": scaler.max},
        "weights": {k: params[k] for k in params.WEIGHT_KEYS},
    })

