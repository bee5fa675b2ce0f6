"""Model-file JSON helpers: 17-significant-digit float output,
shape-checked field extraction with path-bearing errors, and the one file
envelope both neural models share."""

import json
import math

import numpy as np

from .dataset import ScalerParams


class ModelFormatError(ValueError):
    """Model file violates the schema; message names the offending field."""


def _encode(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_encode(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _encode(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """JSON text with floats printed to 17 significant digits (round-trip exact)."""
    return _encode(obj)


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid model JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ModelFormatError("model file must be a JSON object")
    return obj


def require(obj: dict, path: str):
    """Walk a dotted path, raising ModelFormatError naming the missing field."""
    node = obj
    walked = []
    for key in path.split("."):
        walked.append(key)
        if not isinstance(node, dict) or key not in node:
            raise ModelFormatError(f"missing field {'.'.join(walked)!r}")
        node = node[key]
    return node


def require_array(obj: dict, path: str, shape: tuple) -> np.ndarray:
    arr = np.asarray(require(obj, path), dtype=np.float64)
    if arr.shape != shape:
        raise ModelFormatError(f"field {path!r} has shape {arr.shape}, expected {shape}")
    if not np.all(np.isfinite(arr)):
        raise ModelFormatError(f"field {path!r} contains non-finite values")
    return arr


def require_int(obj: dict, path: str, lo: int, hi: int | None = None) -> int:
    """An integer (not a bool) in lo..hi, or at least lo when hi is None."""
    v = require(obj, path)
    if isinstance(v, bool) or not isinstance(v, int) or v < lo or (hi is not None and v > hi):
        expected = f"an integer >= {lo}" if hi is None else f"an integer in {lo}..{hi}"
        raise ModelFormatError(f"field {path!r} is {v!r}, expected {expected}")
    return v


def require_finite(obj: dict, path: str) -> float:
    v = require(obj, path)
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ModelFormatError(f"field {path!r} is {v!r}, expected a finite number")
    return float(v)


def check_type_tag(obj: dict, expected: str) -> None:
    tag = require(obj, "type")
    if tag != expected:
        raise ModelFormatError(f"field 'type' is {tag!r}, expected {expected!r}")


def dumps_neural(params, window_len: int, scaler: ScalerParams) -> str:
    """A neural model file: `type`, `hidden`, `T`, `head` (always
    "sigmoid"), `scaler`, then `weights` in the model's WEIGHT_KEYS order."""
    return dumps({
        "type": params.kind,
        "hidden": params.hidden,
        "T": window_len,
        "head": "sigmoid",
        "scaler": {"min": scaler.min, "max": scaler.max},
        "weights": {k: params[k] for k in params.WEIGHT_KEYS},
    })


def loads_neural(text: str, params_cls):
    """Read a `params_cls` model file; returns (params, window_len, scaler).
    `T` and `hidden` must be integers >= 1, `head` "sigmoid" if given, the
    weights finite and shaped by them, and the scaler bounds finite with
    min < max."""
    obj = loads(text)
    check_type_tag(obj, params_cls.kind)
    hidden = require_int(obj, "hidden", 1)
    window_len = require_int(obj, "T", 1)
    if obj.get("head", "sigmoid") != "sigmoid":
        raise ModelFormatError(f"field 'head' is {obj['head']!r}, expected 'sigmoid'")
    params = params_cls(hidden, window_len)
    for k, view in params.items():
        view[...] = require_array(obj, f"weights.{k}", view.shape)
    lo, hi = require_finite(obj, "scaler.min"), require_finite(obj, "scaler.max")
    if not lo < hi:
        raise ModelFormatError(f"field 'scaler' has min {lo!r} >= max {hi!r}")
    return params, window_len, ScalerParams(lo, hi)
